import io
import struct
import tracemalloc

import numpy as np
import pytest

from peer_lab.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    save_checkpoint,
    write_tensor_record,
)


def encode(arr) -> bytes:
    buf = io.BytesIO()
    write_tensor_record(buf, arr)
    return buf.getvalue()


def joined_checkpoint(tensors) -> bytes:
    """The container as saves built it in memory before they were streamed."""
    tags = {("f", 8): (0, "<f8"), ("f", 4): (1, "<f4"), ("i", 8): (2, "<i8"), ("u", 1): (3, "|u1")}
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        tag, dt = tags[(arr.dtype.kind, arr.dtype.itemsize)]
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
        parts.append(struct.pack("<BI", tag, arr.ndim) + dims + arr.astype(dt, copy=False).tobytes())
    return b"".join(parts)


class TestTensorRecord:
    @pytest.mark.parametrize("arr", [
        np.arange(12, dtype=np.float64).reshape(3, 4),
        np.arange(6, dtype=np.float32).reshape(2, 3) * 0.5,
        np.array([1, -2, 3], dtype=np.int64),
        np.frombuffer(b"hello", dtype=np.uint8),
        np.asarray(3.25, dtype=np.float64),  # rank 0
    ])
    def test_roundtrip(self, arr, tmp_path):
        # decoded through a one-entry container: its file is the header, the
        # name and exactly the record's bytes
        path = tmp_path / "one.bin"
        save_checkpoint(path, {"x": arr})
        assert path.stat().st_size == len(MAGIC) + 8 + 4 + 1 + len(encode(arr))
        got = load_checkpoint(path)["x"]
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        assert np.array_equal(got, arr)

    def test_little_endian_layout(self):
        buf = encode(np.array([1.0], dtype=np.float32))
        assert buf[0] == 1  # float32 tag
        assert buf[1:5] == (1).to_bytes(4, "little")  # rank
        assert buf[5:13] == (1).to_bytes(8, "little")  # dim
        assert buf[13:] == np.float32(1.0).tobytes()

    def test_unsupported_dtype(self):
        with pytest.raises(ValueError):
            encode(np.array([1 + 2j]))


class TestContainer:
    def test_roundtrip(self, tmp_path):
        tensors = {
            "peer.subkeys.c": np.random.default_rng(0).normal(size=(8, 4)),
            "train.step": np.asarray(17, dtype=np.int64),
            "meta.config": np.frombuffer(b"model.d_model=64\n", dtype=np.uint8),
        }
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])

    def test_magic_bytes_leading(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"a": np.zeros(1)})
        assert path.read_bytes()[:8] == MAGIC == b"PEERCKPT"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"a": np.zeros(1)})
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_float32_roundtrip_bitwise(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=257).astype(np.float32)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": arr})
        assert np.array_equal(load_checkpoint(path)["w"], arr)

    def test_streamed_file_equals_the_joined_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {
            "f8": rng.normal(size=(3, 5)),
            "f4.transposed": rng.normal(size=(4, 6)).astype(np.float32).T,  # not C-contiguous
            "f4.strided": rng.normal(size=20).astype(np.float32)[::3],
            "f8.big_endian": rng.normal(size=4).astype(">f8"),
            "i8": np.arange(-3, 4, dtype=np.int64),
            "i8.rank0": np.asarray(17, dtype=np.int64),
            "u1": np.frombuffer("model.d_model=64 é\n".encode(), dtype=np.uint8),
            "f4.empty": np.zeros((0, 3), dtype=np.float32),
            "名前": np.ones((2, 1, 2)),
        }
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, tensors)
        assert path.read_bytes() == joined_checkpoint(tensors)

    def test_save_holds_no_copy_of_the_data(self, tmp_path):
        tensors = {f"w{i}": np.ones((1024, 4096), dtype=np.float32) for i in range(4)}  # 64 MiB
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "ckpt.bin", tensors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"saving 64 MiB peaked at {peak / 2**20:.1f} MiB of new allocations"

    def test_load_holds_the_file_once(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {f"w{i}": np.full((1024, 4096), i, dtype=np.float32) for i in range(4)})  # 64 MiB
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size + 2**20, f"loading {size / 2**20:.1f} MiB peaked at {peak / 2**20:.1f} MiB"
        assert all(np.all(loaded[f"w{i}"] == i) for i in range(4))


class TestDamagedFiles:
    TENSORS = {
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "train.step": np.asarray(5, dtype=np.int64),
        "meta.config": np.frombuffer(b"a=1\n", dtype=np.uint8),
    }

    def test_every_cut_point_raises(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, self.TENSORS)
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError):
                load_checkpoint(cut)

    def test_cut_inside_a_record_names_the_entry_and_offset(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, self.TENSORS)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 1])
        with pytest.raises(ValueError, match=r"entry 2 of 3 \('meta.config'\), starting at byte \d+: tensor data"):
            load_checkpoint(path)

    def test_bad_dtype_tag_names_the_entry_and_offset(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, self.TENSORS)
        raw = bytearray(path.read_bytes())
        record = raw.index(b"train.step") + len(b"train.step")
        raw[record] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=rf"entry 1 of 3 \('train.step'\), starting at byte \d+: unknown tensor dtype tag 9 at byte {record}"):
            load_checkpoint(path)

    def test_repeated_name_raises(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"a": np.zeros(2), "b": np.ones(2)})
        path.write_bytes(path.read_bytes().replace(b"\x01\x00\x00\x00b", b"\x01\x00\x00\x00a"))  # rename entry b
        with pytest.raises(ValueError, match=r"entry 1 of 2 \('a'\), starting at byte \d+: the name 'a' is taken by an earlier entry"):
            load_checkpoint(path)

    def test_trailing_byte_raises(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, self.TENSORS)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match=f"1 bytes left over after the last entry, at byte {len(raw)}"):
            load_checkpoint(path)

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, self.TENSORS)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("peer_lab.checkpoint.os.replace", fail)
        # the rename fails, or an entry fails after earlier ones were written
        for bad, error in (({"w": np.zeros(3)}, OSError), ({"w": np.zeros(3), "c": np.array([1j])}, ValueError)):
            with pytest.raises(error):
                save_checkpoint(path, bad)
            loaded = load_checkpoint(path)
            assert list(loaded) == list(self.TENSORS)
            assert all(np.array_equal(loaded[k], v) for k, v in self.TENSORS.items())
            assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
