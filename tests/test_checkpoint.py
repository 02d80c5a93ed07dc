import numpy as np
import pytest

from peer_lab.checkpoint import (
    MAGIC,
    load_checkpoint,
    read_tensor_record,
    save_checkpoint,
    write_tensor_record,
)


class TestTensorRecord:
    @pytest.mark.parametrize("arr", [
        np.arange(12, dtype=np.float64).reshape(3, 4),
        np.arange(6, dtype=np.float32).reshape(2, 3) * 0.5,
        np.array([1, -2, 3], dtype=np.int64),
        np.frombuffer(b"hello", dtype=np.uint8),
        np.asarray(3.25, dtype=np.float64),  # rank 0
    ])
    def test_roundtrip(self, arr):
        buf = write_tensor_record(arr)
        got, offset = read_tensor_record(buf)
        assert offset == len(buf)
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        assert np.array_equal(got, arr)

    def test_little_endian_layout(self):
        buf = write_tensor_record(np.array([1.0], dtype=np.float32))
        assert buf[0] == 1  # float32 tag
        assert buf[1:5] == (1).to_bytes(4, "little")  # rank
        assert buf[5:13] == (1).to_bytes(8, "little")  # dim
        assert buf[13:] == np.float32(1.0).tobytes()

    def test_unsupported_dtype(self):
        with pytest.raises(ValueError):
            write_tensor_record(np.array([1 + 2j]))


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
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.zeros(3)})
        loaded = load_checkpoint(path)
        assert list(loaded) == list(self.TENSORS)
        assert all(np.array_equal(loaded[k], v) for k, v in self.TENSORS.items())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
