from dataclasses import fields

import hashlib
import tracemalloc

import numpy as np
import pytest

from peer_lab import data
from peer_lab import tensor as T
from peer_lab.baselines import DenseConfig, MoeConfig, PkmConfig
from peer_lab.config import ACTIVATIONS, SCHEMA, SCORE_NORMS, dataclass_from_flat, default_config, format_config, parse_config
from peer_lab.data import _WORDS, Corpus, synthetic_text
from peer_lab.model import MIDDLE_LAYERS, ModelConfig, model_config_from_flat
from peer_lab.peer import PeerConfig
from peer_lab.train import TrainConfig

# sha256 of synthetic_text(n_bytes, seed), taken from the per-sentence loop
CORPUS_SHA256 = {
    (0, 20000): "c6ea4da00e4225807fec37e083826fdbf42deec47c5ee99946ca2b33c6071b0e",
    (0, 1 << 20): "9756819f7fcee83d84f3b13c4dff3ed3aa9f5f3e9fab26c2c23206187eafded8",
    (1, 20000): "f36cd6fd85c57d38f6cda7fffec4d00e8d7d2628c88563374ce6dcdfab646893",
    (1, 1 << 20): "d06c34453cb9d1112032e93429a001850096cb685ca034fc1746a9be7ba83d36",
    (7, 20000): "494f479939a4cd29c8ffe8b12d7933e3c99586eead2464fcde4f14642945b008",
    (7, 1 << 20): "15c5d2bfe45c02059c52c9c18d07133c8f4caf5affec9ed6a93dc712690fac6a",
}
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the four 32-bit halves u for which Lemire's method redraws integers(4, 13):
# 9u mod 2^32 < 4
LEMIRE_REJECTS = [r * pow(9, -1, 1 << 32) % (1 << 32) for r in range(4)]


def pcg64_before(word: int, seed: int = 0) -> np.random.PCG64:
    """A PCG64 whose next 64-bit output is `word`: the state before S' =
    word (high word 0, so S' outputs its low word) is (S' - inc)·mult^-1."""
    bitgen = np.random.PCG64(seed)
    state = bitgen.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (word - inc) * pow(PCG64_MULT, -1, 1 << 128) % (1 << 128)
    bitgen.state = state
    return bitgen

# a valid value other than the default for every key a layer or training run reads
NON_DEFAULT = {
    "peer.n_experts": 256,
    "peer.heads": 2,
    "peer.topk": 3,
    "peer.query_dim": 16,
    "peer.activation": "relu",
    "peer.score_norm": "sigmoid",
    "peer.query_bn": False,
    "peer.glu": True,
    "pkm.n_memories": 1024,
    "pkm.heads": 3,
    "pkm.topk": 2,
    "pkm.query_dim": 8,
    "pkm.score_norm": "sigmoid",
    "pkm.query_bn": False,
    "moe.n_experts": 3,
    "moe.d_ff": 40,
    "moe.granularity": 3,
    "train.steps": 7,
    "train.batch": 3,
    "train.lr": 0.5,
    "train.warmup": 2,
    "train.beta1": 0.8,
    "train.beta2": 0.9,
    "train.eps": 1e-5,
    "train.checkpoint_interval": 4,
    "train.seed": 9,
}


def synthetic_text_per_sentence_choice(n_bytes: int, seed: int | np.random.Generator = 0) -> bytes:
    """The generator as first written: one rng.choice(p=...) per sentence,
    over `default_rng(seed)` or over the Generator given."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(_WORDS) + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()
    pieces: list[str] = []
    size = 0
    while size < n_bytes:
        sent_len = int(rng.integers(4, 13))
        words = [_WORDS[i] for i in rng.choice(len(_WORDS), size=sent_len, p=weights)]
        words[0] = words[0].capitalize()
        sentence = " ".join(words) + ". "
        if rng.random() < 0.08:
            sentence += "\n\n"
        pieces.append(sentence)
        size += len(sentence)
    return "".join(pieces).encode("ascii")[:n_bytes]


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg["model.n_blocks"] == 2
        assert cfg["model.middle_layer"] == "dense"
        assert cfg["peer.n_experts"] == 4096

    def test_parse_overrides(self):
        cfg = parse_config("model.n_blocks=4\npeer.query_bn=false\ntrain.lr=0.01\n")
        assert cfg["model.n_blocks"] == 4
        assert cfg["peer.query_bn"] is False
        assert cfg["train.lr"] == 0.01

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nmodel.d_model=32\n")
        assert cfg["model.d_model"] == 32

    def test_unknown_key_errors(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("model.nblocks=2\n")

    def test_bad_value_errors(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_config("model.middle_layer=gigantic\n")

    def test_missing_equals_errors(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("model.n_blocks 2\n")

    def test_list_values(self):
        cfg = parse_config("sweep.d_models=16,32\nsweep.methods=dense,peer,pkm\n")
        assert cfg["sweep.d_models"] == (16, 32)
        assert cfg["sweep.methods"] == ("dense", "peer", "pkm")

    def test_format_roundtrip(self):
        cfg = default_config()
        cfg["model.n_blocks"] = 3
        cfg["peer.glu"] = True
        assert parse_config(format_config(cfg)) == cfg

    def test_middle_layer_choices_are_the_kind_table(self):
        assert SCHEMA["model.middle_layer"][0].options == tuple(MIDDLE_LAYERS)

    def test_score_norm_choices_are_the_one_tuple(self):
        assert SCHEMA["peer.score_norm"][0].options == SCHEMA["pkm.score_norm"][0].options == SCORE_NORMS

    def test_every_layer_and_train_key_is_read_into_a_field(self):
        assert set(NON_DEFAULT) == {key for key in SCHEMA if key.split(".")[0] in ("peer", "pkm", "moe", "train")}
        assert all(value != SCHEMA[key][1] for key, value in NON_DEFAULT.items())
        cfg = {**default_config(), **NON_DEFAULT}
        read = {}
        for kind in ("peer", "pkm", "moe"):
            middle = model_config_from_flat({**cfg, "model.middle_layer": kind}).middle_config
            read.update({f"{kind}.{f.name}": getattr(middle, f.name) for f in fields(middle)})
        tc = dataclass_from_flat(TrainConfig, cfg, "train")
        read.update({f"train.{f.name}": getattr(tc, f.name) for f in fields(tc)})
        assert {key: read.get(key) for key in NON_DEFAULT} == NON_DEFAULT

    @pytest.mark.parametrize(
        "field,value",
        [
            ("beta1", -0.1),
            ("beta1", 1.0),
            ("beta2", 1.0),
            ("beta2", -0.5),
            ("eps", 0.0),
            ("lr", -1e-3),
            ("batch", 0),
            ("warmup", -1),
            ("checkpoint_interval", -4),
        ],
    )
    def test_train_config_rejects_a_value_no_run_can_use(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            TrainConfig(**{field: value})

    def test_train_config_allows_zero_lr(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    @pytest.mark.parametrize(
        "cls,field,value",
        [
            (ModelConfig, "d_model", 0),
            (ModelConfig, "n_attn_heads", 0),
            (ModelConfig, "d_ff", 0),
            (ModelConfig, "seq_len", 0),
            (PeerConfig, "n_experts", 0),
            (PeerConfig, "d_model", 0),
            (PeerConfig, "query_dim", 0),
            (PeerConfig, "query_dim", -2),
            (PkmConfig, "n_memories", 0),
            (MoeConfig, "d_model", 0),
            (MoeConfig, "d_ff", 0),
            (DenseConfig, "d_model", 0),
            (DenseConfig, "d_ff", -1),
        ],
    )
    def test_size_field_below_one_fails_by_name(self, cls, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be >= 1, got {value}$"):
            cls(**{field: value})

    def test_middle_fields_outside_the_schema_take_the_model_dims(self):
        cfg = {**default_config(), "model.activation": "relu"}
        for kind, (config_cls, _) in MIDDLE_LAYERS.items():
            mc = model_config_from_flat({**cfg, "model.middle_layer": kind, "model.d_model": 48, "model.d_ff": 192})
            assert isinstance(mc.middle_config, config_cls)
            assert mc.middle_config.d_model == 48
        assert model_config_from_flat({**cfg, "model.middle_layer": "dense"}).middle_config == MIDDLE_LAYERS["dense"][0](64, 256, "relu")
        assert model_config_from_flat({**cfg, "model.middle_layer": "moe"}).middle_config.activation == "relu"
        assert model_config_from_flat({**cfg, "model.middle_layer": "peer"}).middle_config.activation == "gelu"  # peer.activation

    def test_every_configurable_activation_has_an_op_and_no_other(self):
        assert set(T.ACTIVATIONS) == set(ACTIVATIONS)


class TestCorpus:
    def test_synthetic_deterministic(self):
        a = synthetic_text(5000, seed=1)
        b = synthetic_text(5000, seed=1)
        assert a == b and len(a) == 5000
        assert synthetic_text(5000, seed=2) != a

    @pytest.mark.parametrize("seed", [0, 1, 7, 21])
    @pytest.mark.parametrize("n_bytes", [1, 9, 5000, 200_000])
    def test_synthetic_bytes_equal_per_sentence_choice(self, seed, n_bytes):
        # 1 and 9 bytes end inside the first sentence
        assert synthetic_text(n_bytes, seed) == synthetic_text_per_sentence_choice(n_bytes, seed)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_every_length_to_4096_is_the_loops_prefix(self, seed):
        # the loop's text for n bytes is a prefix of its text for more
        reference = synthetic_text_per_sentence_choice(4096, seed)
        for n in range(1, 4097):
            assert synthetic_text(n, seed) == reference[:n], n

    @pytest.mark.parametrize(
        "word",
        [
            (0x9ABCDEF0 << 32) | LEMIRE_REJECTS[1],  # the first word's low half rejects
            (LEMIRE_REJECTS[2] << 32) | 0x12345678,  # the buffered high half rejects
            (LEMIRE_REJECTS[3] << 32) | LEMIRE_REJECTS[0],  # both halves of one word reject
        ],
        ids=["low half", "buffered high half", "both halves"],
    )
    def test_rejected_sentence_lengths_redraw_as_numpy_does(self, word):
        assert pcg64_before(word).random_raw() == word
        reference = synthetic_text_per_sentence_choice(3000, np.random.Generator(pcg64_before(word)))
        assert data._stream_text(pcg64_before(word), 3000) == reference

    def test_a_short_first_draw_extends_the_same_stream(self, monkeypatch):
        monkeypatch.setattr(data, "_BYTES_PER_WORD", 1000)  # the first draw is 64 + n/1000 words
        assert synthetic_text(20000, seed=3) == synthetic_text_per_sentence_choice(20000, 3)

    @pytest.mark.parametrize("seed, n_bytes", sorted(CORPUS_SHA256))
    def test_synthetic_bytes_are_pinned(self, seed, n_bytes):
        digest = hashlib.sha256(synthetic_text(n_bytes, seed)).hexdigest()
        assert digest == CORPUS_SHA256[seed, n_bytes], (
            f"synthetic_text({n_bytes}, seed={seed}) changed: numpy's Generator stream or the generator "
            "changed, and every eval_ppl and checkpoint moves with it"
        )

    def test_synthetic_peak_memory_at_one_mib(self):
        tracemalloc.start()
        try:
            synthetic_text(1 << 20, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("n_bytes", [0, -5])
    def test_non_positive_length_fails_by_name(self, n_bytes):
        with pytest.raises(ValueError, match=f"n_bytes must be >= 1, got {n_bytes}"):
            synthetic_text(n_bytes)
        with pytest.raises(ValueError, match=f"n_bytes must be >= 1, got {n_bytes}"):
            Corpus.synthetic(n_bytes)

    def test_synthetic_is_texty(self):
        text = synthetic_text(20000, seed=0).decode("ascii")
        assert ". " in text and text.count(" ") > 2000

    def test_split_sizes(self):
        corpus = Corpus.from_bytes(bytes(range(256)) * 4, val_fraction=0.25)
        assert corpus.split == 768
        assert len(corpus.stream) - corpus.split == 256

    def test_train_windows_never_touch_validation(self):
        corpus = Corpus.from_bytes(b"x" * 100, val_fraction=0.2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = corpus.sample_windows(rng, batch=4, seq_len=16)
            assert x.shape == (4, 16) and y.shape == (4, 16)
        # strongest check: maximum reachable target index stays below split
        starts = np.full(8, corpus.split - 16 - 1)
        offsets = starts[:, None] + np.arange(16)
        assert offsets.max() + 1 <= corpus.split - 1

    def test_sample_window_bounds_hold_over_many_draws(self):
        raw = bytes([0]) * 80 + bytes([255]) * 20  # validation region is all 255
        corpus = Corpus.from_bytes(raw, val_fraction=0.2)
        rng = np.random.default_rng(1)
        for _ in range(500):
            x, y = corpus.sample_windows(rng, batch=2, seq_len=8)
            assert np.all(x != 255) and np.all(y != 255)

    def test_val_windows_cover_validation_only(self):
        raw = bytes([1]) * 90 + bytes([2]) * 30
        corpus = Corpus.from_bytes(raw, val_fraction=0.25)
        windows = corpus.val_windows(seq_len=8)
        assert len(windows) == 3
        for x, y in windows:
            assert np.all(x == 2) and np.all(y == 2)

    def test_val_windows_are_read_only_views_equal_to_per_window_copies(self):
        corpus = Corpus.synthetic(20000, seed=2)
        windows = corpus.val_windows(seq_len=64)
        starts = range(corpus.split, len(corpus.stream) - 64, 64)
        assert len(windows) == len(starts) == 31
        for (x, y), start in zip(windows, starts):
            want_x = corpus.stream[start : start + 64].astype(np.int64)
            want_y = corpus.stream[start + 1 : start + 65].astype(np.int64)
            assert x.dtype == want_x.dtype and y.dtype == want_y.dtype
            np.testing.assert_array_equal(x, want_x)
            np.testing.assert_array_equal(y, want_y)
        with pytest.raises(ValueError, match="read-only"):
            windows[0][0][0] = 1

    def test_too_small_training_region_errors(self):
        corpus = Corpus.from_bytes(b"ab" * 10, val_fraction=0.5)
        with pytest.raises(ValueError):
            corpus.sample_windows(np.random.default_rng(0), batch=1, seq_len=50)
