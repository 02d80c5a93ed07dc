import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from peer_lab import analysis
from peer_lab import tensor as T
from peer_lab.baselines import DenseConfig, MoeConfig, PkmConfig
from peer_lab.checkpoint import load_checkpoint, save_checkpoint
from peer_lab.data import Corpus
from peer_lab.config import default_config
from peer_lab.model import ModelConfig, build_model, model_config_from_flat
from peer_lab.peer import PeerConfig, PeerRouting
from peer_lab.train import (
    TrainConfig,
    TrainingDiverged,
    evaluate_perplexity,
    init_train_state,
    load_train_checkpoint,
    save_train_checkpoint,
    train,
)

train_module = importlib.import_module("peer_lab.train")  # `peer_lab.train` is the function


def tiny_config(middle="dense", **kw):
    defaults = dict(
        n_blocks=2,
        d_model=16,
        n_attn_heads=2,
        d_ff=32,
        seq_len=32,
        activation="gelu",
        middle_layer=middle,
        seed=0,
        dtype="float32",
    )
    if middle == "peer":
        defaults["middle_config"] = PeerConfig(n_experts=64, heads=2, topk=2, d_model=16, query_dim=8)
    elif middle == "pkm":
        defaults["middle_config"] = PkmConfig(n_memories=64, heads=2, topk=2, d_model=16, query_dim=8)
    elif middle == "moe":
        defaults["middle_config"] = MoeConfig(n_experts=2, d_model=16, d_ff=32, granularity=1)
    defaults.update(kw)
    return ModelConfig(**defaults)


def periodic_corpus(n=8192):
    return Corpus.from_bytes(b"abcd" * (n // 4), val_fraction=0.1)


class TestBuildModel:
    def test_middle_block_index(self):
        assert tiny_config().middle_index == 1
        assert ModelConfig(n_blocks=12, d_model=16, n_attn_heads=2, d_ff=32, seq_len=8).middle_index == 6
        assert ModelConfig(n_blocks=1, d_model=16, n_attn_heads=2, d_ff=32, seq_len=8).middle_index == 0

    def test_peer_sits_in_middle_block(self):
        model = build_model(tiny_config("peer"))
        names = model.named_parameters()
        assert "peer.subkeys.c" in names and "peer.experts.down" in names
        assert "block1.ffw.w_in" not in names
        assert "block0.ffw.w_in" in names

    def test_swap_changes_only_middle_layer(self):
        dense = build_model(tiny_config("dense"))
        peer = build_model(tiny_config("peer"))
        dense_params = dense.named_parameters()
        peer_params = peer.named_parameters()
        shared = set(dense_params) & set(peer_params)
        assert "embed.tok" in shared and "block1.attn.wq" in shared
        for name in shared:
            assert np.array_equal(dense_params[name].data, peer_params[name].data), name
        only_dense = set(dense_params) - set(peer_params)
        only_peer = set(peer_params) - set(dense_params)
        assert all(n.startswith("dense.") for n in only_dense)
        assert all(n.startswith("peer.") for n in only_peer)

    def test_deterministic_per_seed(self):
        a = build_model(tiny_config("peer"))
        b = build_model(tiny_config("peer"))
        for name, p in a.named_parameters().items():
            assert np.array_equal(p.data, b.named_parameters()[name].data)

    @pytest.mark.parametrize("middle", ["dense", "peer", "pkm", "moe"])
    def test_param_count_matches_accounting(self, middle):
        model = build_model(tiny_config(middle))
        # independent count: sum every serialized tensor size
        by_hand = sum(p.data.size for p in model.named_parameters().values())
        by_hand += sum(a.size for a in model.named_state().values())
        assert model.n_params() == by_hand
        layer_names = [n for n in list(model.named_parameters()) + list(model.named_state()) if n.startswith(f"{middle}.")]
        layer_total = sum(
            (model.named_parameters() | {k: None for k in ()}).get(n, None).data.size
            if n in model.named_parameters()
            else model.named_state()[n].size
            for n in layer_names
        )
        assert layer_total == model.config.middle_config.param_counts().total

    def test_middle_config_of_another_kind_rejected(self):
        with pytest.raises(ValueError, match="'pkm' needs a PkmConfig, got a middle_config of type DenseConfig"):
            tiny_config("pkm", middle_config=DenseConfig(d_model=16, d_ff=32))

    def test_middle_config_of_another_width_rejected(self):
        with pytest.raises(ValueError, match=r"middle_config\.d_model 64 != d_model 16"):
            tiny_config("peer", middle_config=PeerConfig(n_experts=64, heads=2, topk=2, d_model=64, query_dim=8))

    def test_bad_vocab_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(n_blocks=1, d_model=16, n_attn_heads=2, d_ff=32, seq_len=8, vocab=1000)

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype must be one of"):
            tiny_config(dtype="float16")

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation must be one of"):
            tiny_config(activation="tanh")

    def test_block_layout(self):
        config = tiny_config("peer", n_blocks=3)
        assert config.ffw_config(1) is config.middle_config
        for i in (0, 2):
            assert config.ffw_config(i) == DenseConfig(d_model=16, d_ff=32, activation="gelu")
        model = build_model(config)
        assert [block.ffw.config for block in model.blocks] == [config.ffw_config(i) for i in range(3)]


class TestForward:
    def test_logit_shape_and_finite(self):
        model = build_model(tiny_config("peer"))
        tokens = np.random.default_rng(0).integers(0, 256, size=(2, 8))
        logits, routing = model.forward(tokens, mode="train")
        assert logits.data.shape == (16, 256)
        assert np.all(np.isfinite(logits.data))
        assert routing.indices.shape == (16, 2, 2)

    def test_untrained_model_uniform_logits(self):
        model = build_model(tiny_config())
        corpus = periodic_corpus()
        assert evaluate_perplexity(model, corpus) == pytest.approx(256.0, rel=1e-6)
        model64 = build_model(tiny_config(dtype="float64"))
        assert evaluate_perplexity(model64, corpus) == pytest.approx(256.0, rel=1e-12)

    @pytest.mark.parametrize("middle", ["dense", "pkm", "peer", "moe"])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_routing_echo_of_the_middle_layer(self, middle, mode):
        model = build_model(tiny_config(middle))
        tokens = np.random.default_rng(0).integers(0, 256, size=(2, 8))
        _, routing = model.forward(tokens, mode=mode)
        if middle in ("dense", "moe"):
            assert routing is None
        else:
            assert isinstance(routing, PeerRouting)
            assert routing.indices.shape == routing.weights.shape == (16, 2, 2)
            assert routing.n_experts == 64

    @pytest.mark.parametrize("middle", ["dense", "pkm", "peer", "moe"])
    def test_unknown_mode_fails_by_name_for_every_kind(self, middle):
        model = build_model(tiny_config(middle))
        with pytest.raises(ValueError, match=r"^mode must be one of \('train', 'infer'\), got 'eval'$"):
            model.forward(np.zeros((1, 4), dtype=np.int64), mode="eval")

    @pytest.mark.parametrize("middle,nodes", [("peer", 47), ("pkm", 44), ("dense", 39), ("moe", 67)])
    def test_desk_loss_forward_tape_nodes(self, middle, nodes):
        model = build_model(model_config_from_flat({**default_config(), "model.middle_layer": middle}))
        tokens = np.random.default_rng(0).integers(0, 256, size=(2, 8))
        with T.Tape() as tape:
            loss = model.loss(tokens[:, :-1], tokens[:, 1:])
        assert len(tape) == nodes
        outputs = [out for out, _ in tape._records]
        tape.backward(loss)
        # backward drops the records and the op outputs' gradients, not the count
        assert len(tape) == nodes
        assert all(t.grad is None and t.grad_rows is None for t in outputs)
        assert all(p.grad is not None for p in model.named_parameters().values())  # leaves keep theirs

    @pytest.mark.parametrize("middle", ["dense", "pkm", "peer", "moe"])
    def test_later_tokens_leave_earlier_logits_bitwise_unchanged(self, middle):
        for seed in (0, 1):
            model = build_model(model_config_from_flat({**default_config(), "model.middle_layer": middle, "model.seq_len": 64, "model.seed": seed}))
            rng = np.random.default_rng(seed)
            for p in model.named_parameters().values():  # move the zero-initialized output maps off zero
                p.data += rng.normal(0.0, 0.1, p.data.shape).astype(p.data.dtype)
            tokens = rng.integers(0, 256, size=(1, 64))
            ref, _ = model.forward(tokens, mode="infer")
            for j in (1, 17, 40, 63):
                changed = tokens.copy()
                changed[:, j:] = rng.integers(0, 256, size=(1, 64 - j))
                logits, _ = model.forward(changed, mode="infer")
                assert logits.data[:j].tobytes() == ref.data[:j].tobytes(), f"seed {seed}, j {j}"

    @pytest.mark.parametrize("middle", ["dense", "pkm", "peer", "moe"])
    def test_later_tokens_leave_earlier_logits_bitwise_unchanged_across_tiles(self, middle):
        # a 160-token window is three attention tiles; j lands on both sides
        # of each tile boundary
        t = 160
        assert 2 * T.ATTENTION_TILE < t < 3 * T.ATTENTION_TILE
        model = build_model(model_config_from_flat({**default_config(), "model.middle_layer": middle, "model.seq_len": t}))
        rng = np.random.default_rng(2)
        for p in model.named_parameters().values():  # move the zero-initialized output maps off zero
            p.data += rng.normal(0.0, 0.1, p.data.shape).astype(p.data.dtype)
        tokens = rng.integers(0, 256, size=(1, t))
        ref, _ = model.forward(tokens, mode="infer")
        for j in (63, 64, 65, 127, 128, 129, 159):
            changed = tokens.copy()
            changed[:, j:] = rng.integers(0, 256, size=(1, t - j))
            logits, _ = model.forward(changed, mode="infer")
            assert logits.data[:j].tobytes() == ref.data[:j].tobytes(), f"j {j}"

    def test_sequence_too_long_errors(self):
        model = build_model(tiny_config())
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 100), dtype=np.int64))

    @pytest.mark.parametrize("shape", [(1, 0), (0, 8), (0, 0)])
    def test_empty_tokens_error_by_shape(self, shape):
        model = build_model(tiny_config())
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            model.forward(np.zeros(shape, dtype=np.int64))


class TestTraining:
    def test_periodic_pattern_learned(self):
        # next byte of "abcd..." is a function of the current byte alone
        model = build_model(tiny_config("peer"))
        corpus = periodic_corpus()
        cfg = TrainConfig(steps=200, batch=8, lr=3e-3, warmup=20, seed=0)
        _, rows = train(model, corpus, cfg)
        assert rows[-1]["loss"] < 0.1
        assert evaluate_perplexity(model, corpus) < 1.2

    def test_zero_lr_leaves_parameters_untouched(self):
        model = build_model(tiny_config())
        corpus = periodic_corpus()
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        _, rows = train(model, corpus, TrainConfig(steps=3, batch=4, lr=0.0, seed=0))
        for n, p in model.named_parameters().items():
            assert np.array_equal(before[n], p.data), n
        # identical batches (same seed) then give identical losses
        model2 = build_model(tiny_config())
        _, rows2 = train(model2, corpus, TrainConfig(steps=3, batch=4, lr=0.0, seed=0))
        assert [r["loss"] for r in rows] == [r["loss"] for r in rows2]

    def test_metrics_csv(self, tmp_path):
        model = build_model(tiny_config())
        corpus = periodic_corpus()
        path = tmp_path / "metrics.csv"
        train(model, corpus, TrainConfig(steps=4, batch=4, lr=1e-3, seed=0), metrics_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,ppl,tokens_per_s,mac_per_token"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        assert int(first[4]) == analysis.model_param_macs_per_token(model.config)

    def test_metrics_csv_resume_from_older_checkpoint_keeps_each_step_once(self, tmp_path):
        corpus = periodic_corpus()
        path = tmp_path / "metrics.csv"
        cfg = TrainConfig(steps=6, batch=4, lr=1e-3, seed=0)
        model = build_model(tiny_config())
        state, _ = train(model, corpus, TrainConfig(steps=3, batch=4, lr=1e-3, seed=0), metrics_path=path)
        save_train_checkpoint(tmp_path / "step3.bin", model, state)
        train(model, corpus, cfg, state=state, metrics_path=path)  # the file now runs to step 6
        written = path.read_text().splitlines()

        resumed = build_model(tiny_config())
        train(resumed, corpus, cfg, state=load_train_checkpoint(tmp_path / "step3.bin", resumed), metrics_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,ppl,tokens_per_s,mac_per_token"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4, 5, 6]
        # rows up to the checkpoint are kept as written; the replayed ones have the same losses
        assert lines[:4] == written[:4]
        assert [line.split(",")[1] for line in lines[4:]] == [line.split(",")[1] for line in written[4:]]

    def test_metrics_csv_rows_kept_on_resume_are_on_disk_before_the_first_step(self, tmp_path, monkeypatch):
        corpus = periodic_corpus()
        path = tmp_path / "metrics.csv"
        model = build_model(tiny_config())
        state, _ = train(model, corpus, TrainConfig(steps=3, batch=4, lr=1e-3, seed=0), metrics_path=path)
        written = path.read_text()
        seen = []

        def killed(*args):
            # what a run killed during its first resumed step would leave behind
            seen.append(path.read_text())
            raise KeyboardInterrupt

        monkeypatch.setattr(train_module, "train_step", killed)
        with pytest.raises(KeyboardInterrupt):
            train(model, corpus, TrainConfig(steps=6, batch=4, lr=1e-3, seed=0), state=state, metrics_path=path)
        assert seen == [written]
        assert path.read_text() == written
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_nan_loss_aborts_with_diagnostic(self):
        model = build_model(tiny_config())
        model.lm_head.data[0, 0] = np.inf
        corpus = periodic_corpus()
        # the inf overflows on purpose, so numpy warns on the way to the abort
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDiverged, match="step"):
            train(model, corpus, TrainConfig(steps=2, batch=4, lr=1e-3, seed=0))

    def test_resume_is_bitwise_identical(self, tmp_path):
        corpus = periodic_corpus()
        cfg = TrainConfig(steps=8, batch=4, lr=1e-3, warmup=4, checkpoint_interval=4, seed=0)

        uninterrupted = build_model(tiny_config("peer"))
        _, rows_full = train(uninterrupted, corpus, cfg, checkpoint_path=tmp_path / "a.bin")

        resumed = build_model(tiny_config("peer"))
        # the interval checkpoint at step 4 was overwritten at the end; redo the first half
        first_half = build_model(tiny_config("peer"))
        half_cfg = TrainConfig(steps=4, batch=4, lr=1e-3, warmup=4, seed=0)
        half_state, _ = train(first_half, corpus, half_cfg)
        save_train_checkpoint(tmp_path / "half.bin", first_half, half_state)

        state = load_train_checkpoint(tmp_path / "half.bin", resumed)
        assert state.step == 4
        _, rows_resumed = train(resumed, corpus, cfg, state=state)
        assert [r["loss"] for r in rows_resumed] == [r["loss"] for r in rows_full[4:]]
        for name, p in uninterrupted.named_parameters().items():
            assert np.array_equal(p.data, resumed.named_parameters()[name].data), name
        for name, arr in uninterrupted.named_state().items():
            assert np.array_equal(arr, resumed.named_state()[name]), name


class TestStepMemory:
    def test_backward_peaks_near_the_forward_tape_and_leaves_only_leaf_gradients(self):
        # the desk-peer step, after warm steps: backward frees each op's saved
        # arrays and output gradient once its adjoint has run, so it peaks at
        # the forward tape plus one op's working set, and what it leaves with
        # the tape still in scope is the parameters' gradients
        cfg = {**default_config(), "model.middle_layer": "peer", "model.seed": 1}
        model = build_model(model_config_from_flat(cfg))
        corpus = Corpus.synthetic(1 << 20, seed=1)
        tcfg = TrainConfig(batch=16, warmup=1, seed=1)
        state = init_train_state(model, tcfg)
        for _ in range(2):
            train_module.train_step(model, corpus, state, tcfg)
        x, y = corpus.sample_windows(state.rng, tcfg.batch, model.config.seq_len)
        for p in model.named_parameters().values():
            p.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with T.Tape() as tape:
                loss = model.loss(x, y, mode="train")
                tape_bytes = tracemalloc.get_traced_memory()[0] - base
                tracemalloc.reset_peak()
                tape.backward(loss)
                held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * tape_bytes, f"backward peak {peak / 2**20:.1f} MiB over a {tape_bytes / 2**20:.1f} MiB tape"
        assert held < 4 << 20, f"{held / 2**20:.1f} MiB held after backward"


class TestCheckpointEntries:
    """Every parameter, state entry and Adam moment must be in the file with the model's shape."""

    @pytest.fixture
    def saved(self, tmp_path):
        model = build_model(tiny_config("peer"))
        state, _ = train(model, periodic_corpus(), TrainConfig(steps=2, batch=4, lr=1e-3, warmup=1, seed=0))
        save_train_checkpoint(tmp_path / "c.bin", model, state)
        return load_checkpoint(tmp_path / "c.bin")

    def test_state_loads_into_the_arrays_named_state_returns(self, saved):
        model = build_model(tiny_config("peer"))
        state = model.named_state()
        model.load_tensors(saved)
        for name, arr in state.items():
            assert np.array_equal(arr, saved[name]), name
            assert model.named_state()[name] is arr

    def test_parameters_load_into_their_own_arrays(self, saved):
        model = build_model(tiny_config("peer"))
        arrays = {name: p.data for name, p in model.named_parameters().items()}
        model.load_tensors(saved)
        for name, p in model.named_parameters().items():
            assert p.data is arrays[name], name
            assert p.data.dtype == np.float32 and np.array_equal(p.data, saved[name]), name

    def test_misshapen_state_raises(self, saved):
        saved["peer.bn.mean"] = saved["peer.bn.mean"][:1]
        with pytest.raises(ValueError, match=r"peer\.bn\.mean: checkpoint \(1,\) vs model \(8,\)"):
            build_model(tiny_config("peer")).load_tensors(saved)

    def test_missing_state_raises(self, saved):
        del saved["peer.bn.var"]
        with pytest.raises(ValueError, match="missing tensor 'peer.bn.var'"):
            build_model(tiny_config("peer")).load_tensors(saved)

    def test_misshapen_moments_raise(self, saved, tmp_path):
        saved["opt.m.peer.experts.down"] = saved["opt.m.peer.experts.down"][:3]
        save_checkpoint(tmp_path / "bad.bin", saved)
        with pytest.raises(ValueError, match=r"opt\.m\.peer\.experts\.down: checkpoint \(3, 16\) vs model \(64, 16\)"):
            load_train_checkpoint(tmp_path / "bad.bin", build_model(tiny_config("peer")))

    def test_missing_moments_raise(self, saved, tmp_path):
        del saved["opt.v.lm_head"]
        save_checkpoint(tmp_path / "bad.bin", saved)
        with pytest.raises(ValueError, match="missing tensor 'opt.v.lm_head'"):
            load_train_checkpoint(tmp_path / "bad.bin", build_model(tiny_config("peer")))

    def test_entries_the_model_does_not_read_raise(self, tmp_path):
        deeper = build_model(tiny_config("peer", n_blocks=3))
        save_train_checkpoint(tmp_path / "deep.bin", deeper, init_train_state(deeper, TrainConfig()), config_text="model.n_blocks=3\n")
        with pytest.raises(ValueError, match=r"checkpoint has 30 entries the model does not read: \['block2\.attn\.wk', .*'opt\.v\.block2\.ln2\.shift'\]$"):
            load_train_checkpoint(tmp_path / "deep.bin", build_model(tiny_config("peer")))

    def test_missing_step_raises(self, saved, tmp_path):
        del saved["train.step"]
        save_checkpoint(tmp_path / "bad.bin", saved)
        with pytest.raises(ValueError, match="missing tensor 'train.step'"):
            load_train_checkpoint(tmp_path / "bad.bin", build_model(tiny_config("peer")))

    def test_missing_rng_raises(self, saved, tmp_path):
        del saved["train.rng"]
        save_checkpoint(tmp_path / "bad.bin", saved)
        with pytest.raises(ValueError, match="missing tensor 'train.rng'"):
            load_train_checkpoint(tmp_path / "bad.bin", build_model(tiny_config("peer")))

    def test_misshapen_step_raises(self, saved, tmp_path):
        saved["train.step"] = np.full(3, 2, np.int64)
        save_checkpoint(tmp_path / "bad.bin", saved)
        with pytest.raises(ValueError, match=r"train\.step: checkpoint \(3,\) vs model \(\)"):
            load_train_checkpoint(tmp_path / "bad.bin", build_model(tiny_config("peer")))

    def test_misshapen_running_loss_raises(self, saved, tmp_path):
        saved["train.running_loss"] = np.zeros(2)
        save_checkpoint(tmp_path / "bad.bin", saved)
        with pytest.raises(ValueError, match=r"train\.running_loss: checkpoint \(2,\) vs model \(\)"):
            load_train_checkpoint(tmp_path / "bad.bin", build_model(tiny_config("peer")))

class TestPerplexity:
    def test_matches_independent_average(self):
        model = build_model(tiny_config("pkm"))
        corpus = Corpus.synthetic(20_000, seed=3)
        train(model, corpus, TrainConfig(steps=5, batch=4, lr=1e-3, seed=1))
        got = evaluate_perplexity(model, corpus)

        # second pass, reimplemented: accumulate -log p(target) from raw logits
        total, count = 0.0, 0
        for x, y in corpus.val_windows(model.config.seq_len):
            logits, _ = model.forward(x[None, :], mode="infer")
            probs = np.asarray(logits.data, dtype=np.float64)
            probs = np.exp(probs - probs.max(axis=-1, keepdims=True))
            probs /= probs.sum(axis=-1, keepdims=True)
            total += float(-np.log(probs[np.arange(len(y)), y]).sum())
            count += len(y)
        assert got == pytest.approx(math.exp(total / count), rel=1e-9)

    def test_empty_split_errors(self):
        model = build_model(tiny_config())
        corpus = Corpus.from_bytes(b"ab" * 200, val_fraction=0.0001)
        with pytest.raises(ValueError):
            evaluate_perplexity(model, corpus)

    @pytest.mark.parametrize("max_windows", [0, -1])
    def test_max_windows_below_one_fails_by_name(self, max_windows):
        model = build_model(tiny_config())
        with pytest.raises(ValueError, match=rf"^max_windows must be >= 1, got {max_windows}$"):
            evaluate_perplexity(model, periodic_corpus(), max_windows=max_windows)


class TestFullModelGradients:
    def test_tiny_model_finite_differences(self):
        mc = ModelConfig(
            n_blocks=1,
            d_model=8,
            n_attn_heads=2,
            d_ff=16,
            seq_len=8,
            activation="gelu",
            middle_layer="peer",
            middle_config=PeerConfig(n_experts=16, heads=2, topk=2, d_model=8, query_dim=8, activation="gelu", query_bn=True),
            seed=0,
            dtype="float64",
        )
        model = build_model(mc)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 256, size=(2, 4))
        targets = rng.integers(0, 256, size=(2, 4))

        def f():
            return model.loss(tokens, targets, mode="train")

        errors = T.grad_check(f, model.named_parameters(), step=1e-5, max_coords=4, seed=0)
        for name, err in errors.items():
            assert err <= 1e-3, f"{name}: rel err {err}"
