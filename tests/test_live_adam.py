"""train_step's live-row Adam against a dense reference Adam, bitwise.

train_step holds every parameter's Adam moments as its live rows: rows with
a nonzero gradient this step plus rows with nonzero moments, and updates
only those. Every other row has zero gradient and zero moments, where dense
Adam changes no bit, so parameters and moments must match the dense loop
below exactly, for every middle-layer kind and however many rows are live,
and so must a checkpoint's bytes.
"""

import importlib

import numpy as np
import pytest

from peer_lab import tensor as T
from peer_lab.baselines import MoeConfig, PkmConfig
from peer_lab.data import Corpus
from peer_lab.model import ModelConfig, build_model
from peer_lab.peer import PeerConfig
from peer_lab.tensor import Tape, Tensor
from peer_lab.checkpoint import load_checkpoint, save_checkpoint
from peer_lab.train import Moments, RowMoments, TrainConfig, TrainState, init_train_state, load_train_checkpoint, save_train_checkpoint, train_step

# the module, not the train() function that peer_lab re-exports under that name
train_mod = importlib.import_module("peer_lab.train")
CFG = TrainConfig(batch=2, lr=1e-2, warmup=2, seed=3)
EXPERTS = ("peer.experts.down", "peer.experts.up")


def peer_config(n_experts: int = 32 * 32) -> ModelConfig:
    # 16 tokens x 2 heads x top-2 retrieve at most 64 of the 1024 experts per step
    return tiny_config("peer", PeerConfig(n_experts=n_experts, heads=2, topk=2, d_model=8, query_dim=8))


def tiny_config(kind: str, middle=None) -> ModelConfig:
    return ModelConfig(
        n_blocks=1,
        d_model=8,
        n_attn_heads=2,
        d_ff=16,
        seq_len=8,
        middle_layer=kind,
        middle_config=middle,
        seed=0,
        dtype="float32",
    )


MIDDLES = {
    "dense": None,
    "pkm": PkmConfig(n_memories=32 * 32, heads=2, topk=2, d_model=8, query_dim=8),
    "peer": peer_config().middle_config,
    "moe": MoeConfig(n_experts=2, d_model=8, d_ff=16, granularity=1),
}


def corpus() -> Corpus:
    return Corpus.synthetic(20_000, seed=1)


def dense_adam_step(model, loss_fn, data, rng, moments, step):
    """The reference: backward, then Adam over every row of every parameter."""
    x, y = data.sample_windows(rng, CFG.batch, model.config.seq_len)
    params = model.named_parameters()
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        tape.backward(loss_fn(x, y))
    lr_t = CFG.lr * min(1.0, step / max(1, CFG.warmup))
    b1, b2 = CFG.beta1, CFG.beta2
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = moments[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= (lr_t / (1.0 - b1**step)) * m / (np.sqrt(v / (1.0 - b2**step)) + CFG.eps)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def every_row(moments: dict) -> Moments:
    """The reference's dense (m, v) arrays as Moments that hold every row live."""
    return Moments({n: RowMoments(m.shape, m.dtype, np.arange(m.shape[0]), m, v) for n, (m, v) in moments.items()})


def assert_same_state(model, moments, ref_model, ref_moments):
    ref_params = ref_model.named_parameters()
    for name, p in model.named_parameters().items():
        assert same_bits(p.data, ref_params[name].data), name
        assert same_bits(moments[name][0], ref_moments[name][0]), f"m {name}"
        assert same_bits(moments[name][1], ref_moments[name][1]), f"v {name}"


@pytest.fixture
def adam_calls(monkeypatch):
    """Leading dims of every array train_step hands to Adam."""
    shapes = []
    original = train_mod._adam

    def spy(p, *args):
        shapes.append(p.shape)
        return original(p, *args)

    monkeypatch.setattr(train_mod, "_adam", spy)
    return shapes


class TestPeerModel:
    def test_steps_equal_dense_adam_and_untouched_rows_stay_zero(self, adam_calls, tmp_path):
        model, ref = build_model(peer_config()), build_model(peer_config())
        data = corpus()
        initial = {name: p.data.copy() for name, p in model.named_parameters().items()}
        state = init_train_state(model, CFG)
        ref_moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in ref.named_parameters().items()}
        ref_rng = np.random.default_rng(CFG.seed)
        touched = {name: set() for name in EXPERTS}

        for step in range(1, 7):
            train_step(model, data, state, CFG)
            dense_adam_step(ref, ref.loss, data, ref_rng, ref_moments, step)
            assert_same_state(model, state.moments, ref, ref_moments)
            for name in EXPERTS:
                p = model.named_parameters()[name]
                assert p.grad.shape == p.data.shape  # still a dense array for callers that read it
                touched[name].update(np.flatnonzero(p.grad.any(axis=1)).tolist())

        n = peer_config().middle_config.n_experts
        assert any(shape[0] < n / 2 for shape in adam_calls)  # the live-row path ran
        for name in EXPERTS:
            never = np.setdiff1d(np.arange(n), sorted(touched[name]))
            assert 0 < len(touched[name]) < n / 2 and never.size > n / 2
            m, v = state.moments[name]
            assert not m[never].any() and not v[never].any()
            assert same_bits(model.named_parameters()[name].data[never], initial[name][never])

        # a checkpoint of the row-held moments has the bytes of the dense reference's
        assert all(isinstance(state.moments.held[name], RowMoments) for name in EXPERTS)
        save_train_checkpoint(tmp_path / "rows.bin", model, state)
        dense_state = TrainState(step=state.step, moments=every_row(ref_moments), rng=ref_rng, running_loss=state.running_loss)
        save_train_checkpoint(tmp_path / "dense.bin", ref, dense_state)
        assert (tmp_path / "rows.bin").read_bytes() == (tmp_path / "dense.bin").read_bytes()

    def test_resume_mid_run_equals_uninterrupted(self, tmp_path):
        data = corpus()
        full = build_model(peer_config())
        full_state = init_train_state(full, CFG)
        for _ in range(6):
            train_step(full, data, full_state, CFG)

        first = build_model(peer_config())
        first_state = init_train_state(first, CFG)
        for _ in range(3):
            train_step(first, data, first_state, CFG)
        save_train_checkpoint(tmp_path / "mid.bin", first, first_state)

        resumed = build_model(peer_config())
        state = load_train_checkpoint(tmp_path / "mid.bin", resumed)
        for name in EXPERTS:
            # not saved: rebuilt from the rows of the stored moments with a bit set
            m, v = first_state.moments[name]
            assert np.array_equal(state.moments.held[name].ids, np.flatnonzero(m.any(axis=1) | v.any(axis=1)))
        for _ in range(3):
            train_step(resumed, data, state, CFG)
        assert_same_state(resumed, state.moments, full, full_state.moments)
        for name in EXPERTS:
            # no wider than the uninterrupted run's live rows
            ids = state.moments.held[name].ids
            assert ids.size and np.isin(ids, full_state.moments.held[name].ids).all()

    def test_resume_from_tables_with_most_rows_live_equals_uninterrupted(self, tmp_path):
        # 16 experts: 16 tokens x 2 heads x top-2 make most of each table live at once
        data = corpus()
        full = build_model(peer_config(4 * 4))
        full_state = init_train_state(full, CFG)
        for _ in range(6):
            train_step(full, data, full_state, CFG)

        first = build_model(peer_config(4 * 4))
        first_state = init_train_state(first, CFG)
        for _ in range(3):
            train_step(first, data, first_state, CFG)
        for name in EXPERTS:
            assert first_state.moments.held[name].ids.size > 16 / 2
        save_train_checkpoint(tmp_path / "mid.bin", first, first_state)

        resumed = build_model(peer_config(4 * 4))
        state = load_train_checkpoint(tmp_path / "mid.bin", resumed)
        for _ in range(3):
            train_step(resumed, data, state, CFG)
        assert_same_state(resumed, state.moments, full, full_state.moments)
        save_train_checkpoint(tmp_path / "resumed.bin", resumed, state)
        save_train_checkpoint(tmp_path / "full.bin", full, full_state)
        assert (tmp_path / "resumed.bin").read_bytes() == (tmp_path / "full.bin").read_bytes()


@pytest.mark.parametrize("kind", sorted(MIDDLES))
def test_every_kind_steps_and_checkpoints_equal_dense_adam(kind, tmp_path):
    model, ref = build_model(tiny_config(kind, MIDDLES[kind])), build_model(tiny_config(kind, MIDDLES[kind]))
    data = corpus()
    state = init_train_state(model, CFG)
    ref_moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in ref.named_parameters().items()}
    ref_rng = np.random.default_rng(CFG.seed)
    for step in range(1, 5):
        train_step(model, data, state, CFG)
        dense_adam_step(ref, ref.loss, data, ref_rng, ref_moments, step)
        assert_same_state(model, state.moments, ref, ref_moments)
    assert all(isinstance(held, RowMoments) for held in state.moments.held.values())
    save_train_checkpoint(tmp_path / "rows.bin", model, state)
    dense_state = TrainState(step=state.step, moments=every_row(ref_moments), rng=ref_rng, running_loss=state.running_loss)
    save_train_checkpoint(tmp_path / "dense.bin", ref, dense_state)
    assert (tmp_path / "rows.bin").read_bytes() == (tmp_path / "dense.bin").read_bytes()


class TableModel:
    """One embedding table and a 1-d vector; the test picks per step how the
    loss uses the table: through gather_rows, not at all, or through
    gather_rows plus a dense term on its first 8 rows ("head") or on every
    row ("all")."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.config = ModelConfig(n_blocks=1, d_model=4, n_attn_heads=1, d_ff=8, seq_len=4, middle_layer="dense")
        self.table = Tensor(rng.normal(size=(256, 4)), requires_grad=True)
        self.vec = Tensor(rng.normal(size=4), requires_grad=True)
        self.use = "gather"

    def named_parameters(self):
        return {"table": self.table, "vec": self.vec}

    def named_state(self):
        return {}

    def load_tensors(self, tensors):
        for name, p in self.named_parameters().items():
            p.data = tensors[name].copy()

    def loss(self, x, y, mode="train"):
        loss = T.sum_all(T.mul(self.vec, self.vec))
        if self.use != "none":
            rows = T.gather_rows(self.table, x.reshape(-1))
            loss = T.add(loss, T.sum_all(T.mul(rows, T.reshape(self.vec, (1, 4)))))
        if self.use in ("head", "all"):
            # gradient: the rows themselves, so nonzero on every row it covers
            part = T.row_slice(self.table, 0, 8) if self.use == "head" else self.table
            loss = T.add(loss, T.mul(T.sum_all(T.mul(part, part)), Tensor(0.5, dtype=part.data.dtype)))
        return loss


def test_table_without_gradient_and_mixed_gradient(adam_calls):
    # bytes 97..100 touch 4 of 256 rows, until a dense gradient on every row
    # makes all 256 live
    data = Corpus.from_bytes(b"abcd" * 512)
    model, ref = TableModel(), TableModel()
    state = init_train_state(model, CFG)
    ref_moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in ref.named_parameters().items()}
    ref_rng = np.random.default_rng(CFG.seed)
    schedule = ["gather", "gather", "none", "head", "gather", "none", "gather", "all", "gather", "none"]
    for step, use in enumerate(schedule, start=1):
        model.use = ref.use = use
        adam_calls.clear()
        train_step(model, data, state, CFG)
        dense_adam_step(ref, ref.loss, data, ref_rng, ref_moments, step)
        assert_same_state(model, state.moments, ref, ref_moments)
        table_rows = adam_calls[0][0]
        if use == "none":
            assert model.table.grad is None
        if step >= 8:
            # every row has a nonzero gradient at step 8 and nonzero moments after it
            assert table_rows == 256
        else:
            # live rows: the 4 byte rows, plus rows 0..7 once the "head" step set their moments
            assert table_rows == (4 if step < 4 else 12)


def test_negative_zero_moment_makes_its_row_live(tmp_path):
    # dense Adam turns a -0.0 moment on a row with zero gradient into +0.0, so
    # a checkpoint load must keep that row live although all its values
    # compare equal to zero
    data = Corpus.from_bytes(b"abcd" * 512)
    model, ref = TableModel(), TableModel()
    path = tmp_path / "ckpt.bin"
    save_train_checkpoint(path, model, init_train_state(model, CFG))
    tensors = load_checkpoint(path)
    tensors["opt.m.table"][200] = -0.0
    save_checkpoint(path, tensors)
    state = load_train_checkpoint(path, model)
    assert state.moments.held["table"].ids.tolist() == [200]
    ref_moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in ref.named_parameters().items()}
    ref_moments["table"][0][200] = -0.0
    train_step(model, data, state, CFG)
    dense_adam_step(ref, ref.loss, data, np.random.default_rng(CFG.seed), ref_moments, 1)
    assert_same_state(model, state.moments, ref, ref_moments)
    assert not np.signbit(state.moments["table"][0][200]).any()
