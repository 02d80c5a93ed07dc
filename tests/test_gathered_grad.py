"""Gradients of gathered tables: summation order, aliasing, and the row ids
train_step's Adam reads.

The table adjoint of gather_rows, gather_dot and gather_weighted_sum adds
weight * operand row into each named table row. Its bits must equal a
sequential Python loop over the entries in (token, slot) order, on random
float32 values, where a different order would round differently.
"""

import tracemalloc

import numpy as np
import pytest
from test_live_adam import CFG, assert_same_state, dense_adam_step

from peer_lab import tensor as T
from peer_lab.data import Corpus
from peer_lab.model import ModelConfig
from peer_lab.tensor import Tape, Tensor
from peer_lab.train import init_train_state, train_step


def loop_oracle(n_rows, idx, operand, weights):
    """out[idx[i, j]] += weights[i, j] * operand[i], one entry at a time."""
    out = np.zeros((n_rows,) + operand.shape[1:], dtype=operand.dtype)
    for i in range(idx.shape[0]):
        for j in range(idx.shape[1]):
            out[idx[i, j]] += weights[i, j] * operand[i]
    return out


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def gathered_case(rng, n_rows, m, k, d):
    idx = rng.integers(0, n_rows, size=(m, k))
    idx[::3, 1] = idx[::3, 0]  # one id twice within a token, like two experts sharing a sub-key
    table = Tensor(rng.normal(size=(n_rows, d)).astype(np.float32), requires_grad=True)
    return idx, table


# (rows, tokens, ids per token): 12 and 3000 entries sit on both sides of the
# 64 entries where the previous scatter switched from np.add.at to reduceat
SIZES = [(16, 3, 4), (64, 750, 4), (4096, 750, 4), (16, 12, 1), (16, 3000, 1)]


@pytest.mark.parametrize("n_rows,m,k", SIZES)
def test_gather_rows_table_gradient_is_the_sequential_sum(n_rows, m, k):
    rng = np.random.default_rng(n_rows + m)
    idx, table = gathered_case(rng, n_rows, m, max(k, 2), 8)
    idx = idx[:, :k]
    g = rng.normal(size=idx.shape + (8,)).astype(np.float32)
    with Tape() as tape:
        tape.backward(T.gather_rows(table, idx), grad=g)
    flat = idx.reshape(-1, 1)
    assert same_bits(table.grad, loop_oracle(n_rows, flat, g.reshape(-1, 8), np.ones(flat.shape, np.float32)))
    assert same_bits(table.grad_ids, np.unique(idx))


@pytest.mark.parametrize("n_rows,m,k", [s for s in SIZES if s[2] > 1])
def test_gather_dot_table_gradient_is_the_sequential_sum(n_rows, m, k):
    rng = np.random.default_rng(n_rows + m)
    idx, table = gathered_case(rng, n_rows, m, k, 8)
    x = Tensor(rng.normal(size=(m, 8)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(m, k)).astype(np.float32)
    with Tape() as tape:
        tape.backward(T.gather_dot(x, table, idx), grad=g)
    assert same_bits(table.grad, loop_oracle(n_rows, idx, x.data, g))
    assert same_bits(table.grad_ids, np.unique(idx))
    assert not table.grad[np.setdiff1d(np.arange(n_rows), idx)].any()


@pytest.mark.parametrize("n_rows,m,k", [s for s in SIZES if s[2] > 1])
def test_gather_weighted_sum_table_gradient_is_the_sequential_sum(n_rows, m, k):
    rng = np.random.default_rng(n_rows + m)
    idx, table = gathered_case(rng, n_rows, m, k, 8)
    w = Tensor(rng.normal(size=(m, k)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(m, 8)).astype(np.float32)
    with Tape() as tape:
        tape.backward(T.gather_weighted_sum(w, table, idx), grad=g)
    assert same_bits(table.grad, loop_oracle(n_rows, idx, g, w.data))
    assert same_bits(table.grad_ids, np.unique(idx))


def test_empty_gather_leaves_a_zero_gradient():
    table = Tensor(np.ones((5, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.gather_rows(table, np.zeros((0, 2), dtype=np.int64)), grad=np.zeros((0, 2, 3)))
    assert np.array_equal(table.grad, np.zeros((5, 3))) and table.grad_ids.size == 0


@pytest.mark.parametrize("order", ["rows+rows", "rows+dense", "dense+rows"])
def test_two_contributions_sum_like_dense_buffers(order):
    # a gathered adjoint's sums are held as rows; adding a second contribution
    # must give the bits of adding the dense buffers, and a zero buffer turns a
    # dense -0.0 into +0.0 on every row
    rng = np.random.default_rng(7)
    n_rows = 64
    table = Tensor(np.zeros((n_rows, 3), np.float32), requires_grad=True)
    idx_a, idx_b = rng.integers(0, 16, size=(20, 2)), rng.integers(8, 24, size=(20, 2))
    x_a, x_b = rng.normal(size=(20, 3)).astype(np.float32), rng.normal(size=(20, 3)).astype(np.float32)
    x_a[:4] = -0.0
    w_a, w_b = rng.normal(size=(20, 2)).astype(np.float32), rng.normal(size=(20, 2)).astype(np.float32)
    buf_a, buf_b = loop_oracle(n_rows, idx_a, x_a, w_a), loop_oracle(n_rows, idx_b, x_b, w_b)
    dense = rng.normal(size=(n_rows, 3)).astype(np.float32)
    dense[::3] = -0.0
    if order == "rows+rows":
        T.scatter_add_into(table.node, idx_a, x_a, w_a)
        T.scatter_add_into(table.node, idx_b, x_b, w_b)
        assert same_bits(table.grad_ids, np.union1d(idx_a, idx_b)) and table.grad_rows is not None
        want = buf_a + buf_b
    elif order == "rows+dense":
        T.scatter_add_into(table.node, idx_a, x_a, w_a)
        T._accum(table.node, dense)
        want = buf_a + dense
    else:
        T._accum(table.node, dense)
        T.scatter_add_into(table.node, idx_a, x_a, w_a)
        want = dense + buf_a
    assert same_bits(table.grad, want)
    assert not (np.signbit(table.grad) & (table.grad == 0)).any()


def test_forward_equals_gather_then_contract():
    rng = np.random.default_rng(0)
    idx, table = gathered_case(rng, 64, 40, 4, 8)
    x = Tensor(rng.normal(size=(40, 8)).astype(np.float32))
    w = Tensor(rng.normal(size=(40, 4)).astype(np.float32))
    rows = table.data[idx]
    assert same_bits(T.gather_dot(x, table, idx).data, np.einsum("md,mkd->mk", x.data, rows))
    assert same_bits(T.gather_weighted_sum(w, table, idx).data, np.einsum("mk,mkd->md", w.data, rows))
    with pytest.raises(IndexError):
        T.gather_dot(x, table, idx + 64)
    with pytest.raises(ValueError, match="shape mismatch"):
        T.gather_weighted_sum(w, table, idx[:, :3])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [1, 255, 256, 257, 1000])
def test_row_tiles_give_the_one_shot_einsum_bits(m, dtype):
    # the forward and w's adjoint contract GATHER_TILE rows at a time: one
    # row, a tile, a row either side of a tile's end, and several tiles
    assert T.GATHER_TILE == 256
    rng = np.random.default_rng(m)
    idx = rng.integers(0, 300, size=(m, 16))
    table = Tensor(rng.normal(size=(300, 64)).astype(dtype))
    x = Tensor(rng.normal(size=(m, 64)).astype(dtype))
    w = Tensor(rng.normal(size=(m, 16)).astype(dtype), requires_grad=True)
    g = rng.normal(size=(m, 64)).astype(dtype)
    rows = table.data[idx]
    assert same_bits(T.gather_dot(x, table, idx).data, np.einsum("md,mkd->mk", x.data, rows))
    with Tape() as tape:
        out = T.gather_weighted_sum(w, table, idx)
        tape.backward(out, g)
    assert same_bits(out.data, np.einsum("mk,mkd->md", w.data, rows))
    assert same_bits(w.grad, np.einsum("md,mkd->mk", g, rows))


@pytest.mark.parametrize("op", ["gather_dot", "gather_weighted_sum"])
def test_no_whole_gather_exists_in_the_forward_or_the_operand_adjoint(op):
    m, k, d = 4096, 16, 64
    gather_bytes = m * k * d * 4  # 16 MiB of float32
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 4096, size=(m, k))
    table = Tensor(rng.normal(size=(4096, d)).astype(np.float32))
    operand = Tensor(rng.normal(size=(m, d if op == "gather_dot" else k)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(m, k if op == "gather_dot" else d)).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = getattr(T, op)(operand, table, idx)
            forward = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            tape.backward(out, g)
            backward = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward < gather_bytes // 2, f"forward peak {forward / 2**20:.1f} MiB"
    assert backward < gather_bytes // 2, f"adjoint peak {backward / 2**20:.1f} MiB"
    assert operand.grad is not None


def test_a_later_contribution_leaves_an_aliased_gradient_alone():
    # add hands one array to both inputs; b's gradient must not see the
    # contribution that a receives afterwards through the mul
    rng = np.random.default_rng(0)
    a, b = Tensor(rng.normal(size=(3, 4)), requires_grad=True), Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 4)))
    with Tape() as tape:
        late = T.sum_all(T.mul(a, c))
        early = T.sum_all(T.add(a, b))
        tape.backward(T.add(early, late))
    assert np.array_equal(b.grad, np.ones((3, 4)))
    assert np.array_equal(a.grad, 1.0 + c.data)


def test_backward_does_not_alias_the_seed():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    seed = np.arange(6.0)
    with Tape() as tape:
        tape.backward(T.reshape(x, (6,)), grad=seed)
    seed[:] = -1.0
    assert np.array_equal(x.grad, np.arange(6.0).reshape(2, 3))


class DotTableModel:
    """A 256-row table read through gather_dot; per step the test adds a
    second gathered read ("two") or a dense term on rows 0..7 ("dense")."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.config = ModelConfig(n_blocks=1, d_model=4, n_attn_heads=1, d_ff=8, seq_len=4, middle_layer="dense")
        self.table = Tensor(rng.normal(size=(256, 4)), requires_grad=True)
        self.query = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        self.use = "dot"

    def named_parameters(self):
        return {"table": self.table, "query": self.query}

    def loss(self, x, y, mode="train"):
        ids = x.reshape(4, -1)
        loss = T.sum_all(T.gather_dot(self.query, self.table, ids))
        if self.use == "two":
            loss = T.add(loss, T.sum_all(T.gather_weighted_sum(T.gather_dot(self.query, self.table, ids), self.table, ids + 100)))
        if self.use == "dense":
            head = T.row_slice(self.table, 0, 8)
            loss = T.add(loss, T.mul(T.sum_all(T.mul(head, head)), Tensor(0.5, dtype=head.data.dtype)))
        return loss


def test_adam_reads_row_ids_and_scans_a_mixed_gradient():
    # bytes 97..100 name 4 of 256 rows; "two" adds rows 197..200, and "dense"
    # a gradient on rows 0..7 that the ids do not name, so those rows are
    # updated only if train_step scans the gradient
    data = Corpus.from_bytes(b"abcd" * 512)
    model, ref = DotTableModel(), DotTableModel()
    state = init_train_state(model, CFG)
    ref_moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in ref.named_parameters().items()}
    ref_rng = np.random.default_rng(CFG.seed)
    expected_ids = {"dot": np.arange(97, 101), "two": np.r_[97:101, 197:201], "dense": None}
    for step, use in enumerate(["dot", "two", "dense", "dot", "dense"], start=1):
        model.use = ref.use = use
        train_step(model, data, state, CFG)
        dense_adam_step(ref, ref.loss, data, ref_rng, ref_moments, step)
        assert_same_state(model, state.moments, ref, ref_moments)
        if expected_ids[use] is None:
            assert model.table.grad_ids is None
        else:
            assert np.array_equal(model.table.grad_ids, expected_ids[use])
    assert np.array_equal(state.moments.held["table"].ids, np.r_[0:8, 97:101, 197:201])
