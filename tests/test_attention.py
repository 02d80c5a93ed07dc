"""causal_attention against a frozen copy of the unfused chain it replaced.

The chain split the [b,t,d] projections into [b*heads,t,hd] heads with
reshape/permute/reshape, then ran bmm(q, k^T) -> scale -> + mask ->
softmax -> bmm(p, v) over the full [t, t] block and merged the heads back;
its backward was the tape's adjoints of those ops in reverse. `_unfused`
repeats both in numpy, with the same expressions on the same operands.

The op walks each sequence's query rows in tiles of T.ATTENTION_TILE rows
and scores a tile ending at row hi against keys [0, hi) only. A window of
at most one tile runs the chain's operations on the chain's operands, so it
keeps the chain's bits. Longer windows sum rows over hi columns and add dk
and dv up across tiles, so they agree with the chain to rounding, within
the bound of `_rounding_tol`. Only the triangle's tiles are kept for
backward, and only while a tape records.
"""

import math
import tracemalloc

import numpy as np
import pytest

from peer_lab import tensor as T
from peer_lab.model import Model, ModelConfig
from peer_lab.tensor import MacMeter, Tape, Tensor


def _unfused(q, k, v, n_heads, mask, g):
    b, t, d = q.shape
    hd, G = d // n_heads, b * n_heads
    c = 1.0 / math.sqrt(hd)

    def split(x):  # reshape -> permute -> reshape, a view where numpy can make one
        return x.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3).reshape(G, t, hd)

    def merge(x):
        return x.reshape(b, n_heads, t, hd).transpose(0, 2, 1, 3).reshape(b * t, d).reshape(b, t, d)

    qh, kh, vh = split(q), split(k), split(v)
    a = np.matmul(qh, kh.swapaxes(1, 2)) * c + mask
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(y, vh))

    g1 = g.reshape(b * t, d).reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3).reshape(G, t, hd)
    d_att = np.matmul(g1, vh.swapaxes(1, 2))
    dv = np.matmul(y.swapaxes(1, 2), g1)
    d_scores = (y * (d_att - (d_att * y).sum(axis=-1, keepdims=True))) * c
    dq = np.matmul(d_scores, kh)
    dk = np.matmul(qh.swapaxes(1, 2), d_scores).swapaxes(1, 2)
    return out, merge(dq), merge(dk), merge(dv)


def _mask(t, dtype):
    return np.triu(np.full((t, t), -1e30, dtype=dtype), k=1)


def _fused(q, k, v, n_heads, g):
    qt, kt, vt = (Tensor(x, requires_grad=True) for x in (q, k, v))
    with Tape() as tape:
        out = T.causal_attention(qt, kt, vt, n_heads)
        tape.backward(out, grad=g)
    return out.data, qt.grad, kt.grad, vt.grad


def _inputs(rng, b, t, d, dtype):
    return [rng.normal(size=(b, t, d)).astype(dtype) for _ in range(4)]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _rounding_tol(t, dtype, want):
    # a sum of t terms taken in another order moves by at most about
    # t * eps of the magnitudes it adds; every value here is such a sum
    return t * np.finfo(dtype).eps * np.max(np.abs(want))


# (b, t, d, heads), each one tile (t <= T.ATTENTION_TILE): one sequence, one
# position, one head, one-column heads (alone, or in a single sequence), odd
# widths, and a full tile
SHAPES = [
    (1, 1, 1, 1),
    (1, 1, 8, 2),
    (3, 1, 6, 3),
    (1, 9, 4, 1),
    (3, 17, 1, 1),
    (1, 33, 3, 3),
    (2, 5, 4, 2),
    (2, 40, 12, 3),
    (3, 64, 16, 4),
]

# (b, t, d, heads) over several tiles: a 1-row last tile (65, 129), an
# 8-row one (200), one-column heads (70), and the desk block's shape (256)
MULTI_TILE_SHAPES = [
    (1, 65, 8, 2),
    (2, 129, 12, 3),
    (2, 200, 16, 4),
    (3, 70, 2, 2),
    (16, 256, 64, 4),
]


def test_shapes_are_one_tile_or_several():
    assert T.ATTENTION_TILE == 64
    assert all(t <= T.ATTENTION_TILE for _, t, _, _ in SHAPES)
    assert all(t > T.ATTENTION_TILE for _, t, _, _ in MULTI_TILE_SHAPES)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b,t,d,heads", SHAPES)
def test_output_and_gradients_have_the_unfused_bits(dtype, b, t, d, heads):
    rng = np.random.default_rng(b * 1000 + t * 10 + heads)
    q, k, v, g = _inputs(rng, b, t, d, dtype)
    mask = _mask(t, dtype)
    expected = _unfused(q, k, v, heads, mask, g)
    for name, got, want in zip(("out", "dq", "dk", "dv"), _fused(q, k, v, heads, g), expected):
        assert _same_bits(got, want), name
    untaped = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), heads)
    assert _same_bits(untaped.data, expected[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b,t,d,heads", MULTI_TILE_SHAPES)
def test_multi_tile_output_and_gradients_agree_to_rounding(dtype, b, t, d, heads):
    rng = np.random.default_rng(b * 1000 + t * 10 + heads)
    q, k, v, g = _inputs(rng, b, t, d, dtype)
    expected = _unfused(q, k, v, heads, _mask(t, dtype), g)
    got = _fused(q, k, v, heads, g)
    for name, x, want in zip(("out", "dq", "dk", "dv"), got, expected):
        assert x.shape == want.shape and x.dtype == want.dtype, name
        assert np.max(np.abs(x - want)) <= _rounding_tol(t, dtype, want), name
    untaped = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), heads)
    assert _same_bits(untaped.data, got[0])


@pytest.mark.parametrize("t", [1, 7, 31])
def test_model_mask_shorter_than_seq_len(t):
    # a block hands attention sequences of t < seq_len tokens, which the op
    # must mask with the [t, t] triangle
    block = Model(ModelConfig(n_blocks=1, d_model=8, n_attn_heads=2, d_ff=16, seq_len=32)).blocks[0]
    rng = np.random.default_rng(t)
    block.wo.data = rng.normal(size=(8, 8)).astype(np.float32)
    x = rng.normal(size=(3 * t, 8)).astype(np.float32)
    q, k, v = ((x @ w.data).reshape(3, t, 8) for w in (block.wq, block.wk, block.wv))
    out = _unfused(q, k, v, 2, _mask(t, np.float32), np.zeros_like(q))[0]
    assert _same_bits(block.attend(Tensor(x), t).data, out.reshape(3 * t, 8) @ block.wo.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_column_heads_across_sequences_agree_to_rounding(dtype):
    # The unfused chain copied such heads into contiguous [t, 1] columns,
    # while this op reads them in place with stride d. BLAS's matrix-vector
    # product sums a strided vector in another order, so dk and dv may move
    # in the last bits; out and dq take the same path either way.
    rng = np.random.default_rng(5)
    q, k, v, g = _inputs(rng, 3, 64, 2, dtype)
    mask = _mask(64, dtype)
    out, dq, dk, dv = _fused(q, k, v, 2, g)
    e_out, e_dq, e_dk, e_dv = _unfused(q, k, v, 2, mask, g)
    assert _same_bits(out, e_out) and _same_bits(dq, e_dq)
    tol = 64 * np.finfo(dtype).eps
    for got, want in ((dk, e_dk), (dv, e_dv)):
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_probabilities_kept_only_while_a_tape_records():
    b, heads, t, d = 4, 2, 64, 16
    probs_bytes = b * heads * t * t * 8
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.normal(size=(b, t, d)), requires_grad=True) for _ in range(3))

    def peak(record: bool) -> int:
        tracemalloc.start()
        try:
            if record:
                with Tape():
                    T.causal_attention(q, k, v, heads)
            else:
                T.causal_attention(q, k, v, heads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(record=True) >= probs_bytes
    assert peak(record=False) < probs_bytes // 2


def test_a_recorded_forward_keeps_only_the_triangle():
    b, heads, t, d = 2, 2, 256, 8
    tiles = [(lo, min(lo + T.ATTENTION_TILE, t)) for lo in range(0, t, T.ATTENTION_TILE)]
    triangle_bytes = b * heads * sum((hi - lo) * hi for lo, hi in tiles) * 8
    full_bytes = b * heads * t * t * 8
    slack = 8192  # the output's Tensor, the tape's node and the tile list
    assert triangle_bytes + slack < 0.7 * full_bytes
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.normal(size=(b, t, d)), requires_grad=True) for _ in range(3))
    tracemalloc.start()
    try:
        with Tape():
            out = T.causal_attention(q, k, v, heads)
            held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= triangle_bytes + out.data.nbytes + slack


def test_no_gradient_for_inputs_that_do_not_need_one():
    rng = np.random.default_rng(1)
    for t in (8, T.ATTENTION_TILE + 5):
        q = Tensor(rng.normal(size=(2, t, 4)), requires_grad=True)
        k, v = Tensor(rng.normal(size=(2, t, 4))), Tensor(rng.normal(size=(2, t, 4)))
        g = rng.normal(size=(2, t, 4))
        with Tape() as tape:
            out = T.causal_attention(q, k, v, 2)
            tape.backward(out, grad=g)
        assert k.grad is None and v.grad is None
        want = _unfused(q.data, k.data, v.data, 2, _mask(t, np.float64), g)[1]
        if t <= T.ATTENTION_TILE:
            assert _same_bits(q.grad, want)
        else:
            assert np.max(np.abs(q.grad - want)) <= _rounding_tol(t, np.float64, want)


def test_meters_both_products():
    b, t, d = 3, 10, 12
    x = Tensor(np.zeros((b, t, d)))
    with MacMeter() as meter:
        T.causal_attention(x, x, x, 4)
    assert meter.total == 2 * b * t * t * d


def test_rejects_bad_shapes():
    x = Tensor(np.zeros((2, 4, 6)))
    with pytest.raises(ValueError, match="b,t,d"):
        T.causal_attention(Tensor(np.zeros((4, 6))), Tensor(np.zeros((4, 6))), Tensor(np.zeros((4, 6))), 2)
    with pytest.raises(ValueError, match="one shape"):
        T.causal_attention(x, Tensor(np.zeros((2, 5, 6))), x, 2)
    with pytest.raises(ValueError, match="dtype"):
        T.causal_attention(x, x, Tensor(np.zeros((2, 4, 6), np.float32)), 2)
    with pytest.raises(ValueError, match="divisible"):
        T.causal_attention(x, x, x, 4)
