"""Dense tensors with reverse-mode differentiation on an explicit tape.

Ops are plain functions over `Tensor` values. While a `Tape` is active
(``with Tape() as tape:``), every op appends a backward closure; calling
``tape.backward(out)`` replays the closures in exact reverse execution order,
accumulating (never overwriting) gradients into every tensor that
``requires_grad``. With no tape active, ops are plain numpy computations.

Backward frees what it has used. Just before an op's adjoint runs, the tape
takes that op's output gradient off the output and drops the op's record,
so the closure and the forward arrays it captured go as soon as the adjoint
returns; every op that read the output ran its adjoint earlier. Afterwards
only leaves (parameters and inputs, which no recorded op produced) hold
gradients, and a tape runs backward once. An adjoint may overwrite arrays
its own op made, since it runs once, but never its upstream gradient `g`,
which may be another tensor's gradient too.

Float64 is the default dtype; float32 is supported for speed. Matmul-like
ops report multiply-accumulate counts to an optional `MacMeter`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import erf

DEFAULT_DTYPE = np.float64

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense n-d float array with an optional same-shape gradient.

    A gradient whose every contribution came from a gathered-row adjoint is
    held row-sparse: `grad_ids`, the sorted unique rows that may be nonzero,
    and `grad_rows`, their values. Reading `grad` builds the dense array from
    them once; `grad_ids` and `grad_rows` are None for any other gradient.
    """

    __slots__ = ("data", "_grad", "grad_ids", "grad_rows", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self._grad: np.ndarray | None = None
        self.grad_ids: np.ndarray | None = None
        self.grad_rows: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def grad(self) -> np.ndarray | None:
        if self._grad is None and self.grad_rows is not None:
            # np.zeros, not zeros_like: pages no row lands on are never written
            dense = np.zeros(self.data.shape, self.data.dtype)
            dense[self.grad_ids] = self.grad_rows
            self._grad = dense
        return self._grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self._grad = self.grad_ids = self.grad_rows = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


# float64 values one block of `normal_rows` draws: 2 MiB, 4096 rows at d = 64
NORMAL_BLOCK = 1 << 18


def normal_rows(rng: np.random.Generator, std: float, shape: tuple[int, ...], dtype) -> np.ndarray:
    """`rng.normal(0, std, shape).astype(dtype)` without its float64 copy.

    The array is allocated once in `dtype` and filled in blocks of whole
    rows, at most NORMAL_BLOCK values each (one row, if a row holds more).
    The generator fills a draw in order, so the blocks are one stream: every
    bit, and the generator's state afterwards, equal the one-shot draw's. A
    [2^20, 64] float32 table then peaks at itself plus 2 MiB, not plus its
    512 MiB float64 draw.
    """
    out = np.empty(shape, dtype)
    row_shape = tuple(shape[1:])
    step = max(1, NORMAL_BLOCK // max(1, math.prod(row_shape)))
    for lo in range(0, shape[0], step):
        hi = min(lo + step, shape[0])
        out[lo:hi] = rng.normal(0.0, std, size=(hi - lo,) + row_shape)
    return out


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = _LOCAL.tapes = []
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed ops; backward replays adjoints in reverse.

    One forward pass per tape, and one backward. Each recorded entry is
    (output tensor, backward closure); the closure takes the output's
    accumulated gradient and adds each input's contribution to that input's
    gradient. Backward drops each entry, and the output's gradient, once it
    reaches it, so afterwards only leaves hold gradients. ``len(tape)`` stays
    the number of ops recorded.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object] | None] = []
        self._ran = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _tape_stack().pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Tensor, backward) -> None:
        self._records.append((out, backward))

    def backward(self, output: Tensor, grad=None) -> None:
        """Seed `output` with `grad` (ones for a scalar) and run all adjoints.

        Tensors never touched by the path to `output` keep grad=None;
        parameters used multiple times accumulate the sum of contributions.
        Each op output's gradient is cleared, and its record dropped, right
        before its adjoint runs: every op that read that output came later
        and has already run its own. So when backward returns, no recorded
        output holds a gradient, nothing keeps the forward's saved arrays,
        and a second call raises RuntimeError.
        """
        if self._ran:
            raise RuntimeError("this tape has already run backward, which freed its records; record the forward again on a new Tape")
        if grad is None:
            if output.data.ndim != 0:
                raise ValueError(
                    f"backward of a non-scalar output (shape {output.data.shape}) needs an explicit seed gradient"
                )
            grad = np.ones_like(output.data)
        else:
            grad = np.array(grad, dtype=output.data.dtype)  # a copy: the caller keeps its array
            if grad.shape != output.data.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != output shape {output.data.shape}")
        self._ran = True
        _accum(output, grad)
        records = self._records
        for i in reversed(range(len(records))):
            out, bwd = records[i]
            records[i] = None  # the entry count stays; the closure goes with bwd
            g = out.grad
            out.zero_grad()
            if g is not None:
                bwd(g)
            del out, bwd, g


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add one dense contribution to t's gradient without writing into any array.

    A first contribution is kept as it is, although it may alias another
    tensor's gradient, or an adjoint's upstream `g`: no gradient is ever
    updated in place, and no adjoint writes into its `g`, so a later
    contribution makes a new array (the bits of `+=`). A row-sparse gradient
    held so far is added as its dense form. Tape.backward takes the sum
    off an op output when that op's adjoint runs; only leaves keep theirs.
    """
    if t.grad is None:
        t._grad = g.astype(t.data.dtype, copy=False)
    else:
        t._grad = (t.grad + g).astype(t.data.dtype, copy=False)
    t.grad_ids = t.grad_rows = None


def _register(out: Tensor, needs_grad: bool, backward) -> Tensor:
    tape = _active_tape()
    if tape is not None and needs_grad:
        out.requires_grad = True
        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# MAC metering (multiply-accumulate counts of matmul-like ops)
# ---------------------------------------------------------------------------


@dataclass
class MacMeter:
    """Counts multiply-accumulates executed by matmul-like ops in scope, and
    the comparisons that retrieval charges for its selections."""

    total: int = 0
    comparisons: int = 0

    def __enter__(self) -> "MacMeter":
        meters = getattr(_LOCAL, "meters", None)
        if meters is None:
            meters = _LOCAL.meters = []
        meters.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _LOCAL.meters.pop()
        return False

    def add(self, n: int, comparisons: int = 0) -> None:
        self.total += int(n)
        self.comparisons += int(comparisons)


def count_macs(n: int, comparisons: int = 0) -> None:
    """Charge n MACs and `comparisons` comparisons to the innermost meter in scope."""
    meters = getattr(_LOCAL, "meters", None)
    if meters:
        meters[-1].add(n, comparisons)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (adjoint of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _register(out, a.requires_grad or b.requires_grad, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _register(out, a.requires_grad or b.requires_grad, backward)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * c)

    return _register(out, a.requires_grad, backward)


# ---------------------------------------------------------------------------
# Matrix products
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a [m,p] @ b [p,n] -> [m,n]; backward da = g @ b.T, db = a.T @ g."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got shapes {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    count_macs(a.data.shape[0] * a.data.shape[1] * b.data.shape[1])
    # BLAS sends one row to a matrix-vector kernel that rounds otherwise; the
    # row stacked twice takes the matrix-matrix path of a taller a
    rows = np.concatenate([a.data, a.data]) if a.data.shape[0] == 1 else a.data
    out = Tensor((rows @ b.data)[: a.data.shape[0]])

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _register(out, a.requires_grad or b.requires_grad, backward)


# query rows of one causal_attention tile. A tile of r rows ending at row hi
# scores keys [0, hi) only; at desk its [heads, 64, <= 256] float32 scores
# (256 KiB) stay in cache, and at t = 256 the tiles cover 62.5% of the
# [t, t] block (128-row tiles: 75%; 32-row tiles lose to per-call overhead)
ATTENTION_TILE = 64

# numpy copies a broadcast operand, such as the softmax's row maxima and
# sums, into a ufunc buffer of this many elements; its default, 8192, is as
# large as a whole 64-row tile of two float64 heads, and this keeps the copy
# at a quarter of that with no measured cost
_SOFTMAX_BUFSIZE = 2048


@lru_cache(maxsize=None)
def _causal_mask(dtype) -> np.ndarray:
    """The read-only additive mask of a tile's diagonal block, [ATTENTION_TILE]
    square: -1e30 above the diagonal, where exp underflows to 0, and 0
    elsewhere. Its top-left [r, r] corner masks a last tile of r rows."""
    m = np.triu(np.full((ATTENTION_TILE, ATTENTION_TILE), -1e30, dtype=dtype), k=1)
    m.flags.writeable = False
    return m


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal softmax attention over q, k, v [b,t,d] -> [b,t,d].

    Head h reads and writes columns h*hd:(h+1)*hd (hd = d // n_heads):
    out = softmax(q k^T / sqrt(hd) + mask) v, where the mask adds -1e30
    above the diagonal. Each sequence's query rows are walked in tiles of
    ATTENTION_TILE rows; the tile [lo, hi) runs every head at once as one
    stacked product over strided views (no head is copied out) against the
    keys [0, hi) only, and only its diagonal [r, r] block gets the mask, so
    key blocks wholly above the diagonal are never computed, stored or read.

    For t <= ATTENTION_TILE there is one tile, and every value comes from the
    same operations on the same operands as the unfused chain (batched
    q k^T, scale, add mask, softmax, batched p v, and their adjoints), so
    results match it bit for bit; the one exception is dk and dv of
    one-column heads (hd = 1 < d) over several sequences, where the chain
    read contiguous copies and BLAS's matrix-vector product sums a strided
    vector in another order. Longer windows move at rounding level: a row's
    sum and p v run over hi columns, not t, and dk and dv add up the tiles'
    contributions. A masked entry is still exactly 0, so no output reads a
    later key.

    The probabilities are kept only while a tape records, and only for the
    triangle's tiles: one buffer of b * heads * sum(r * hi) values. The MAC
    meter is charged the logical full products, 2 * b * heads * t^2 * hd,
    as `analysis` budgets attention.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 3:
        raise ValueError(f"causal_attention expects q, k, v [b,t,d], got q shape {qd.shape}")
    if kd.shape != qd.shape or vd.shape != qd.shape or not qd.dtype == kd.dtype == vd.dtype:
        raise ValueError(f"causal_attention needs q, k, v of one shape and dtype, got {qd.shape} {qd.dtype}, {kd.shape} {kd.dtype}, {vd.shape} {vd.dtype}")
    b, t, d = qd.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ValueError(f"causal_attention: d={d} is not divisible into {n_heads} heads")
    m = _causal_mask(qd.dtype)
    hd = d // n_heads
    c = 1.0 / math.sqrt(hd)
    count_macs(2 * b * n_heads * t * t * hd)  # q k^T, then p v, as full products

    def heads(x):  # [b, t, d] -> [b, heads, t, hd], a view of contiguous x
        return x.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3)

    tiles, size = [], 0  # (lo, hi, offset of its [heads, hi - lo, hi] block)
    for lo in range(0, t, ATTENTION_TILE):
        hi = min(lo + ATTENTION_TILE, t)
        tiles.append((lo, hi, size))
        size += n_heads * (hi - lo) * hi

    def block(buf, lo, hi, at):
        return buf[at : at + n_heads * (hi - lo) * hi].reshape(n_heads, hi - lo, hi)

    needs_grad = q.requires_grad or k.requires_grad or v.requires_grad
    probs = np.empty((b, size), qd.dtype) if needs_grad and _active_tape() is not None else None
    tile_size = n_heads * min(t, ATTENTION_TILE) * t  # the largest tile's block
    scratch = np.empty(tile_size, qd.dtype) if probs is None else None
    out = np.empty(qd.shape, qd.dtype)
    qh, kh, vh, oh = heads(qd), heads(kd), heads(vd), heads(out)
    bufsize = np.setbufsize(_SOFTMAX_BUFSIZE)
    try:
        for i in range(b):
            for lo, hi, at in tiles:
                s = block(scratch, lo, hi, 0) if probs is None else block(probs[i], lo, hi, at)
                np.matmul(qh[i, :, lo:hi], kh[i, :, :hi].transpose(0, 2, 1), out=s)
                # scale, mask the diagonal block, softmax: in place, the chain's operations
                s *= c
                s[:, :, lo:] += m[: hi - lo, : hi - lo]
                s -= s.max(axis=-1, keepdims=True)
                np.exp(s, out=s)
                s /= s.sum(axis=-1, keepdims=True)
                np.matmul(s, vh[i, :, :hi], out=oh[i, :, lo:hi])
    finally:
        np.setbufsize(bufsize)

    def backward(g):
        dq, dk, dv = (np.empty(qd.shape, qd.dtype) if x.requires_grad else None for x in (q, k, v))
        gh = heads(g)
        dqh, dkh, dvh = (None if x is None else heads(x) for x in (dq, dk, dv))
        dp_buf, kt, vt = np.empty(tile_size, qd.dtype), np.empty((n_heads, hd, t), qd.dtype), np.empty((n_heads, t, hd), qd.dtype)

        def place(rows, x, hi):  # the last tile spans every key and writes; earlier tiles add
            if hi == t:
                rows[...] = x
            else:
                rows[:, :hi] += x

        for i in range(b):
            for lo, hi, at in reversed(tiles):
                p, g_t = block(probs[i], lo, hi, at), gh[i, :, lo:hi]
                if dv is not None:
                    place(dvh[i], np.matmul(p.transpose(0, 2, 1), g_t, out=vt[:, :hi]), hi)
                if dq is None and dk is None:
                    continue
                dp = block(dp_buf, lo, hi, 0)
                np.matmul(g_t, vh[i, :, :hi].transpose(0, 2, 1), out=dp)
                dp -= (dp * p).sum(axis=-1, keepdims=True)
                dp *= p
                dp *= c
                if dq is not None:
                    np.matmul(dp, kh[i, :, :hi], out=dqh[i, :, lo:hi])
                if dk is not None:
                    place(dkh[i], np.matmul(qh[i, :, lo:hi].transpose(0, 2, 1), dp, out=kt[:, :, :hi]).transpose(0, 2, 1), hi)
        for x, gx in ((q, dq), (k, dk), (v, dv)):
            if gx is not None:
                _accum(x, gx)

    return _register(Tensor(out), needs_grad, backward)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        if a.requires_grad:
            _accum(a, g.reshape(a.data.shape))

    return _register(out, a.requires_grad, backward)


def col_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start:stop] along the last axis; backward pads with zeros."""
    out = Tensor(a.data[..., start:stop])

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[..., start:stop] = g
            _accum(a, full)

    return _register(out, a.requires_grad, backward)


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start:stop] along the first axis; backward pads with zeros."""
    out = Tensor(a.data[start:stop])

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[start:stop] = g
            _accum(a, full)

    return _register(out, a.requires_grad, backward)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along `axis`; backward splits the gradient back."""
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accum(t, np.moveaxis(moved[lo:hi], 0, axis))

    return _register(out, any(t.requires_grad for t in tensors), backward)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def backward(g):
        if a.requires_grad:
            _accum(a, g * (a.data > 0))

    return _register(out, a.requires_grad, backward)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU: x * cdf(x), with cdf = 0.5 * (1 + erf(x / sqrt(2)))."""
    x = a.data
    cdf = x * _INV_SQRT2  # built in place: one [n, d] array besides the output
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = Tensor(x * cdf)

    def backward(g):
        if a.requires_grad:
            # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi), in one temporary
            d = -0.5 * x
            d *= x
            np.exp(d, out=d)
            d *= _INV_SQRT_2PI
            d *= x
            d += cdf
            d *= g
            _accum(a, d)

    return _register(out, a.requires_grad, backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * y * (1.0 - y))

    return _register(out, a.requires_grad, backward)


ACTIVATIONS = {"relu": relu, "gelu": gelu}  # one entry per name in config.ACTIVATIONS


# ---------------------------------------------------------------------------
# Softmax / reductions / losses
# ---------------------------------------------------------------------------


def softmax(a: Tensor) -> Tensor:
    """Max-stabilized softmax over the last axis."""
    if a.data.ndim == 0 or a.data.shape[-1] == 0:
        raise ValueError(f"softmax needs a non-empty last axis, got shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        if a.requires_grad:
            _accum(a, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _register(out, a.requires_grad, backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(), dtype=a.data.dtype))

    def backward(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype))

    return _register(out, a.requires_grad, backward)


def cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean next-token cross entropy in nats. logits [n,v], targets int [n]."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ValueError(f"cross entropy expects logits [n,v] and targets [n], got {logits.data.shape} and {targets.shape}")
    n = logits.data.shape[0]
    if n == 0:
        raise ValueError(f"cross entropy is the mean over rows and needs at least one, got logits shape {logits.data.shape}")
    m = logits.data.max(axis=-1, keepdims=True)
    e = logits.data - m  # the shifted logits, exponentiated in place: one [n, v] array
    rows = np.arange(n)
    picked = e[rows, targets]
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    loss = -(picked - np.log(z[:, 0])).mean()  # the log-probabilities of the targets only
    out = Tensor(np.asarray(loss, dtype=logits.data.dtype))

    def backward(g):
        if logits.requires_grad:
            p = np.divide(e, z, out=e)  # the probabilities, in the array only this closure holds
            p[rows, targets] -= 1.0
            p *= g / n
            _accum(logits, p)

    return _register(out, logits.requires_grad, backward)


# ---------------------------------------------------------------------------
# Gathered rows (embedding lookups, expert and memory tables) and their adjoint
# ---------------------------------------------------------------------------


def scatter_add_into(table: Tensor, idx: np.ndarray, operand: np.ndarray, weights: np.ndarray | None = None) -> None:
    """Add weights[i, j] * operand[i] into row idx[i, j] of table's gradient, for every entry.

    idx is [m, k] (or [m], with k = 1), operand [m, ...] and weights, shaped
    like idx, default to ones. Each named row gets the sum of its entries,
    taken in (i, j) order starting from zero: bit for bit what a sequential
    Python loop over the entries into a zero buffer gives. Entries are not
    merged beforehand, so an id repeated within one i (a token's experts may
    share a sub-key) adds twice. The sums are kept row-sparse (see Tensor)
    when the gradient so far is row-sparse or absent; rows no entry names
    are not touched.
    """
    flat = idx.reshape(-1)
    dtype = table.data.dtype
    if flat.size == 0:
        ids, rows = flat.astype(np.intp), np.zeros((0,) + table.data.shape[1:], dtype)
    else:
        m = operand.shape[0]
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        ids = sorted_ids[starts]
        values = np.ones(flat.size, operand.dtype) if weights is None else weights.reshape(-1)[order]
        # one CSR row per unique id, holding its entries in (i, j) order; the
        # sparse-dense product sums each row sequentially in storage order
        adjoint = csr_matrix((values, order // (flat.size // m), np.r_[starts, flat.size]), shape=(ids.size, m))
        # each sum starts from +0.0, so no row is -0.0, as in a zero buffer
        rows = (adjoint @ operand.reshape(m, -1)).astype(dtype, copy=False).reshape((ids.size,) + table.data.shape[1:])
    if table._grad is not None and table.grad_rows is None:
        # a dense gradient so far: add the zero-filled buffer (turning -0.0 into +0.0)
        buf = np.zeros(table.data.shape, dtype)
        buf[ids] = rows
        _accum(table, buf)
    elif table.grad_rows is None:
        table.grad_ids, table.grad_rows = ids, rows
    else:
        # rows in both sums add; a row in one keeps its value (x + 0.0 == x, as no row is -0.0)
        union = np.union1d(table.grad_ids, ids)
        merged = place_rows(table.grad_rows, table.grad_ids, union) + place_rows(rows, ids, union)
        table._grad, table.grad_ids, table.grad_rows = None, union, merged


def place_rows(rows: np.ndarray, ids: np.ndarray, superset: np.ndarray) -> np.ndarray:
    """`rows` of the sorted unique `ids`, placed at their positions in the
    sorted unique `superset` of them, with +0.0 rows elsewhere; `rows` itself
    when the two sets are equal."""
    if superset.size == ids.size:
        return rows
    placed = np.zeros((superset.size,) + rows.shape[1:], rows.dtype)
    placed[np.searchsorted(superset, ids)] = rows
    return placed


def _row_ids(table: Tensor, idx, op: str) -> np.ndarray:
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"{op} needs integer indices, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(f"{op} index out of range [0, {table.data.shape[0]})")
    return idx


def gather_rows(table: Tensor, idx) -> Tensor:
    """table[idx] along axis 0; idx is any integer array.

    Backward scatter-adds into the table: rows never indexed keep a
    bitwise-zero gradient; rows indexed multiple times accumulate.
    """
    idx = _row_ids(table, idx, "gather_rows")
    out = Tensor(table.data[idx])

    def backward(g):
        if table.requires_grad:
            scatter_add_into(table, idx.reshape(-1), g.reshape((idx.size,) + table.data.shape[1:]))

    return _register(out, table.requires_grad, backward)


def _placed(g: np.ndarray, idx: np.ndarray, n: int) -> csr_matrix:
    """g [m,k] placed at columns idx [m,k] of an [m, n] CSR matrix. An id named
    twice in a row keeps both entries, and a product with the matrix sums them."""
    m, k = idx.shape
    return csr_matrix((g.reshape(-1), idx.reshape(-1), np.arange(m + 1) * k), shape=(m, n))


def gather_dot(x: Tensor, table: Tensor, idx) -> Tensor:
    """x [m,d] and rows idx [m,k] of table [n,d] -> [m,k]; out[i,j] = x[i] . table[idx[i,j]].

    x's adjoint is one CSR product of g, placed at the ids, with the table;
    the table's adjoint adds g[i,j] * x[i] into row idx[i,j] through
    scatter_add_into. Neither keeps the [m,k,d] gather of the forward, so
    nothing may write the table between the forward and its backward
    (train_step updates parameters only after backward).
    """
    idx = _row_ids(table, idx, "gather_dot")
    if x.data.ndim != 2 or table.data.ndim != 2 or idx.ndim != 2 or idx.shape[0] != x.data.shape[0] or x.data.shape[1] != table.data.shape[1]:
        raise ValueError(f"gather_dot shape mismatch: x {x.data.shape}, table {table.data.shape}, idx {idx.shape}")
    rows = table.data[idx]
    count_macs(rows.size)
    out = Tensor(np.einsum("md,mkd->mk", x.data, rows))
    data = table.data

    def backward(g):
        if x.requires_grad:
            _accum(x, _placed(g, idx, data.shape[0]) @ data)
        if table.requires_grad:
            scatter_add_into(table, idx, x.data, g)

    return _register(out, x.requires_grad or table.requires_grad, backward)


def gather_weighted_sum(w: Tensor, table: Tensor, idx) -> Tensor:
    """w [m,k] and rows idx [m,k] of table [n,d] -> [m,d]; out[i] = sum_j w[i,j] * table[idx[i,j]].

    w's adjoint gathers the rows again, in backward, from the table array
    the forward read; the table's adjoint adds w[i,j] * g[i] into row
    idx[i,j] through scatter_add_into. No [m,k,d] gather is kept from the
    forward to its backward, so nothing may write the table in between
    (train_step updates parameters only after backward).
    """
    idx = _row_ids(table, idx, "gather_weighted_sum")
    if w.data.ndim != 2 or table.data.ndim != 2 or w.data.shape != idx.shape:
        raise ValueError(f"gather_weighted_sum shape mismatch: w {w.data.shape}, table {table.data.shape}, idx {idx.shape}")
    rows = table.data[idx]
    count_macs(rows.size)
    out = Tensor(np.einsum("mk,mkd->md", w.data, rows))
    data = table.data

    def backward(g):
        if w.requires_grad:
            _accum(w, np.einsum("md,mkd->mk", g, data[idx]))
        if table.requires_grad:
            scatter_add_into(table, idx, g, w.data)

    return _register(out, w.requires_grad or table.requires_grad, backward)


def product_key_scores(q: Tensor, left: Tensor, right: Tensor, left_ids, right_ids, scores: np.ndarray) -> Tensor:
    """`scores` [m,k] on the tape as q[i, :half] . left[left_ids[i,j]] + q[i, half:] . right[right_ids[i,j]].

    q is [m, 2*half]; left and right are [n, half] sub-key tables. The
    forward value is `scores` as given (retrieval returns these sums for the
    ids it selects): it is neither recomputed nor checked, and charges no
    MACs. Each half of q's adjoint is one CSR product of g, placed at that
    side's ids, with that side's table, so an id a row names twice adds
    twice; the tables' adjoints go through scatter_add_into. Nothing may
    write q or the tables between the forward and its backward.
    """
    left_ids = _row_ids(left, left_ids, "product_key_scores")
    right_ids = _row_ids(right, right_ids, "product_key_scores")
    half = left.data.shape[-1]
    if (
        q.data.ndim != 2 or left.data.ndim != 2 or right.data.shape != left.data.shape or q.data.shape[1] != 2 * half
        or scores.ndim != 2 or scores.shape[0] != q.data.shape[0] or not scores.shape == left_ids.shape == right_ids.shape
    ):
        raise ValueError(
            f"product_key_scores shape mismatch: q {q.data.shape}, tables {left.data.shape} and {right.data.shape}, "
            f"ids {left_ids.shape} and {right_ids.shape}, scores {scores.shape}"
        )
    out = Tensor(scores)
    q_data, l_data, r_data = q.data, left.data, right.data

    def backward(g):
        if q.requires_grad:
            dq = np.empty_like(q_data)
            dq[:, :half] = _placed(g, left_ids, l_data.shape[0]) @ l_data
            dq[:, half:] = _placed(g, right_ids, r_data.shape[0]) @ r_data
            _accum(q, dq)
        if left.requires_grad:
            scatter_add_into(left, left_ids, q_data[:, :half], g)
        if right.requires_grad:
            scatter_add_into(right, right_ids, q_data[:, half:], g)

    return _register(out, q.requires_grad or left.requires_grad or right.requires_grad, backward)


def scatter_rows_add(base: Tensor, idx, rows: Tensor) -> Tensor:
    """out = base with rows[j] added at position idx[j] (duplicates accumulate)."""
    idx = _row_ids(base, idx, "scatter_rows_add")
    acc = base.data.copy()
    np.add.at(acc, idx, rows.data)
    out = Tensor(acc)

    def backward(g):
        if base.requires_grad:
            _accum(base, g)
        if rows.requires_grad:
            _accum(rows, g[idx])

    return _register(out, base.requires_grad or rows.requires_grad, backward)


# ---------------------------------------------------------------------------
# Normalization layers
# ---------------------------------------------------------------------------


@dataclass
class BNState:
    """Batch-norm parameters and running statistics for one feature axis."""

    scale: Tensor
    shift: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.99
    eps: float = 1e-5

    @classmethod
    def create(cls, dim: int, dtype=DEFAULT_DTYPE, momentum: float = 0.99, eps: float = 1e-5) -> "BNState":
        return cls(
            scale=Tensor(np.ones(dim, dtype=dtype), requires_grad=True),
            shift=Tensor(np.zeros(dim, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(dim, dtype=dtype),
            running_var=np.ones(dim, dtype=dtype),
            momentum=momentum,
            eps=eps,
        )


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, axis: int | None = None, stats=None):
    """gamma * (x - mean) / sqrt(var + eps) + beta over token rows x [n,d].

    The mean and population variance are taken over `axis` of x (0: each
    feature over the rows, 1: each row over its features), or are the given
    constant `stats` (mean, var). Returns (out, mean, var), the stats kept
    with their reduced axis.
    """
    if stats is None:
        mu = x.data.mean(axis=axis, keepdims=True)
        xhat = x.data - mu
        var = (xhat * xhat).mean(axis=axis, keepdims=True)
    else:
        mu, var = stats
        xhat = x.data - mu
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv  # the centered rows, scaled in place: no third [n,d] array
    out = Tensor(gamma.data * xhat + beta.data)

    def backward(g):
        # one [n,d] scratch t besides the result dxhat, each product into one of them
        t = None
        if gamma.requires_grad:
            t = g * xhat
            _accum(gamma, t.sum(axis=0))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            if stats is not None:
                dxhat *= inv
            else:
                # inv / n * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
                n = x.data.shape[axis]
                s1 = dxhat.sum(axis=axis, keepdims=True)
                t = np.multiply(dxhat, xhat, out=t)
                s2 = t.sum(axis=axis, keepdims=True)
                dxhat *= n
                dxhat -= s1
                dxhat -= np.multiply(xhat, s2, out=t)
                dxhat *= inv / n
            _accum(x, dxhat)

    return _register(out, x.requires_grad or gamma.requires_grad or beta.requires_grad, backward), mu, var


def batch_norm(x: Tensor, state: BNState, mode: str) -> Tensor:
    """Normalize each feature column of x [n,d].

    Train mode uses batch statistics (population variance) and updates the
    running stats by EMA; infer mode uses the running stats only.
    """
    if x.data.ndim != 2:
        raise ValueError(f"batch_norm expects x [n,d], got shape {x.data.shape}")
    if mode not in ("train", "infer"):
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    if mode == "infer":
        return _normalize(x, state.scale, state.shift, state.eps, stats=(state.running_mean, state.running_var))[0]
    if x.data.shape[0] < 2:
        raise ValueError("batch_norm in train mode needs a batch of at least 2 rows")
    out, mu, var = _normalize(x, state.scale, state.shift, state.eps, axis=0)
    m = state.momentum
    state.running_mean = (m * state.running_mean + (1.0 - m) * mu[0]).astype(state.running_mean.dtype)
    state.running_var = (m * state.running_var + (1.0 - m) * var[0]).astype(state.running_var.dtype)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of x [n,d] over its features, then apply per-feature scale and shift."""
    if x.data.ndim != 2:
        raise ValueError(f"layer_norm expects x [n,d], got shape {x.data.shape}")
    return _normalize(x, gamma, beta, eps, axis=1)[0]


# ---------------------------------------------------------------------------
# Top-k (selection only; not differentiated)
# ---------------------------------------------------------------------------


def top_k(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k over the last axis, ordered by (value desc, index asc).

    Equal values resolve to the smaller index, so results are deterministic
    and equal to a stable sort on the negated values. On rows long compared
    with k, a float k <= 8 takes k passes of argmax, each masking its winner
    to -inf (argmax returns the first maximum, so ties go to the lower id);
    a larger k is narrowed to k survivors by partial selection, and only
    those are ordered. A row where either shortcut can go wrong (a NaN, a
    k-th pick of -inf, or a k-th value shared across the cut) takes the full
    stable sort instead. Accepts a Tensor or ndarray; returns
    (indices, values) as ndarrays.
    """
    v = values.data if isinstance(values, Tensor) else np.asarray(values)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError(f"top_k needs a non-empty last axis, got shape {v.shape}")
    n = v.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"top_k k={k} out of range [1, {n}]")
    if n < 8 * k:
        idx = np.argsort(-v, axis=-1, kind="stable")[..., :k]
        return idx, np.take_along_axis(v, idx, axis=-1)
    if k <= 8 and np.issubdtype(v.dtype, np.floating):
        masked = v.copy()
        idx = np.empty(v.shape[:-1] + (k,), dtype=np.intp)
        for j in range(k):
            if j:
                np.put_along_axis(masked, idx[..., j - 1 : j], -np.inf, axis=-1)
            idx[..., j] = masked.argmax(axis=-1)
        # a NaN wins argmax; once the max left is -inf (the k-th pick is the
        # smallest), argmax may return an id picked before
        last = np.take_along_axis(masked, idx[..., -1:], axis=-1)[..., 0]
        fallback = np.isnan(np.take_along_axis(v, idx, axis=-1)).any(axis=-1) | (last == -np.inf)
    else:
        # the k largest in any order (NaN counts as largest here), then ids ascending
        idx = np.sort(np.argpartition(v, n - k, axis=-1)[..., n - k :], axis=-1)
        vals = np.take_along_axis(v, idx, axis=-1)
        kth = vals.min(axis=-1, keepdims=True)
        # the survivors are exactly the values >= the k-th unless it is tied
        # across the cut; a NaN makes kth NaN or leaves a survivor uncounted
        fallback = np.count_nonzero(v >= kth, axis=-1) != k
        order = np.argsort(-vals, axis=-1, kind="stable")
        idx = np.take_along_axis(idx, order, axis=-1)
    if fallback.any():
        if v.ndim == 1:
            idx = np.argsort(-v, kind="stable")[:k]
        else:
            idx[fallback] = np.argsort(-v[fallback], axis=-1, kind="stable")[..., :k]
    return idx, np.take_along_axis(v, idx, axis=-1)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def grad_check(f, named_params: dict, step: float = 1e-5, max_coords: int = 16, seed: int = 0) -> dict:
    """Per-parameter max relative error between tape gradients of scalar f()
    and central differences: {name: error}, one tape pass first.

    Error per sampled coordinate is |analytic - numeric| / max(1, |analytic|).
    `f` must be a deterministic scalar function of the `named_params` tensors.
    """
    params = list(named_params.values())
    for p in params:
        if not p.requires_grad:
            raise ValueError("grad_check parameters must have requires_grad=True")
        p.zero_grad()
    with Tape() as tape:
        out = f()
        if not isinstance(out, Tensor) or out.data.ndim != 0:
            raise ValueError("grad_check requires f to return a scalar Tensor")
        tape.backward(out)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in named_params.items()}

    rng = np.random.default_rng(seed)
    errors: dict = {}
    for name, p in named_params.items():
        n = p.data.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = np.sort(rng.choice(n, size=max_coords, replace=False))
        worst = 0.0
        for c in coords:
            ix = np.unravel_index(int(c), p.data.shape)
            orig = p.data[ix]
            p.data[ix] = orig + step
            f_plus = float(f().data)
            p.data[ix] = orig - step
            f_minus = float(f().data)
            p.data[ix] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic[name][ix])
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
        errors[name] = worst
    return errors
