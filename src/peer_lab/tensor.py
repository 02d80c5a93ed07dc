"""Dense tensors with reverse-mode differentiation on an explicit tape.

Ops are plain functions over `Tensor` values. While a `Tape` is active
(``with Tape() as tape:``), every op appends a backward closure; calling
``tape.backward(out)`` replays the closures in exact reverse execution order,
accumulating (never overwriting) gradients into every tensor that
``requires_grad``. With no tape active, ops are plain numpy computations.

Float64 is the default dtype; float32 is supported for speed. Matmul-like
ops report multiply-accumulate counts to an optional `MacMeter`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

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

    One forward pass per tape. Each recorded entry is (output tensor,
    backward closure); the closure reads the output's accumulated gradient
    and adds each input's contribution to its ``grad`` buffer.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

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
        """
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
        _accum(output, grad)
        for out, bwd in reversed(self._records):
            if out.grad is not None:
                bwd(out.grad)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add one dense contribution to t's gradient without writing into any array.

    A first contribution is kept as it is, although it may alias another
    tensor's gradient: no gradient is ever updated in place, so a later
    contribution makes a new array (the bits of `+=`). A row-sparse gradient
    held so far is added as its dense form.
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
    if getattr(_LOCAL, "macs_paused", False):
        return
    meters = getattr(_LOCAL, "meters", None)
    if meters:
        meters[-1].add(n, comparisons)


@contextmanager
def macs_uncounted():
    """Suspend metering of MACs and comparisons, e.g. for re-derivations of already-counted work."""
    prev = getattr(_LOCAL, "macs_paused", False)
    _LOCAL.macs_paused = True
    try:
        yield
    finally:
        _LOCAL.macs_paused = prev


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

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
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _register(out, a.requires_grad or b.requires_grad, backward)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: Tensor) -> Tensor:
    """Multi-head softmax attention over q, k, v [b,t,d] with an additive [t,t] mask -> [b,t,d].

    Head h reads and writes columns h*hd:(h+1)*hd (hd = d // n_heads):
    out = softmax(q k^T / sqrt(hd) + mask) v, one (sequence, head) pair at
    a time, so a pair's [t,t] scores stay in cache and no head is copied
    out. Every value comes from the same operations on the same operands as
    the unfused chain (batched q k^T, scale, add mask, softmax, batched
    p v, and their adjoints), so results match it bit for bit; the one
    exception is dk and dv of one-column heads (hd = 1 < d) over several
    sequences, where the chain read contiguous copies and BLAS's
    matrix-vector product sums a strided vector in another order. The
    probabilities are kept, in one [b,heads,t,t] buffer, only while a tape
    records the op.
    """
    qd, kd, vd, m = q.data, k.data, v.data, mask.data
    if qd.ndim != 3:
        raise ValueError(f"causal_attention expects q, k, v [b,t,d], got q shape {qd.shape}")
    if kd.shape != qd.shape or vd.shape != qd.shape or not qd.dtype == kd.dtype == vd.dtype:
        raise ValueError(f"causal_attention needs q, k, v of one shape and dtype, got {qd.shape} {qd.dtype}, {kd.shape} {kd.dtype}, {vd.shape} {vd.dtype}")
    b, t, d = qd.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ValueError(f"causal_attention: d={d} is not divisible into {n_heads} heads")
    if m.shape != (t, t):
        raise ValueError(f"causal_attention mask must be [{t},{t}], got shape {m.shape}")
    hd = d // n_heads
    c = 1.0 / math.sqrt(hd)
    heads = [slice(h * hd, (h + 1) * hd) for h in range(n_heads)]
    count_macs(2 * b * n_heads * t * t * hd)  # q k^T, then p v
    needs_grad = q.requires_grad or k.requires_grad or v.requires_grad
    probs = np.empty((b, n_heads, t, t), qd.dtype) if needs_grad and _active_tape() is not None else None
    scratch = np.empty((t, t), qd.dtype) if probs is None else None
    out = np.empty(qd.shape, qd.dtype)
    for i in range(b):
        for h, cols in enumerate(heads):
            s = scratch if probs is None else probs[i, h]
            np.matmul(qd[i, :, cols], kd[i, :, cols].T, out=s)
            # scale, add the mask, softmax: in place, with the chain's bits
            s *= c
            s += m
            s -= s.max(axis=-1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=-1, keepdims=True)
            np.matmul(s, vd[i, :, cols], out=out[i, :, cols])

    def backward(g):
        dq, dk, dv = (np.empty(qd.shape, qd.dtype) if x.requires_grad else None for x in (q, k, v))
        dp, kt = np.empty((t, t), qd.dtype), np.empty((hd, t), qd.dtype)
        for i in range(b):
            for h, cols in enumerate(heads):
                p, g_ih = probs[i, h], g[i, :, cols]
                if dv is not None:
                    np.matmul(p.T, g_ih, out=dv[i, :, cols])
                if dq is None and dk is None:
                    continue
                np.matmul(g_ih, vd[i, :, cols].T, out=dp)
                dp -= (dp * p).sum(axis=-1, keepdims=True)
                dp *= p
                dp *= c
                if dq is not None:
                    np.matmul(dp, kd[i, :, cols], out=dq[i, :, cols])
                if dk is not None:
                    dk[i, :, cols] = np.matmul(qd[i, :, cols].T, dp, out=kt).T
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
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = Tensor(x * cdf)

    def backward(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
            _accum(a, g * (cdf + x * pdf))

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


ACTIVATIONS = {"relu": relu, "gelu": gelu, "sigmoid": sigmoid}


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
    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=-1, keepdims=True)
    log_probs = (logits.data - m) - np.log(z)
    rows = np.arange(n)
    loss = -log_probs[rows, targets].mean()
    out = Tensor(np.asarray(loss, dtype=logits.data.dtype))

    def backward(g):
        if logits.requires_grad:
            p = e / z
            p[rows, targets] -= 1.0
            _accum(logits, (g / n) * p)

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


def gather_dot(x: Tensor, table: Tensor, idx) -> Tensor:
    """x [m,d] and rows idx [m,k] of table [n,d] -> [m,k]; out[i,j] = x[i] . table[idx[i,j]].

    The table's adjoint adds g[i,j] * x[i] into row idx[i,j] through
    scatter_add_into, with no [m,k,d] intermediate.
    """
    idx = _row_ids(table, idx, "gather_dot")
    if x.data.ndim != 2 or table.data.ndim != 2 or idx.ndim != 2 or idx.shape[0] != x.data.shape[0] or x.data.shape[1] != table.data.shape[1]:
        raise ValueError(f"gather_dot shape mismatch: x {x.data.shape}, table {table.data.shape}, idx {idx.shape}")
    rows = table.data[idx]
    count_macs(rows.size)
    out = Tensor(np.einsum("md,mkd->mk", x.data, rows))

    def backward(g):
        if x.requires_grad:
            _accum(x, np.einsum("mk,mkd->md", g, rows))
        if table.requires_grad:
            scatter_add_into(table, idx, x.data, g)

    return _register(out, x.requires_grad or table.requires_grad, backward)


def gather_weighted_sum(w: Tensor, table: Tensor, idx) -> Tensor:
    """w [m,k] and rows idx [m,k] of table [n,d] -> [m,d]; out[i] = sum_j w[i,j] * table[idx[i,j]].

    The table's adjoint adds w[i,j] * g[i] into row idx[i,j] through
    scatter_add_into, with no [m,k,d] intermediate.
    """
    idx = _row_ids(table, idx, "gather_weighted_sum")
    if w.data.ndim != 2 or table.data.ndim != 2 or w.data.shape != idx.shape:
        raise ValueError(f"gather_weighted_sum shape mismatch: w {w.data.shape}, table {table.data.shape}, idx {idx.shape}")
    rows = table.data[idx]
    count_macs(rows.size)
    out = Tensor(np.einsum("mk,mkd->md", w.data, rows))

    def backward(g):
        if w.requires_grad:
            _accum(w, np.einsum("md,mkd->mk", g, rows))
        if table.requires_grad:
            scatter_add_into(table, idx, g, w.data)

    return _register(out, w.requires_grad or table.requires_grad, backward)


def scatter_rows_add(base: Tensor, idx, rows: Tensor) -> Tensor:
    """out = base with rows[j] added at position idx[j] (duplicates accumulate)."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= base.data.shape[0]):
        raise IndexError(f"scatter_rows_add index out of range [0, {base.data.shape[0]})")
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


def batch_norm(x: Tensor, state: BNState, mode: str) -> Tensor:
    """Normalize each feature column of x [n,d].

    Train mode uses batch statistics (population variance) and updates the
    running stats by EMA; infer mode uses the running stats only.
    """
    if x.data.ndim != 2:
        raise ValueError(f"batch_norm expects x [n,d], got shape {x.data.shape}")
    if mode not in ("train", "infer"):
        raise ValueError(f"batch_norm mode must be 'train' or 'infer', got {mode!r}")
    gamma, beta = state.scale, state.shift
    needs = x.requires_grad or gamma.requires_grad or beta.requires_grad

    if mode == "infer":
        inv = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (x.data - state.running_mean) * inv
        out = Tensor(gamma.data * xhat + beta.data)

        def backward_infer(g):
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).sum(axis=0))
            if beta.requires_grad:
                _accum(beta, g.sum(axis=0))
            if x.requires_grad:
                _accum(x, g * gamma.data * inv)

        return _register(out, needs, backward_infer)

    n = x.data.shape[0]
    if n < 2:
        raise ValueError("batch_norm in train mode needs a batch of at least 2 rows")
    mu = x.data.mean(axis=0)
    centered = x.data - mu
    var = (centered * centered).mean(axis=0)
    inv = 1.0 / np.sqrt(var + state.eps)
    xhat = centered * inv
    out = Tensor(gamma.data * xhat + beta.data)

    m = state.momentum
    state.running_mean = (m * state.running_mean + (1.0 - m) * mu).astype(state.running_mean.dtype)
    state.running_var = (m * state.running_var + (1.0 - m) * var).astype(state.running_var.dtype)

    def backward_train(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=0))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            _accum(x, inv / n * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)))

    return _register(out, needs, backward_train)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply per-feature scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(gamma.data * xhat + beta.data)
    d = x.data.shape[-1]
    reduce_axes = tuple(range(x.data.ndim - 1))

    def backward(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=reduce_axes))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=reduce_axes))
        if x.requires_grad:
            dxhat = g * gamma.data
            _accum(
                x,
                inv / d * (d * dxhat - dxhat.sum(axis=-1, keepdims=True) - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)),
            )

    return _register(out, x.requires_grad or gamma.requires_grad or beta.requires_grad, backward)


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


def grad_check(f, params, step: float = 1e-5, max_coords: int = 16, seed: int = 0) -> float:
    """Max relative error between tape gradients of scalar f() and central differences.

    Error per sampled coordinate is |analytic - numeric| / max(1, |analytic|).
    `f` must be a deterministic scalar function of the `params` tensors.
    """
    errors = grad_check_detail(f, {i: p for i, p in enumerate(params)}, step=step, max_coords=max_coords, seed=seed)
    return max(errors.values()) if errors else 0.0


def grad_check_detail(f, named_params: dict, step: float = 1e-5, max_coords: int = 16, seed: int = 0) -> dict:
    """Per-parameter max relative error; one tape pass, then central differences."""
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
