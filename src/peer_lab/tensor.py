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
from scipy.special import erf

DEFAULT_DTYPE = np.float64

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense n-d float array with an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

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
            grad = np.asarray(grad, dtype=output.data.dtype)
            if grad.shape != output.data.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != output shape {output.data.shape}")
        _accum(output, grad)
        for out, bwd in reversed(self._records):
            if out.grad is not None:
                bwd(out.grad)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # copy: g may be a view of (or alias) another tensor's grad buffer
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


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
    """Counts multiply-accumulates executed by matmul-like ops in scope."""

    total: int = 0

    def __enter__(self) -> "MacMeter":
        meters = getattr(_LOCAL, "meters", None)
        if meters is None:
            meters = _LOCAL.meters = []
        meters.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _LOCAL.meters.pop()
        return False

    def add(self, n: int) -> None:
        self.total += int(n)


def count_macs(n: int) -> None:
    if getattr(_LOCAL, "macs_paused", False):
        return
    meters = getattr(_LOCAL, "meters", None)
    if meters:
        meters[-1].add(n)


@contextmanager
def macs_uncounted():
    """Suspend MAC metering, e.g. for re-derivations of already-counted work."""
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


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


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


def bmm(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Batched matmul: a [g,m,p] @ b [g,p,n] (or b [g,n,p] with transpose_b)."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ValueError(f"bmm expects 3-d operands, got shapes {a.data.shape} and {b.data.shape}")
    bd = b.data.swapaxes(1, 2) if transpose_b else b.data
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != bd.shape[1]:
        raise ValueError(f"bmm shape mismatch: {a.data.shape} x {b.data.shape} (transpose_b={transpose_b})")
    count_macs(a.data.shape[0] * a.data.shape[1] * a.data.shape[2] * bd.shape[2])
    out = Tensor(np.matmul(a.data, bd))

    def backward(g):
        if a.requires_grad:
            _accum(a, np.matmul(g, bd.swapaxes(1, 2)))
        if b.requires_grad:
            gb = np.matmul(a.data.swapaxes(1, 2), g)
            _accum(b, gb.swapaxes(1, 2) if transpose_b else gb)

    return _register(out, a.requires_grad or b.requires_grad, backward)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        if a.requires_grad:
            _accum(a, g.reshape(a.data.shape))

    return _register(out, a.requires_grad, backward)


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes))

    def backward(g):
        if a.requires_grad:
            _accum(a, np.transpose(g, inv))

    return _register(out, a.requires_grad, backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a 2-d tensor, got shape {a.data.shape}")
    return permute(a, (1, 0))


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


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(np.asarray(a.data.mean(), dtype=a.data.dtype))

    def backward(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g / n, a.data.shape).astype(a.data.dtype))

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
# Gather / scatter-add (embedding lookup and its adjoint)
# ---------------------------------------------------------------------------


def scatter_add_into(buf: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """buf[idx[r]] += g[r] with duplicate rows accumulated in index order.

    Segment-sum formulation of np.add.at: duplicates of one row are summed
    left to right in their original order (stable sort), so the result is
    deterministic and bit-identical to a sequential loop.
    """
    flat_idx = idx.ravel()
    r = flat_idx.size
    if r == 0:
        return
    cols = buf[0].size if buf.ndim > 1 else 1
    buf2 = buf.reshape(buf.shape[0], cols)
    g2 = np.ascontiguousarray(g).reshape(r, cols)
    if r < 64:
        np.add.at(buf2, flat_idx, g2)
        return
    order = np.argsort(flat_idx, kind="stable")
    sorted_idx = flat_idx[order]
    sorted_g = g2[order]
    starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
    buf2[sorted_idx[starts]] += np.add.reduceat(sorted_g, starts, axis=0)


def gather_rows(table: Tensor, idx) -> Tensor:
    """table[idx] along axis 0; idx is any integer array.

    Backward scatter-adds into the table: rows never indexed keep a
    bitwise-zero gradient; rows indexed multiple times accumulate.
    """
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"gather_rows needs integer indices, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(f"gather_rows index out of range [0, {table.data.shape[0]})")
    out = Tensor(table.data[idx])

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                # np.zeros, not zeros_like: pages no row lands on are never written
                table.grad = np.zeros(table.data.shape, dtype=table.data.dtype)
            scatter_add_into(table.grad, idx, g)

    return _register(out, table.requires_grad, backward)


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


def batched_dot(x: Tensor, rows: Tensor) -> Tensor:
    """x [m,d] with rows [m,k,d] -> [m,k]; out[m,k] = x[m] . rows[m,k]."""
    if x.data.ndim != 2 or rows.data.ndim != 3 or x.data.shape[0] != rows.data.shape[0] or x.data.shape[1] != rows.data.shape[2]:
        raise ValueError(f"batched_dot shape mismatch: {x.data.shape} vs {rows.data.shape}")
    count_macs(rows.data.shape[0] * rows.data.shape[1] * rows.data.shape[2])
    out = Tensor(np.einsum("md,mkd->mk", x.data, rows.data))

    def backward(g):
        if x.requires_grad:
            _accum(x, np.einsum("mk,mkd->md", g, rows.data))
        if rows.requires_grad:
            _accum(rows, np.einsum("mk,md->mkd", g, x.data))

    return _register(out, x.requires_grad or rows.requires_grad, backward)


def batched_weighted_sum(w: Tensor, rows: Tensor) -> Tensor:
    """w [m,k] with rows [m,k,d] -> [m,d]; out[m] = sum_k w[m,k] * rows[m,k]."""
    if w.data.ndim != 2 or rows.data.ndim != 3 or w.data.shape != rows.data.shape[:2]:
        raise ValueError(f"batched_weighted_sum shape mismatch: {w.data.shape} vs {rows.data.shape}")
    count_macs(rows.data.shape[0] * rows.data.shape[1] * rows.data.shape[2])
    out = Tensor(np.einsum("mk,mkd->md", w.data, rows.data))

    def backward(g):
        if w.requires_grad:
            _accum(w, np.einsum("md,mkd->mk", g, rows.data))
        if rows.requires_grad:
            _accum(rows, np.einsum("mk,md->mkd", w.data, g))

    return _register(out, w.requires_grad or rows.requires_grad, backward)


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
    and equal to a stable sort on the negated values. Rows long compared with
    k are narrowed to k survivors by partial selection, and only those are
    ordered; a row whose k-th largest value is shared across the cut (or that
    holds a NaN) takes the full stable sort instead. Accepts a Tensor or
    ndarray; returns (indices, values) as ndarrays.
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
    # the k largest in any order (NaN counts as largest here), then ids ascending
    idx = np.sort(np.argpartition(v, n - k, axis=-1)[..., n - k :], axis=-1)
    vals = np.take_along_axis(v, idx, axis=-1)
    kth = vals.min(axis=-1, keepdims=True)
    # the survivors are exactly the values >= the k-th unless it is tied
    # across the cut; a NaN makes kth NaN or leaves a survivor uncounted
    straddle = np.count_nonzero(v >= kth, axis=-1) != k
    order = np.argsort(-vals, axis=-1, kind="stable")
    idx = np.take_along_axis(idx, order, axis=-1)
    if straddle.any():
        if v.ndim == 1:
            idx = np.argsort(-v, kind="stable")[:k]
        else:
            idx[straddle] = np.argsort(-v[straddle], axis=-1, kind="stable")[..., :k]
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
        p.grad = None
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
