"""Product-key retrieval: exact top-k maximum-inner-product search.

The index stores two trainable sub-key sets of sqrt(N) half-dimension keys;
the full key of expert ``e = i * sqrt(N) + j`` is the concatenation of left
sub-key i and right sub-key j. A query is split in half, scored against each
side, and the per-side top-k candidates are combined, which finds the exact
global top-k in O((sqrt(N) + k^2) d) multiply-accumulates per query instead
of the O(N d) of exhaustive scoring.

Ties break toward the smaller index at every selection stage, so results are
fully deterministic and bit-identical to the exhaustive reference.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, count_macs, top_k

_SCRATCH = threading.local()


@dataclass
class OpCounter:
    """Tallies retrieval work: multiply-accumulates and comparisons."""

    multiply_accumulate_count: int = 0
    comparison_count: int = 0

    def add(self, macs: int, comparisons: int) -> None:
        self.multiply_accumulate_count += int(macs)
        self.comparison_count += int(comparisons)


@dataclass
class SubKeySet:
    """One trainable set of sqrt(N) sub-keys matching half of the query."""

    keys: Tensor  # [sqrt_n, d/2]
    side: str  # "left" (first half) or "right" (second half)


@dataclass
class ProductKeyIndex:
    left: SubKeySet
    right: SubKeySet

    @property
    def sqrt_n(self) -> int:
        return self.left.keys.data.shape[0]

    @property
    def n_experts(self) -> int:
        return self.sqrt_n * self.sqrt_n

    @property
    def key_dim(self) -> int:
        return 2 * self.left.keys.data.shape[1]


@dataclass
class RetrievalResult:
    """Top-k expert ids with their raw (pre-normalization) inner products."""

    indices: np.ndarray  # int64 [k], unique
    scores: np.ndarray  # float [k], non-increasing


def build_index(n_experts: int, key_dim: int, init_scale: float | None = None, seed: int = 0, dtype=np.float64) -> ProductKeyIndex:
    """Create an index of `n_experts` (a perfect square) with even `key_dim`.

    Sub-keys are i.i.d. uniform in [-init_scale, +init_scale]; the default
    scale 1/sqrt(key_dim/2) keeps initial score variance O(1).
    """
    sqrt_n = math.isqrt(int(n_experts))
    if sqrt_n * sqrt_n != n_experts or n_experts < 1:
        raise ValueError(f"n_experts must be a positive perfect square, got {n_experts}")
    if key_dim % 2 != 0 or key_dim < 2:
        raise ValueError(f"key_dim must be a positive even number, got {key_dim}")
    half = key_dim // 2
    if init_scale is None:
        init_scale = 1.0 / math.sqrt(half)
    rng = np.random.default_rng(seed)
    left = rng.uniform(-init_scale, init_scale, size=(sqrt_n, half)).astype(dtype)
    right = rng.uniform(-init_scale, init_scale, size=(sqrt_n, half)).astype(dtype)
    return ProductKeyIndex(
        left=SubKeySet(Tensor(left, requires_grad=True), side="left"),
        right=SubKeySet(Tensor(right, requires_grad=True), side="right"),
    )


def _check_query(index: ProductKeyIndex, query: np.ndarray) -> np.ndarray:
    q = query.data if isinstance(query, Tensor) else np.asarray(query)
    if q.ndim != 1 or q.shape[0] != index.key_dim:
        raise ValueError(f"query must be a vector of dim {index.key_dim}, got shape {q.shape}")
    return q


def _check_finite(q: np.ndarray) -> None:
    """A NaN or inf query has no top-k: scores tie or compare arbitrarily."""
    finite = np.isfinite(q).all(axis=-1)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise ValueError(f"{bad} of {finite.size} query rows are non-finite (NaN or inf); retrieval needs finite queries")


def retrieve_topk(index: ProductKeyIndex, query, k: int, counter: OpCounter | None = None) -> RetrievalResult:
    """Exact top-k expert ids for one query via the product-key structure.

    Splits the query in two, takes the per-side top-k over sub-key inner
    products, and re-ranks the k^2 candidate sums. The true top-k is always
    contained in the candidates, so the result equals exhaustive search.
    Requires k <= sqrt(N) (each side must supply k candidates) and a finite
    query (ValueError otherwise).
    """
    q = _check_query(index, query)
    _check_finite(q)
    sqrt_n = index.sqrt_n
    if not 1 <= k <= sqrt_n:
        raise ValueError(f"k must be in [1, sqrt(N)={sqrt_n}], got {k}")
    half = index.key_dim // 2
    s_left = index.left.keys.data @ q[:half]
    s_right = index.right.keys.data @ q[half:]

    # arrange per-side winners by sub-index so candidates come out in
    # ascending expert-id order; the stable top-k then breaks ties by id
    i_top = np.sort(top_k(s_left, k)[0])
    j_top = np.sort(top_k(s_right, k)[0])
    s1, s2 = s_left[i_top], s_right[j_top]

    cand_scores = (s1[:, None] + s2[None, :]).ravel()
    cand_ids = (i_top[:, None] * sqrt_n + j_top[None, :]).ravel()
    sel, scores = top_k(cand_scores, k)

    if counter is not None:
        counter.add(macs=sqrt_n * index.key_dim + k * k, comparisons=2 * sqrt_n + k * k)
    count_macs(sqrt_n * index.key_dim + k * k)
    return RetrievalResult(indices=cand_ids[sel].astype(np.int64), scores=scores)


def retrieve_topk_batch(index: ProductKeyIndex, queries, k: int, counter: OpCounter | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized retrieve_topk over queries [m,d] -> (indices [m,k], scores [m,k]).

    Same math, selection rule, and per-query operation counts as the
    single-query path; only the numpy batching differs.
    """
    q = queries.data if isinstance(queries, Tensor) else np.asarray(queries)
    if q.ndim != 2 or q.shape[1] != index.key_dim:
        raise ValueError(f"queries must have shape [m, {index.key_dim}], got {q.shape}")
    _check_finite(q)
    sqrt_n = index.sqrt_n
    if not 1 <= k <= sqrt_n:
        raise ValueError(f"k must be in [1, sqrt(N)={sqrt_n}], got {k}")
    m = q.shape[0]
    half = index.key_dim // 2
    s_left = q[:, :half] @ index.left.keys.data.T  # [m, sqrt_n]
    s_right = q[:, half:] @ index.right.keys.data.T

    # per-side winners by sub-index, as in retrieve_topk: candidates then come
    # out in ascending expert-id order and the stable top-k breaks ties by id
    i_top = np.sort(top_k(s_left, k)[0], axis=-1)
    j_top = np.sort(top_k(s_right, k)[0], axis=-1)
    s1 = np.take_along_axis(s_left, i_top, axis=-1)
    s2 = np.take_along_axis(s_right, j_top, axis=-1)

    cand_scores = (s1[:, :, None] + s2[:, None, :]).reshape(m, k * k)
    cand_ids = (i_top[:, :, None] * sqrt_n + j_top[:, None, :]).reshape(m, k * k)
    sel, scores = top_k(cand_scores, k)
    indices = np.take_along_axis(cand_ids, sel, axis=-1)

    if counter is not None:
        counter.add(macs=m * (sqrt_n * index.key_dim + k * k), comparisons=m * (2 * sqrt_n + k * k))
    count_macs(m * (sqrt_n * index.key_dim + k * k))
    return indices.astype(np.int64), scores


def retrieve_exhaustive(index: ProductKeyIndex, query, k: int, counter: OpCounter | None = None) -> RetrievalResult:
    """Reference oracle: materialize all N full keys and score every expert.

    Costs N*d multiply-accumulates. Inner products are evaluated as the sum
    of the two half dot products, matching the summation order of the
    product-key path so scores agree bitwise.
    """
    q = _check_query(index, query)
    sqrt_n = index.sqrt_n
    n = index.n_experts
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, N={n}], got {k}")
    half = index.key_dim // 2
    # row e = i*sqrt_n + j holds [left sub-key i, right sub-key j]; the
    # materialization buffer is reused across calls (thread-local scratch)
    shape = (sqrt_n, sqrt_n, half)
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = _SCRATCH.pool = {}
    key = (shape, index.left.keys.data.dtype)
    if key not in pool:
        pool[key] = (np.empty(shape, dtype=index.left.keys.data.dtype), np.empty(shape, dtype=index.left.keys.data.dtype))
    left_buf, right_buf = pool[key]
    left_buf[:] = index.left.keys.data[:, None, :]
    right_buf[:] = index.right.keys.data[None, :, :]
    left_full = left_buf.reshape(n, half)
    right_full = right_buf.reshape(n, half)
    scores = left_full @ q[:half] + right_full @ q[half:]
    idx, vals = top_k(scores, k)
    if counter is not None:
        counter.add(macs=n * index.key_dim, comparisons=n)
    return RetrievalResult(indices=idx.astype(np.int64), scores=vals)


def retrieval_backward(index: ProductKeyIndex, query, result: RetrievalResult, upstream_score_grads) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Adjoint of the selected scores wrt the query and sub-keys.

    For each selected expert (i, j) with upstream gradient g on its score:
    grad q_left += g * left[i], grad left[i] += g * q_left, and likewise for
    the right half. Sub-keys never selected get exactly zero gradient.
    Returns (grad_query, {"left": grad_left, "right": grad_right}).
    """
    q = _check_query(index, query)
    g = np.asarray(upstream_score_grads, dtype=q.dtype)
    if g.shape != result.scores.shape:
        raise ValueError(f"upstream grads shape {g.shape} != scores shape {result.scores.shape}")
    sqrt_n = index.sqrt_n
    if result.indices.size and (result.indices.min() < 0 or result.indices.max() >= index.n_experts):
        raise ValueError("result does not belong to this index: expert id out of range")
    half = index.key_dim // 2
    i_idx = result.indices // sqrt_n
    j_idx = result.indices % sqrt_n

    grad_q = np.zeros_like(q)
    grad_left = np.zeros_like(index.left.keys.data)
    grad_right = np.zeros_like(index.right.keys.data)

    grad_q[:half] = g @ index.left.keys.data[i_idx]
    grad_q[half:] = g @ index.right.keys.data[j_idx]
    np.add.at(grad_left, i_idx, g[:, None] * q[:half])
    np.add.at(grad_right, j_idx, g[:, None] * q[half:])
    return grad_q, {"left": grad_left, "right": grad_right}
