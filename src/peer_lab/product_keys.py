"""Product-key retrieval: exact top-k maximum-inner-product search.

The index stores two trainable sub-key sets of sqrt(N) half-dimension keys;
the full key of expert ``e = i * sqrt(N) + j`` is the concatenation of left
sub-key i and right sub-key j. A query is split in half, scored against each
side, and the per-side top-k candidates are combined, which finds the exact
global top-k in O((sqrt(N) + k^2) d) multiply-accumulates per query instead
of the O(N d) of exhaustive scoring.

Ties break toward the smaller index at every selection stage, so results are
fully deterministic and bit-identical to the exhaustive reference.

`ProductKeyLayer` is the router PEER and PKM share: per-head query
networks, an optional batch norm over the queries, one batched retrieval and
the normalized scores of the retrieved keys. Those scores are the ones the
retrieval selected, put on the tape as they are, with no second pass over
the sub-keys. The two layers differ only in the payload they read at the
retrieved ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import MODES, SCORE_NORMS, check_choice, check_sizes
from .tensor import BNState, Tensor, count_macs, top_k


@dataclass
class ProductKeyIndex:
    """Two trainable sets of sqrt(N) sub-keys, [sqrt_n, d/2] each, matching
    the first (`left`) and the second (`right`) half of the query."""

    left: Tensor
    right: Tensor

    @property
    def sqrt_n(self) -> int:
        return self.left.data.shape[0]

    @property
    def n_experts(self) -> int:
        return self.sqrt_n * self.sqrt_n

    @property
    def key_dim(self) -> int:
        return 2 * self.left.data.shape[1]


@dataclass
class RetrievalResult:
    """Top-k expert ids with their raw (pre-normalization) inner products."""

    indices: np.ndarray  # int64 [k], unique
    scores: np.ndarray  # float [k], non-increasing


def build_index(n_experts: int, key_dim: int, seed: int = 0, dtype=np.float64) -> ProductKeyIndex:
    """Create an index of `n_experts` (a perfect square) with even `key_dim`.

    Sub-keys are i.i.d. uniform in [-s, +s] with s = 1/sqrt(key_dim/2), which
    keeps initial score variance O(1).
    """
    sqrt_n = math.isqrt(int(n_experts))
    if sqrt_n * sqrt_n != n_experts or n_experts < 1:
        raise ValueError(f"n_experts must be a positive perfect square, got {n_experts}")
    if key_dim % 2 != 0 or key_dim < 2:
        raise ValueError(f"key_dim must be a positive even number, got {key_dim}")
    half = key_dim // 2
    scale = 1.0 / math.sqrt(half)
    rng = np.random.default_rng(seed)
    left = rng.uniform(-scale, scale, size=(sqrt_n, half)).astype(dtype)
    right = rng.uniform(-scale, scale, size=(sqrt_n, half)).astype(dtype)
    return ProductKeyIndex(left=Tensor(left, requires_grad=True), right=Tensor(right, requires_grad=True))


def _check_query(index: ProductKeyIndex, query) -> np.ndarray:
    q = np.asarray(query)
    if q.ndim != 1 or q.shape[0] != index.key_dim:
        raise ValueError(f"query must be a vector of dim {index.key_dim}, got shape {q.shape}")
    _check_finite(q)
    return q


def _check_finite(q: np.ndarray) -> None:
    """A NaN or inf query has no top-k: scores tie or compare arbitrarily."""
    finite = np.isfinite(q).all(axis=-1)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise ValueError(f"{bad} of {finite.size} query rows are non-finite (NaN or inf); retrieval needs finite queries")


def retrieve_topk(index: ProductKeyIndex, query, k: int) -> RetrievalResult:
    """Exact top-k expert ids for one query via the product-key structure.

    Splits the query in two, takes the per-side top-k over sub-key inner
    products, and re-ranks the k^2 candidate sums. The true top-k is always
    contained in the candidates, so the result equals exhaustive search.
    Requires k <= sqrt(N) (each side must supply k candidates) and a finite
    query (ValueError otherwise). This is retrieve_topk_batch on one row.
    """
    q = _check_query(index, query)
    indices, scores = retrieve_topk_batch(index, q[None, :], k)
    return RetrievalResult(indices=indices[0], scores=scores[0])


# scores one retrieval tile may hold per sub-key side: at d = 128 the
# [rows, sqrt_n] blocks and top_k's masked copy stay in cache
TILE_SCORES = 1 << 18


def tile_rows(sqrt_n: int) -> int:
    """Rows of one retrieval tile at most: TILE_SCORES // sqrt_n, and at least 4,
    so near-equal tiles of m > 1 rows never leave a 1-row tile."""
    return max(4, TILE_SCORES // sqrt_n)


def retrieve_topk_batch(index: ProductKeyIndex, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k over queries [m,d] -> (indices [m,k], scores [m,k]).

    Each row is split in half and scored against both sub-key sets; each
    side's top-k winners, ordered by sub-index, give k^2 candidates in
    ascending expert-id order, and the stable top-k over their sums breaks
    ties toward the smaller id. The returned scores are those selected sums
    of the two per-side products, and `ProductKeyLayer.route` puts them on
    the tape as they are. Rows go through in near-equal tiles of at
    most `tile_rows(sqrt_n)` rows, so a tile's score blocks stay in cache;
    OpenBLAS gives a product of 2+ rows the bits of the untiled product, so
    tiling changes no result (one row goes through a matrix-vector product,
    which may round differently, and only a single query is one row).
    Charges the scoped `MacMeter` sqrt(N)*d + k^2 MACs and 2*sqrt(N) + k^2
    comparisons per query.
    """
    q = np.asarray(queries)
    if q.ndim != 2 or q.shape[1] != index.key_dim:
        raise ValueError(f"queries must have shape [m, {index.key_dim}], got {q.shape}")
    _check_finite(q)
    sqrt_n = index.sqrt_n
    if not 1 <= k <= sqrt_n:
        raise ValueError(f"k must be in [1, sqrt(N)={sqrt_n}], got {k}")
    m = q.shape[0]
    half = index.key_dim // 2
    left, right = index.left.data.T, index.right.data.T
    tiles = max(1, -(-m // tile_rows(sqrt_n)))
    bounds = [t * m // tiles for t in range(tiles + 1)]
    indices = np.empty((m, k), np.int64)
    scores = np.empty((m, k), np.result_type(q.dtype, left.dtype))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s_left = q[lo:hi, :half] @ left  # [rows, sqrt_n]
        s_right = q[lo:hi, half:] @ right

        # per-side winners by sub-index: candidates then come out in ascending
        # expert-id order and the stable top-k breaks ties by id
        i_top = np.sort(top_k(s_left, k)[0], axis=-1)
        j_top = np.sort(top_k(s_right, k)[0], axis=-1)
        s1 = np.take_along_axis(s_left, i_top, axis=-1)
        s2 = np.take_along_axis(s_right, j_top, axis=-1)

        cand_scores = (s1[:, :, None] + s2[:, None, :]).reshape(hi - lo, k * k)
        cand_ids = (i_top[:, :, None] * sqrt_n + j_top[:, None, :]).reshape(hi - lo, k * k)
        sel, scores[lo:hi] = top_k(cand_scores, k)
        indices[lo:hi] = np.take_along_axis(cand_ids, sel, axis=-1)

    count_macs(m * (sqrt_n * index.key_dim + k * k), comparisons=m * (2 * sqrt_n + k * k))
    return indices, scores


# sub-key values in one [rows, d/2] key block of the oracle: 2 MiB in float64
ORACLE_BLOCK = 1 << 18


def retrieve_exhaustive(index: ProductKeyIndex, query, k: int) -> RetrievalResult:
    """Reference oracle: score every expert's full key, one key block at a time.

    Expert e = i*sqrt_n + j has the key [left sub-key i, right sub-key j].
    A block of consecutive left sub-keys i0..i1 gives the keys of experts
    i0*sqrt_n .. i1*sqrt_n: its left halves (`np.repeat` of those sub-keys)
    and right halves (`np.tile` of all right sub-keys) are built, scored and
    freed in turn, each at most ORACLE_BLOCK values (or one left sub-key's
    rows), so no array the size of the key table is ever held; the scores
    go into one [N] array. A NaN or inf query is a ValueError.

    Charges the scoped `MacMeter` N*d MACs and N comparisons. Each inner
    product is the sum of the two half dot products, as on the product-key
    path, so the ids agree with it exactly; the scores agree up to the
    rounding of those two half-length dot products, which BLAS may sum in
    another order here (in float32 at d = 4 the last bit can differ). On
    integer-valued keys and queries every score is exact, and both paths
    agree bitwise.
    """
    q = _check_query(index, query)
    sqrt_n = index.sqrt_n
    n = index.n_experts
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, N={n}], got {k}")
    half = index.key_dim // 2
    left, right = index.left.data, index.right.data
    step = max(1, ORACLE_BLOCK // (sqrt_n * half))
    scores = np.empty(n, np.result_type(q.dtype, left.dtype))
    for i0 in range(0, sqrt_n, step):
        i1 = min(i0 + step, sqrt_n)
        block = np.repeat(left[i0:i1], sqrt_n, axis=0) @ q[:half]
        block += np.tile(right, (i1 - i0, 1)) @ q[half:]
        scores[i0 * sqrt_n : i1 * sqrt_n] = block
    idx, vals = top_k(scores, k)
    count_macs(n * index.key_dim, comparisons=n)
    return RetrievalResult(indices=idx.astype(np.int64), scores=vals)


# ---------------------------------------------------------------------------
# The product-key router behind PEER and PKM
# ---------------------------------------------------------------------------


@dataclass
class PeerRouting:
    """Per-token retrieval echo: expert ids and normalized combine weights."""

    indices: np.ndarray  # int64 [tokens, heads, topk]
    weights: np.ndarray  # float [tokens, heads, topk]
    n_experts: int


@dataclass
class RouterConfig:
    """The router fields PeerConfig and PkmConfig share, their validation and costs.

    A subclass adds the field holding the number of product keys, which
    `keys_field` names, and the fields of its payload.
    """

    heads: int = 4
    topk: int = 4
    d_model: int = 64
    query_dim: int = 128
    score_norm: str = "softmax_per_head"
    query_bn: bool = True

    keys_field = "n_experts"

    @property
    def n_keys(self) -> int:
        return getattr(self, self.keys_field)

    def __post_init__(self):
        check_sizes(self, self.keys_field, "heads", "d_model", "query_dim")
        sqrt_n = math.isqrt(int(self.n_keys))
        if sqrt_n * sqrt_n != self.n_keys:
            raise ValueError(f"{self.keys_field} must be a perfect square, got {self.n_keys}")
        if not 1 <= self.topk <= sqrt_n:
            raise ValueError(f"topk must be in [1, sqrt({self.keys_field})={sqrt_n}], got {self.topk}")
        if self.query_dim % 2 != 0:
            raise ValueError(f"query_dim must be even, got {self.query_dim}")
        check_choice("score_norm", self.score_norm, SCORE_NORMS)

    def router_numel(self) -> int:
        """Sub-keys, query nets and query BN (scale, shift, running mean and var)."""
        total = 2 * math.isqrt(self.n_keys) * (self.query_dim // 2) + self.heads * self.d_model * self.query_dim
        return total + (4 * self.query_dim if self.query_bn else 0)

    def router_macs(self) -> int:
        """Per token: each head's query net, both sides' sub-key scores and
        the k^2 candidate sums."""
        return self.heads * (self.d_model * self.query_dim + math.isqrt(self.n_keys) * self.query_dim + self.topk * self.topk)


class ProductKeyLayer:
    """Query networks, an optional query BN and a product-key index.

    A subclass sets `prefix` (the parameter-name prefix); its constructor
    calls `build_router` first, then draws the payload it reads at the ids
    `route` retrieves. `index`, `query_nets` and `bn` are read on every
    forward, so they may be reassigned, e.g. to share one index.
    """

    prefix = ""

    def build_router(self, config: RouterConfig, seed: int, dtype) -> np.random.Generator:
        """Set `config` and a fresh index, query nets and BN; return the
        generator the payload is drawn from next."""
        rng = np.random.default_rng(seed)
        self.config = config
        self.index = build_index(config.n_keys, config.query_dim, seed=seed, dtype=dtype)
        self.query_nets = [
            Tensor(T.normal_rows(rng, 1.0 / math.sqrt(config.d_model), (config.d_model, config.query_dim), dtype), requires_grad=True)
            for _ in range(config.heads)
        ]
        self.bn = BNState(config.query_dim, dtype=dtype) if config.query_bn else None
        return rng

    def router_parameters(self) -> dict[str, Tensor]:
        p = self.prefix
        params = {f"{p}.subkeys.c": self.index.left, f"{p}.subkeys.cp": self.index.right}
        for h, w in enumerate(self.query_nets):
            params[f"{p}.query.{h}.w"] = w
        if self.bn is not None:
            params[f"{p}.bn.scale"] = self.bn.scale
            params[f"{p}.bn.shift"] = self.bn.shift
        return params

    def named_state(self) -> dict[str, np.ndarray]:
        if self.bn is None:
            return {}
        return {f"{self.prefix}.bn.mean": self.bn.running_mean, f"{self.prefix}.bn.var": self.bn.running_var}

    def route(self, x: Tensor, mode: str) -> tuple[np.ndarray, Tensor, PeerRouting]:
        """Retrieve every token's top keys per head, with their normalized scores.

        Queries are token-major rows [m*heads, query_dim], row t*heads + h
        being head h of token t. Returns every token's ids and normalized
        scores over all heads, idx [m, heads*topk] and weights [m, heads*topk]
        (a Tensor), and the routing echo: the same ids and weights as
        [m, heads, topk] arrays. Gradients flow through the selected scores.
        """
        cfg = self.config
        check_choice("mode", mode, MODES)
        if x.data.ndim != 2:
            raise ValueError(f"expected token rows [tokens, d_model], got shape {x.data.shape}")
        m, d_model = x.data.shape
        if d_model != cfg.d_model:
            raise ValueError(f"input feature dim {d_model} != configured d_model {cfg.d_model}")
        if mode == "train" and cfg.query_bn and m < 2:
            raise ValueError("train mode with query batch norm needs at least 2 tokens")

        # Every head's query in one product, then one shared feature-wise BN
        # over all (token, head) rows (applied before the half split).
        q_all = T.reshape(T.matmul(x, T.concat(self.query_nets, axis=1)), (m * cfg.heads, cfg.query_dim))
        if self.bn is not None:
            q_all = T.batch_norm(q_all, self.bn, mode)

        # One retrieval for all tokens x heads; selection is not differentiated.
        # Its selected scores, the sums of its own sub-key products (already
        # metered), go on the tape as they are, differentiable in the queries
        # and sub-keys.
        sqrt_n = self.index.sqrt_n
        idx, raw = retrieve_topk_batch(self.index, q_all.data, cfg.topk)
        scores = T.product_key_scores(q_all, self.index.left, self.index.right, idx // sqrt_n, idx % sqrt_n, raw)

        # softmax normalizes over the k retrieved scores within each head
        weights = T.softmax(scores) if cfg.score_norm == "softmax_per_head" else T.sigmoid(scores)
        echo = (m, cfg.heads, cfg.topk)
        routing = PeerRouting(indices=idx.reshape(echo), weights=weights.data.reshape(echo), n_experts=cfg.n_keys)
        return idx.reshape(m, -1), T.reshape(weights, (m, -1)), routing
