"""The PEER layer: product-key retrieval over a pool of single-neuron experts.

Each of `heads` query networks maps the token state to a query, retrieves
`topk` experts from the shared product-key index, normalizes the retrieved
scores (softmax within the head by default), and sums the score-weighted
expert outputs. An expert is a single hidden neuron: down(x) -> activation
-> scaled up-projection row, optionally gated (GLU variant).

Only the retrieved experts' rows participate in the forward pass, so their
gradients are sparse: rows no token retrieved stay bitwise zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .product_keys import OpCounter, ProductKeyIndex, build_index, retrieve_topk_batch
from .tensor import BNState, Tensor

SCORE_NORMS = ("softmax_per_head", "sigmoid")


@dataclass
class PeerConfig:
    n_experts: int = 4096
    heads: int = 4
    topk: int = 4
    d_model: int = 64
    query_dim: int = 128
    activation: str = "gelu"
    score_norm: str = "softmax_per_head"
    query_bn: bool = True
    glu: bool = False

    def __post_init__(self):
        sqrt_n = math.isqrt(int(self.n_experts))
        if sqrt_n * sqrt_n != self.n_experts:
            raise ValueError(f"n_experts must be a perfect square, got {self.n_experts}")
        if not 1 <= self.topk <= sqrt_n:
            raise ValueError(f"topk must be in [1, sqrt(n_experts)={sqrt_n}], got {self.topk}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.query_dim % 2 != 0:
            raise ValueError(f"query_dim must be even, got {self.query_dim}")
        if self.activation not in ("relu", "gelu"):
            raise ValueError(f"activation must be 'relu' or 'gelu', got {self.activation!r}")
        if self.score_norm not in SCORE_NORMS:
            raise ValueError(f"score_norm must be one of {SCORE_NORMS}, got {self.score_norm!r}")

    @property
    def granularity(self) -> int:
        """Active experts per token."""
        return self.heads * self.topk


@dataclass
class ExpertStore:
    """Embedding tables holding every expert's weight vectors, one row each."""

    w_down: Tensor  # [n_experts, d_model]
    w_up: Tensor  # [n_experts, d_model]
    w_gate: Tensor | None = None  # [n_experts, d_model], GLU variant only


@dataclass
class PeerRouting:
    """Per-token retrieval echo: expert ids and normalized combine weights."""

    indices: np.ndarray  # int64 [tokens, heads, topk]
    weights: np.ndarray  # float [tokens, heads, topk]
    n_experts: int


class PeerLayer:
    """Feedforward replacement; all heads share one expert pool and index."""

    def __init__(self, config: PeerConfig, index: ProductKeyIndex, query_nets: list[Tensor], bn: BNState | None, experts: ExpertStore):
        if index.n_experts != config.n_experts or index.key_dim != config.query_dim:
            raise ValueError(
                f"index ({index.n_experts} experts, key dim {index.key_dim}) does not match "
                f"config ({config.n_experts} experts, query dim {config.query_dim})"
            )
        if len(query_nets) != config.heads:
            raise ValueError(f"expected {config.heads} query networks, got {len(query_nets)}")
        if config.query_bn and bn is None:
            raise ValueError("config.query_bn is set but no BN state was provided")
        self.config = config
        self.index = index
        self.query_nets = query_nets
        self.bn = bn
        self.experts = experts

    @classmethod
    def build(cls, config: PeerConfig, seed: int = 0, dtype=np.float64) -> "PeerLayer":
        rng = np.random.default_rng(seed)
        index = build_index(config.n_experts, config.query_dim, seed=seed, dtype=dtype)
        query_nets = [
            Tensor(rng.normal(0.0, 1.0 / math.sqrt(config.d_model), size=(config.d_model, config.query_dim)).astype(dtype), requires_grad=True)
            for _ in range(config.heads)
        ]
        bn = BNState.create(config.query_dim, dtype=dtype) if config.query_bn else None
        down_std = 1.0 / math.sqrt(config.d_model)
        up_std = 1.0 / math.sqrt(config.heads * config.topk)
        experts = ExpertStore(
            w_down=Tensor(rng.normal(0.0, down_std, size=(config.n_experts, config.d_model)).astype(dtype), requires_grad=True),
            w_up=Tensor(rng.normal(0.0, up_std, size=(config.n_experts, config.d_model)).astype(dtype), requires_grad=True),
            w_gate=Tensor(rng.normal(0.0, down_std, size=(config.n_experts, config.d_model)).astype(dtype), requires_grad=True)
            if config.glu
            else None,
        )
        return cls(config, index, query_nets, bn, experts)

    def named_parameters(self) -> dict[str, Tensor]:
        params = {
            "peer.subkeys.c": self.index.left.keys,
            "peer.subkeys.cp": self.index.right.keys,
        }
        for h, w in enumerate(self.query_nets):
            params[f"peer.query.{h}.w"] = w
        if self.bn is not None:
            params["peer.bn.scale"] = self.bn.scale
            params["peer.bn.shift"] = self.bn.shift
        params["peer.experts.down"] = self.experts.w_down
        params["peer.experts.up"] = self.experts.w_up
        if self.experts.w_gate is not None:
            params["peer.experts.gate"] = self.experts.w_gate
        return params

    def named_state(self) -> dict[str, np.ndarray]:
        if self.bn is None:
            return {}
        return {"peer.bn.mean": self.bn.running_mean, "peer.bn.var": self.bn.running_var}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        if self.bn is not None:
            self.bn.running_mean = state["peer.bn.mean"].copy()
            self.bn.running_var = state["peer.bn.var"].copy()

    def forward(self, x: Tensor, mode: str = "infer", collect_routing: bool = False, counter: OpCounter | None = None):
        return peer_forward(self, x, mode=mode, collect_routing=collect_routing, counter=counter)


def _flatten_tokens(x: Tensor) -> tuple[Tensor, tuple[int, ...]]:
    if x.data.ndim == 2:
        return x, x.data.shape
    if x.data.ndim == 3:
        b, t, d = x.data.shape
        return T.reshape(x, (b * t, d)), (b, t, d)
    raise ValueError(f"expected x of shape [tokens, d_model] or [batch, time, d_model], got {x.data.shape}")


def peer_forward(
    layer: PeerLayer,
    x: Tensor,
    mode: str = "infer",
    collect_routing: bool = False,
    counter: OpCounter | None = None,
) -> tuple[Tensor, PeerRouting | None]:
    """Route every token through its top experts and sum the head outputs.

    Returns (y, routing); routing is populated only when `collect_routing`
    (it echoes expert ids and normalized weights per token and head).
    Differentiable end to end except the top-k selection itself: gradients
    flow through the selected scores and selected expert rows only.
    """
    cfg = layer.config
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    x2, in_shape = _flatten_tokens(x)
    m, d_model = x2.data.shape
    if d_model != cfg.d_model:
        raise ValueError(f"input feature dim {d_model} != configured d_model {cfg.d_model}")
    if mode == "train" and cfg.query_bn and m < 2:
        raise ValueError("train mode with query batch norm needs at least 2 tokens")

    # Queries for every head stacked head-major [heads*m, d], then one shared
    # feature-wise BN over all of them (applied before the half split).
    q_heads = [T.matmul(x2, w) for w in layer.query_nets]
    q_all = T.concat(q_heads, axis=0) if cfg.heads > 1 else q_heads[0]
    if layer.bn is not None:
        q_all = T.batch_norm(q_all, layer.bn, mode)

    sqrt_n = layer.index.sqrt_n
    half = cfg.query_dim // 2
    activation = T.ACTIVATIONS[cfg.activation]

    # One retrieval for all heads x tokens; selection is not differentiated.
    idx, _raw = retrieve_topk_batch(layer.index, q_all.data, cfg.topk, counter=counter)

    # Recompute the selected scores differentiably from the sub-keys. The
    # retrieval instrument already charged these products; keep the meter off.
    with T.macs_uncounted():
        q1 = T.col_slice(q_all, 0, half)
        q2 = T.col_slice(q_all, half, cfg.query_dim)
        scores = T.add(T.gather_dot(q1, layer.index.left.keys, idx // sqrt_n), T.gather_dot(q2, layer.index.right.keys, idx % sqrt_n))

    # softmax normalizes over the k retrieved scores within each head
    weights = T.softmax(scores) if cfg.score_norm == "softmax_per_head" else T.sigmoid(scores)

    x_rep = T.concat([x2] * cfg.heads, axis=0) if cfg.heads > 1 else x2
    act = activation(T.gather_dot(x_rep, layer.experts.w_down, idx))
    if layer.experts.w_gate is not None:
        act = T.mul(act, T.gather_dot(x_rep, layer.experts.w_gate, idx))
    y_flat = T.gather_weighted_sum(T.mul(weights, act), layer.experts.w_up, idx)  # [heads*m, d_model]

    y = T.row_slice(y_flat, 0, m) if cfg.heads > 1 else y_flat
    for h in range(1, cfg.heads):
        y = T.add(y, T.row_slice(y_flat, h * m, (h + 1) * m))

    routing = None
    if collect_routing:
        routing = PeerRouting(
            indices=idx.reshape(cfg.heads, m, cfg.topk).transpose(1, 0, 2).copy(),
            weights=weights.data.reshape(cfg.heads, m, cfg.topk).transpose(1, 0, 2).copy(),
            n_experts=cfg.n_experts,
        )
    if len(in_shape) == 3:
        y = T.reshape(y, in_shape)
    return y, routing


def peer_backward(layer: PeerLayer, x: Tensor, upstream, mode: str = "train") -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Run a recorded forward and pull gradients back from `upstream` (dL/dy).

    Returns ({parameter name: gradient}, dL/dx). Expert rows outside the
    retrieved set come back as exact zeros.
    """
    params = layer.named_parameters()
    for p in params.values():
        p.zero_grad()
    x.zero_grad()
    had_grad = x.requires_grad
    x.requires_grad = True
    try:
        with T.Tape() as tape:
            y, _ = peer_forward(layer, x, mode=mode)
            tape.backward(y, grad=upstream)
    finally:
        x.requires_grad = had_grad
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params.items()}
    x_grad = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    return grads, x_grad


def assemble_dense_equivalent(layer: PeerLayer, x: Tensor, mode: str = "infer") -> tuple[np.ndarray, np.ndarray]:
    """Stack the per-head retrieved expert vectors for one token into (W, V).

    With topk=1 and per-head softmax normalization every combine weight is
    exactly 1, so the layer output equals V @ activation(W.T @ x): the layer
    behaves as a dynamically assembled one-hidden-layer MLP with `heads`
    neurons. Requires topk=1, softmax normalization, and no gating.
    """
    cfg = layer.config
    if cfg.topk != 1:
        raise ValueError(f"dense equivalent requires topk=1, got topk={cfg.topk}")
    if cfg.score_norm != "softmax_per_head":
        raise ValueError("dense equivalent requires softmax_per_head score normalization")
    if layer.experts.w_gate is not None:
        raise ValueError("dense equivalent is undefined for gated (GLU) experts")
    q = x.data if isinstance(x, Tensor) else np.asarray(x)
    if q.ndim != 1 or q.shape[0] != cfg.d_model:
        raise ValueError(f"expected a single token of dim {cfg.d_model}, got shape {q.shape}")
    _, routing = peer_forward(layer, Tensor(q[None, :], dtype=q.dtype), mode=mode, collect_routing=True)
    ids = routing.indices[0, :, 0]
    w = layer.experts.w_down.data[ids].T.copy()  # [d_model, heads]
    v = layer.experts.w_up.data[ids].T.copy()
    return w, v


def record_usage(routing: PeerRouting, acc) -> None:
    """Add this routing echo's normalized weights into a usage accumulator."""
    if routing.indices.size and (routing.indices.min() < 0 or routing.indices.max() >= routing.n_experts):
        raise IndexError(f"routing contains expert ids outside [0, {routing.n_experts})")
    acc.accumulate(routing.indices.ravel(), routing.weights.ravel(), tokens=routing.indices.shape[0])
