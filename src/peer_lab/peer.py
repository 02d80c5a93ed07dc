"""The PEER layer: product-key retrieval over a pool of single-neuron experts.

Each of `heads` query networks maps the token state to a query, retrieves
`topk` experts from the shared product-key index, normalizes the retrieved
scores (softmax within the head by default), and sums the score-weighted
expert outputs. An expert is a single hidden neuron: down(x) -> activation
-> scaled up-projection row, optionally gated (GLU variant).

The routing is `product_keys.ProductKeyLayer`, which PKM shares; this module
adds the experts. Only the retrieved experts' rows participate in the forward
pass, so their gradients are sparse: rows no token retrieved stay bitwise zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .analysis import ParamCounts
from .config import ACTIVATIONS, check_choice
# retrieve_topk_batch is not called here; it stays bound in this module,
# where tools that time the layers (perfbench/spans.py) look for it.
from .product_keys import (  # noqa: F401
    PeerRouting,
    ProductKeyLayer,
    RouterConfig,
    retrieve_topk_batch,
)
from .tensor import Tensor


@dataclass
class PeerConfig(RouterConfig):
    n_experts: int = 4096
    activation: str = "gelu"
    glu: bool = False

    def __post_init__(self):
        super().__post_init__()
        check_choice("activation", self.activation, ACTIVATIONS)

    @property
    def granularity(self) -> int:
        """Active experts per token."""
        return self.heads * self.topk

    def mac_per_token(self) -> int:
        return self.router_macs() + (3 if self.glu else 2) * self.d_model * self.heads * self.topk

    def param_counts(self, bias_accounting: bool = True) -> ParamCounts:
        """One expert is one hidden neuron: its down and up rows, plus one
        bias slot when `bias_accounting` (the experts carry no bias)."""
        expert = 2 * self.d_model + (1 if bias_accounting else 0)
        active = expert * self.heads * self.topk
        total = self.n_experts * (3 if self.glu else 2) * self.d_model + self.router_numel()
        return ParamCounts(total=total, active=active, expert=expert, granularity=active / expert)


class PeerLayer(ProductKeyLayer):
    """Feedforward replacement; all heads share one expert pool and index."""

    prefix = "peer"

    def __init__(self, config: PeerConfig, seed: int = 0, dtype=np.float64):
        rng = self.build_router(config, seed, dtype)
        down_std = 1.0 / math.sqrt(config.d_model)
        up_std = 1.0 / math.sqrt(config.heads * config.topk)
        shape = (config.n_experts, config.d_model)  # one row per expert; a gate row only with GLU
        self.w_down = Tensor(T.normal_rows(rng, down_std, shape, dtype), requires_grad=True)
        self.w_up = Tensor(T.normal_rows(rng, up_std, shape, dtype), requires_grad=True)
        self.w_gate = Tensor(T.normal_rows(rng, down_std, shape, dtype), requires_grad=True) if config.glu else None

    def named_parameters(self) -> dict[str, Tensor]:
        params = self.router_parameters()
        params["peer.experts.down"] = self.w_down
        params["peer.experts.up"] = self.w_up
        if self.w_gate is not None:
            params["peer.experts.gate"] = self.w_gate
        return params

    def forward(self, x: Tensor, mode: str = "infer"):
        return peer_forward(self, x, mode=mode)


def peer_forward(layer: PeerLayer, x: Tensor, mode: str = "infer") -> tuple[Tensor, PeerRouting]:
    """Route every token through its top experts over all heads.

    Each retrieved expert is one hidden neuron: down(x) -> activation
    (times gate(x) for GLU) -> its score-weighted up row; one gathered sum
    adds a token's heads*topk up rows. Returns (y, the routing echo of
    `ProductKeyLayer.route`).
    """
    idx, weights, routing = layer.route(x, mode)
    act = T.ACTIVATIONS[layer.config.activation](T.gather_dot(x, layer.w_down, idx))
    if layer.w_gate is not None:
        act = T.mul(act, T.gather_dot(x, layer.w_gate, idx))
    return T.gather_weighted_sum(T.mul(weights, act), layer.w_up, idx), routing


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
    if layer.w_gate is not None:
        raise ValueError("dense equivalent is undefined for gated (GLU) experts")
    q = x.data if isinstance(x, Tensor) else np.asarray(x)
    if q.ndim != 1 or q.shape[0] != cfg.d_model:
        raise ValueError(f"expected a single token of dim {cfg.d_model}, got shape {q.shape}")
    _, routing = peer_forward(layer, Tensor(q[None, :], dtype=q.dtype), mode=mode)
    ids = routing.indices[0, :, 0]
    w = layer.w_down.data[ids].T.copy()  # [d_model, heads]
    v = layer.w_up.data[ids].T.copy()
    return w, v


def record_usage(routing: PeerRouting, acc) -> None:
    """Add this routing echo's normalized weights into a usage accumulator over the same experts."""
    if acc.z_prime.size != routing.n_experts:
        raise ValueError(f"accumulator holds {acc.z_prime.size} experts, routing echo has {routing.n_experts}")
    acc.accumulate(routing.indices.ravel(), routing.weights.ravel())
