"""Comparison layers behind the same feedforward-replacement interface:
a dense FFW, a product-key memory (constant payloads), and a desk-scale
token-choice mixture of full-size experts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .analysis import ParamCounts
from .config import ACTIVATIONS, check_choice, check_sizes
# retrieve_topk_batch is not called here; it stays bound in this module,
# where tools that time the layers (perfbench/spans.py) look for it.
from .product_keys import (  # noqa: F401
    PeerRouting,
    ProductKeyLayer,
    RouterConfig,
    retrieve_topk_batch,
)
from .tensor import Tensor


# ---------------------------------------------------------------------------
# Dense FFW
# ---------------------------------------------------------------------------


@dataclass
class DenseConfig:
    d_model: int = 64
    d_ff: int = 256
    activation: str = "gelu"

    def __post_init__(self):
        check_sizes(self, "d_model", "d_ff")
        check_choice("activation", self.activation, ACTIVATIONS)

    def mac_per_token(self) -> int:
        return 2 * self.d_model * self.d_ff

    def param_counts(self, bias_accounting: bool = True) -> ParamCounts:
        total = 2 * self.d_model * self.d_ff
        return ParamCounts(total=total, active=total, expert=total, granularity=1.0)


class DenseFFW:
    """y = activation(x @ w_in) @ w_out, bias-free."""

    def __init__(self, config: DenseConfig, seed: int = 0, dtype=np.float64, prefix: str = "dense"):
        rng = np.random.default_rng(seed)
        self.config = config
        self.w_in = Tensor(T.normal_rows(rng, 1.0 / math.sqrt(config.d_model), (config.d_model, config.d_ff), dtype), requires_grad=True)
        self.w_out = Tensor(T.normal_rows(rng, 1.0 / math.sqrt(config.d_ff), (config.d_ff, config.d_model), dtype), requires_grad=True)
        self.prefix = prefix

    def named_parameters(self) -> dict[str, Tensor]:
        return {f"{self.prefix}.w_in": self.w_in, f"{self.prefix}.w_out": self.w_out}

    def named_state(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: Tensor, mode: str = "infer"):
        return dense_forward(self, x), None


def dense_forward(layer: DenseFFW, x: Tensor) -> Tensor:
    act = T.ACTIVATIONS[layer.config.activation]
    return T.matmul(act(T.matmul(x, layer.w_in)), layer.w_out)


# ---------------------------------------------------------------------------
# Product-key memory (PKM)
# ---------------------------------------------------------------------------


@dataclass
class PkmConfig(RouterConfig):
    n_memories: int = 4096

    keys_field = "n_memories"

    def mac_per_token(self) -> int:
        return self.router_macs() + self.d_model * self.topk * self.heads

    def param_counts(self, bias_accounting: bool = True) -> ParamCounts:
        expert = self.d_model  # one constant memory vector
        active = expert * self.heads * self.topk
        total = self.n_memories * self.d_model + self.router_numel()
        return ParamCounts(total=total, active=active, expert=expert, granularity=active / expert)


class PkmLayer(ProductKeyLayer):
    """Same router as PEER, but the retrieved payloads are constant vectors."""

    prefix = "pkm"

    def __init__(self, config: PkmConfig, seed: int = 0, dtype=np.float64):
        rng = self.build_router(config, seed, dtype)
        std = 1.0 / math.sqrt(config.heads * config.topk)
        self.values = Tensor(T.normal_rows(rng, std, (config.n_memories, config.d_model), dtype), requires_grad=True)

    def named_parameters(self) -> dict[str, Tensor]:
        params = self.router_parameters()
        params["pkm.values"] = self.values
        return params

    def forward(self, x: Tensor, mode: str = "infer"):
        return pkm_forward(self, x, mode=mode)


def pkm_forward(layer: PkmLayer, x: Tensor, mode: str = "infer") -> tuple[Tensor, PeerRouting]:
    """y = sum over heads of the score-weighted retrieved memory vectors.

    The payload does not depend on x beyond which slots the router picks.
    Returns (y, the routing echo of `ProductKeyLayer.route`).
    """
    idx, weights, routing = layer.route(x, mode)
    return T.gather_weighted_sum(weights, layer.values, idx), routing


# ---------------------------------------------------------------------------
# Token-choice MoE (small number of full-size experts)
# ---------------------------------------------------------------------------


@dataclass
class MoeConfig:
    n_experts: int = 4
    d_model: int = 64
    d_ff: int = 256
    granularity: int = 2  # experts each token picks
    activation: str = "gelu"

    def __post_init__(self):
        check_sizes(self, "n_experts", "d_model", "d_ff", "granularity")
        if self.granularity > self.n_experts:
            raise ValueError(f"granularity must be <= n_experts={self.n_experts}, got {self.granularity}")
        check_choice("activation", self.activation, ACTIVATIONS)

    def mac_per_token(self) -> int:
        return self.d_model * self.n_experts + self.granularity * 2 * self.d_model * self.d_ff

    def param_counts(self, bias_accounting: bool = True) -> ParamCounts:
        expert = 2 * self.d_model * self.d_ff
        total = self.n_experts * expert + self.d_model * self.n_experts
        return ParamCounts(total=total, active=self.granularity * expert, expert=expert, granularity=float(self.granularity))


class MoeLayer:
    """A softmax gate over full-size dense experts; each token runs through its top-`granularity`."""

    def __init__(self, config: MoeConfig, seed: int = 0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        self.config = config
        self.gate = Tensor(T.normal_rows(rng, 1.0 / math.sqrt(config.d_model), (config.d_model, config.n_experts), dtype), requires_grad=True)
        expert_cfg = DenseConfig(d_model=config.d_model, d_ff=config.d_ff, activation=config.activation)
        self.experts = [DenseFFW(expert_cfg, seed=seed + 1 + e, dtype=dtype, prefix=f"moe.expert{e}") for e in range(config.n_experts)]

    def named_parameters(self) -> dict[str, Tensor]:
        params = {"moe.gate": self.gate}
        for e in self.experts:
            params.update(e.named_parameters())
        return params

    def named_state(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: Tensor, mode: str = "infer"):
        return moe_forward(self, x), None


def moe_forward(layer: MoeLayer, x: Tensor) -> Tensor:
    """Gate scores are softmaxed over experts per token, and each token picks
    its top-`granularity` experts (ties to the lower expert id). Each expert
    runs on exactly the tokens that picked it, and a token's output is the
    sum of its experts' outputs weighted by their scores, so it depends on
    no other token.
    """
    scores = T.softmax(T.matmul(x, layer.gate))  # [m, n_experts]
    picks, _ = T.top_k(scores.data, layer.config.granularity)  # [m, granularity]
    flat_scores = T.reshape(scores, (-1, 1))  # row t*n_experts + e: token t's score for expert e
    y = Tensor(np.zeros_like(x.data))  # zero base carried through scatter adds
    for e, expert in enumerate(layer.experts):
        token_idx = np.flatnonzero((picks == e).any(axis=1))
        out = dense_forward(expert, T.gather_rows(x, token_idx))
        picked_scores = T.gather_rows(flat_scores, token_idx * layer.config.n_experts + e)  # [tokens, 1]
        y = T.scatter_rows_add(y, token_idx, T.mul(out, picked_scores))
    return y
