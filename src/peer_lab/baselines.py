"""Comparison layers behind the same feedforward-replacement interface:
a dense FFW, a product-key memory (constant payloads), and a desk-scale
expert-choice mixture of full-size experts.
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
    ProductKeyIndex,
    ProductKeyLayer,
    RouterConfig,
    retrieve_topk_batch,
)
from .tensor import BNState, Tensor


# ---------------------------------------------------------------------------
# Dense FFW
# ---------------------------------------------------------------------------


@dataclass
class DenseConfig:
    d_model: int = 64
    d_ff: int = 256
    activation: str = "gelu"

    def __post_init__(self):
        check_choice("activation", self.activation, ACTIVATIONS)

    def mac_per_token(self) -> int:
        return 2 * self.d_model * self.d_ff

    def param_counts(self, bias_accounting: bool = True) -> ParamCounts:
        total = 2 * self.d_model * self.d_ff
        return ParamCounts(total=total, active=total, expert=total, granularity=1.0)


class DenseFFW:
    """y = activation(x @ w_in) @ w_out, bias-free."""

    def __init__(self, config: DenseConfig, w_in: Tensor, w_out: Tensor, prefix: str = "dense"):
        self.config = config
        self.w_in = w_in
        self.w_out = w_out
        self.prefix = prefix

    @classmethod
    def build(cls, config: DenseConfig, seed: int = 0, dtype=np.float64, prefix: str = "dense") -> "DenseFFW":
        rng = np.random.default_rng(seed)
        w_in = rng.normal(0.0, 1.0 / math.sqrt(config.d_model), size=(config.d_model, config.d_ff)).astype(dtype)
        w_out = rng.normal(0.0, 1.0 / math.sqrt(config.d_ff), size=(config.d_ff, config.d_model)).astype(dtype)
        return cls(config, Tensor(w_in, requires_grad=True), Tensor(w_out, requires_grad=True), prefix=prefix)

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

    def __init__(self, config: PkmConfig, index: ProductKeyIndex, query_nets: list[Tensor], bn: BNState | None, values: Tensor):
        super().__init__(config, index, query_nets, bn)
        self.values = values

    @classmethod
    def build(cls, config: PkmConfig, seed: int = 0, dtype=np.float64) -> "PkmLayer":
        rng, index, query_nets, bn = cls.build_router(config, seed, dtype)
        values = Tensor(
            rng.normal(0.0, 1.0 / math.sqrt(config.heads * config.topk), size=(config.n_memories, config.d_model)).astype(dtype),
            requires_grad=True,
        )
        return cls(config, index, query_nets, bn, values)

    def named_parameters(self) -> dict[str, Tensor]:
        params = self.router_parameters()
        params["pkm.values"] = self.values
        return params

    def forward(self, x: Tensor, mode: str = "infer"):
        return pkm_forward(self, x, mode=mode)


def pkm_forward(layer: PkmLayer, x: Tensor, mode: str = "infer") -> tuple[Tensor, PeerRouting]:
    """y = sum over heads of the score-weighted retrieved memory vectors.

    The payload does not depend on x beyond which slots the router picks.
    Returns (y, routing) as `ProductKeyLayer.route` does.
    """
    return layer.route(x, mode, lambda x, idx, weights: T.gather_weighted_sum(weights, layer.values, idx))


# ---------------------------------------------------------------------------
# Expert-choice MoE (small number of full-size experts)
# ---------------------------------------------------------------------------


@dataclass
class MoeConfig:
    n_experts: int = 4
    d_model: int = 64
    d_ff: int = 256
    granularity: int = 2  # average active experts per token, sets capacity
    activation: str = "gelu"

    def __post_init__(self):
        if self.n_experts < 1:
            raise ValueError(f"n_experts must be >= 1, got {self.n_experts}")
        if self.granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {self.granularity}")
        check_choice("activation", self.activation, ACTIVATIONS)

    def mac_per_token(self) -> int:
        return self.d_model * self.n_experts + self.granularity * 2 * self.d_model * self.d_ff

    def param_counts(self, bias_accounting: bool = True) -> ParamCounts:
        expert = 2 * self.d_model * self.d_ff
        total = self.n_experts * expert + self.d_model * self.n_experts
        return ParamCounts(total=total, active=self.granularity * expert, expert=expert, granularity=float(self.granularity))


class ExpertChoiceMoE:
    """Each expert picks its own top-capacity tokens, so load is balanced."""

    def __init__(self, config: MoeConfig, gate: Tensor, experts: list[DenseFFW]):
        self.config = config
        self.gate = gate
        self.experts = experts

    @classmethod
    def build(cls, config: MoeConfig, seed: int = 0, dtype=np.float64) -> "ExpertChoiceMoE":
        rng = np.random.default_rng(seed)
        gate = Tensor(rng.normal(0.0, 1.0 / math.sqrt(config.d_model), size=(config.d_model, config.n_experts)).astype(dtype), requires_grad=True)
        expert_cfg = DenseConfig(d_model=config.d_model, d_ff=config.d_ff, activation=config.activation)
        experts = [DenseFFW.build(expert_cfg, seed=seed + 1 + e, dtype=dtype, prefix=f"moe.expert{e}") for e in range(config.n_experts)]
        return cls(config, gate, experts)

    def capacity(self, n_tokens: int) -> int:
        return math.ceil(n_tokens * self.config.granularity / self.config.n_experts)

    def named_parameters(self) -> dict[str, Tensor]:
        params = {"moe.gate": self.gate}
        for e in self.experts:
            params.update(e.named_parameters())
        return params

    def named_state(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: Tensor, mode: str = "infer"):
        return expert_choice_forward(self, x), None


def expert_choice_forward(layer: ExpertChoiceMoE, x: Tensor, capacity: int | None = None) -> Tensor:
    """Gate scores are softmaxed over experts per token; every expert then
    independently processes its top-capacity tokens (ties to the lower token
    index). Tokens picked by nobody contribute zeros.
    """
    m = x.data.shape[0]
    if m < 1:
        raise ValueError("expert_choice_forward needs at least one token")
    c = layer.capacity(m) if capacity is None else capacity
    if c < 1:
        raise ValueError(f"capacity must be >= 1, got {c}")
    c = min(c, m)

    scores = T.softmax(T.matmul(x, layer.gate))  # [m, n_experts]
    y = Tensor(np.zeros_like(x.data))  # zero base carried through scatter adds
    for e, expert in enumerate(layer.experts):
        col = scores.data[:, e]
        token_idx, _ = T.top_k(col, c)
        picked_x = T.gather_rows(x, token_idx)
        out = dense_forward(expert, picked_x)
        picked_scores = T.gather_rows(T.col_slice(scores, e, e + 1), token_idx)  # [c, 1]
        y = T.scatter_rows_add(y, token_idx, T.mul(out, picked_scores))
    return y
