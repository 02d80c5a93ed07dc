"""Comparison layers behind the same feedforward-replacement interface:
a dense FFW, a product-key memory (constant payloads), and a desk-scale
expert-choice mixture of full-size experts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .peer import PeerRouting, _flatten_tokens
from .product_keys import OpCounter, ProductKeyIndex, build_index, retrieve_topk_batch
from .tensor import BNState, Tensor


# ---------------------------------------------------------------------------
# Dense FFW
# ---------------------------------------------------------------------------


@dataclass
class DenseConfig:
    d_model: int = 64
    d_ff: int = 256
    activation: str = "gelu"


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

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        pass

    def forward(self, x: Tensor, mode: str = "infer", collect_routing: bool = False, counter: OpCounter | None = None):
        return dense_forward(self, x), None


def dense_forward(layer: DenseFFW, x: Tensor) -> Tensor:
    x2, in_shape = _flatten_tokens(x)
    act = T.ACTIVATIONS[layer.config.activation]
    y = T.matmul(act(T.matmul(x2, layer.w_in)), layer.w_out)
    if len(in_shape) == 3:
        y = T.reshape(y, in_shape)
    return y


# ---------------------------------------------------------------------------
# Product-key memory (PKM)
# ---------------------------------------------------------------------------


@dataclass
class PkmConfig:
    n_memories: int = 4096
    heads: int = 4
    topk: int = 4
    d_model: int = 64
    query_dim: int = 128
    score_norm: str = "softmax_per_head"
    query_bn: bool = True

    def __post_init__(self):
        sqrt_n = math.isqrt(int(self.n_memories))
        if sqrt_n * sqrt_n != self.n_memories:
            raise ValueError(f"n_memories must be a perfect square, got {self.n_memories}")
        if not 1 <= self.topk <= sqrt_n:
            raise ValueError(f"topk must be in [1, sqrt(n_memories)={sqrt_n}], got {self.topk}")
        if self.query_dim % 2 != 0:
            raise ValueError(f"query_dim must be even, got {self.query_dim}")


class PkmLayer:
    """Same router as PEER, but the retrieved payloads are constant vectors."""

    def __init__(self, config: PkmConfig, index: ProductKeyIndex, query_nets: list[Tensor], bn: BNState | None, values: Tensor):
        if index.n_experts != config.n_memories or index.key_dim != config.query_dim:
            raise ValueError("index does not match PKM config")
        self.config = config
        self.index = index
        self.query_nets = query_nets
        self.bn = bn
        self.values = values

    @classmethod
    def build(cls, config: PkmConfig, seed: int = 0, dtype=np.float64) -> "PkmLayer":
        rng = np.random.default_rng(seed)
        index = build_index(config.n_memories, config.query_dim, seed=seed, dtype=dtype)
        query_nets = [
            Tensor(rng.normal(0.0, 1.0 / math.sqrt(config.d_model), size=(config.d_model, config.query_dim)).astype(dtype), requires_grad=True)
            for _ in range(config.heads)
        ]
        bn = BNState.create(config.query_dim, dtype=dtype) if config.query_bn else None
        values = Tensor(
            rng.normal(0.0, 1.0 / math.sqrt(config.heads * config.topk), size=(config.n_memories, config.d_model)).astype(dtype),
            requires_grad=True,
        )
        return cls(config, index, query_nets, bn, values)

    def named_parameters(self) -> dict[str, Tensor]:
        params = {"pkm.subkeys.c": self.index.left.keys, "pkm.subkeys.cp": self.index.right.keys}
        for h, w in enumerate(self.query_nets):
            params[f"pkm.query.{h}.w"] = w
        if self.bn is not None:
            params["pkm.bn.scale"] = self.bn.scale
            params["pkm.bn.shift"] = self.bn.shift
        params["pkm.values"] = self.values
        return params

    def named_state(self) -> dict[str, np.ndarray]:
        if self.bn is None:
            return {}
        return {"pkm.bn.mean": self.bn.running_mean, "pkm.bn.var": self.bn.running_var}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        if self.bn is not None:
            self.bn.running_mean = state["pkm.bn.mean"].copy()
            self.bn.running_var = state["pkm.bn.var"].copy()

    def forward(self, x: Tensor, mode: str = "infer", collect_routing: bool = False, counter: OpCounter | None = None):
        return pkm_forward(self, x, mode=mode, collect_routing=collect_routing, counter=counter)


def pkm_forward(
    layer: PkmLayer,
    x: Tensor,
    mode: str = "infer",
    collect_routing: bool = False,
    counter: OpCounter | None = None,
) -> tuple[Tensor, PeerRouting | None]:
    """y = sum over heads of the score-weighted retrieved memory vectors.

    The payload does not depend on x beyond which slots the router picks.
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

    q_heads = [T.matmul(x2, w) for w in layer.query_nets]
    q_all = T.concat(q_heads, axis=0) if cfg.heads > 1 else q_heads[0]
    if layer.bn is not None:
        q_all = T.batch_norm(q_all, layer.bn, mode)

    sqrt_n = layer.index.sqrt_n
    half = cfg.query_dim // 2

    idx, _raw = retrieve_topk_batch(layer.index, q_all.data, cfg.topk, counter=counter)

    # Score recompute is uncounted: the retrieval instrument charged it already.
    with T.macs_uncounted():
        q1 = T.col_slice(q_all, 0, half)
        q2 = T.col_slice(q_all, half, cfg.query_dim)
        scores = T.add(T.gather_dot(q1, layer.index.left.keys, idx // sqrt_n), T.gather_dot(q2, layer.index.right.keys, idx % sqrt_n))
    weights = T.softmax(scores) if cfg.score_norm == "softmax_per_head" else T.sigmoid(scores)

    y_flat = T.gather_weighted_sum(weights, layer.values, idx)  # [heads*m, d_model] value readout

    y = T.row_slice(y_flat, 0, m) if cfg.heads > 1 else y_flat
    for h in range(1, cfg.heads):
        y = T.add(y, T.row_slice(y_flat, h * m, (h + 1) * m))

    routing = None
    if collect_routing:
        routing = PeerRouting(
            indices=idx.reshape(cfg.heads, m, cfg.topk).transpose(1, 0, 2).copy(),
            weights=weights.data.reshape(cfg.heads, m, cfg.topk).transpose(1, 0, 2).copy(),
            n_experts=cfg.n_memories,
        )
    if len(in_shape) == 3:
        y = T.reshape(y, in_shape)
    return y, routing


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

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        pass

    def forward(self, x: Tensor, mode: str = "infer", collect_routing: bool = False, counter: OpCounter | None = None):
        return expert_choice_forward(self, x), None


def expert_choice_forward(layer: ExpertChoiceMoE, x: Tensor, capacity: int | None = None) -> Tensor:
    """Gate scores are softmaxed over experts per token; every expert then
    independently processes its top-capacity tokens (ties to the lower token
    index). Tokens picked by nobody contribute zeros.
    """
    x2, in_shape = _flatten_tokens(x)
    m = x2.data.shape[0]
    if m < 1:
        raise ValueError("expert_choice_forward needs at least one token")
    c = layer.capacity(m) if capacity is None else capacity
    if c < 1:
        raise ValueError(f"capacity must be >= 1, got {c}")
    c = min(c, m)

    scores = T.softmax(T.matmul(x2, layer.gate))  # [m, n_experts]
    y = Tensor(np.zeros_like(x2.data))  # zero base carried through scatter adds
    for e, expert in enumerate(layer.experts):
        col = scores.data[:, e]
        token_idx, _ = T.top_k(col, c)
        picked_x = T.gather_rows(x2, token_idx)
        out = dense_forward(expert, picked_x)
        picked_scores = T.gather_rows(T.col_slice(scores, e, e + 1), token_idx)  # [c, 1]
        y = T.scatter_rows_add(y, token_idx, T.mul(out, picked_scores))

    if len(in_shape) == 3:
        y = T.reshape(y, in_shape)
    return y
