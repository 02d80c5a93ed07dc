"""Desk-scale decoder-only byte transformer with a pluggable middle FFW.

Pre-norm blocks (self-attention + feedforward); the feedforward of the
middle block (index floor(n_blocks / 2)) is replaced by the configured
layer kind. The backbone and the middle layer draw their initializations
from independent seed streams, so swapping the middle layer leaves every
other tensor bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .baselines import DenseConfig, DenseFFW, ExpertChoiceMoE, MoeConfig, PkmConfig, PkmLayer
from .peer import PeerConfig, PeerLayer
from .tensor import Tensor

VOCAB = 256
_MASK_FILL = -1e30


@dataclass
class ModelConfig:
    n_blocks: int = 2
    d_model: int = 64
    n_attn_heads: int = 4
    d_ff: int = 256
    seq_len: int = 256
    vocab: int = VOCAB
    activation: str = "gelu"
    middle_layer: str = "dense"
    middle_config: object | None = None
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.d_model % self.n_attn_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_attn_heads {self.n_attn_heads}")
        if self.middle_layer not in ("dense", "pkm", "peer", "moe"):
            raise ValueError(f"middle_layer must be dense|pkm|peer|moe, got {self.middle_layer!r}")
        if self.vocab != VOCAB:
            raise ValueError(f"byte-level model requires vocab={VOCAB}, got {self.vocab}")
        if self.middle_config is None:
            self.middle_config = default_middle_config(self.middle_layer, self.d_model, self.d_ff, self.activation)

    @property
    def middle_index(self) -> int:
        return self.n_blocks // 2

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def default_middle_config(kind: str, d_model: int, d_ff: int, activation: str):
    if kind == "dense":
        return DenseConfig(d_model=d_model, d_ff=d_ff, activation=activation)
    if kind == "peer":
        return PeerConfig(d_model=d_model, activation=activation)
    if kind == "pkm":
        return PkmConfig(d_model=d_model)
    if kind == "moe":
        return MoeConfig(d_model=d_model, d_ff=d_ff, activation=activation)
    raise ValueError(f"unknown middle layer kind {kind!r}")


def build_middle_layer(kind: str, cfg, seed: int, dtype):
    if kind == "dense":
        return DenseFFW.build(cfg, seed=seed, dtype=dtype, prefix="dense")
    if kind == "peer":
        return PeerLayer.build(cfg, seed=seed, dtype=dtype)
    if kind == "pkm":
        return PkmLayer.build(cfg, seed=seed, dtype=dtype)
    if kind == "moe":
        return ExpertChoiceMoE.build(cfg, seed=seed, dtype=dtype)
    raise ValueError(f"unknown middle layer kind {kind!r}")


class Block:
    """Pre-norm decoder block: x + attn(ln1(x)), then + ffw(ln2(.))."""

    def __init__(self, index: int, d_model: int, n_heads: int, ffw, rng: np.random.Generator, dtype):
        self.index = index
        self.n_heads = n_heads
        std = 1.0 / math.sqrt(d_model)
        self.ln1_scale = Tensor(np.ones(d_model, dtype=dtype), requires_grad=True)
        self.ln1_shift = Tensor(np.zeros(d_model, dtype=dtype), requires_grad=True)
        self.wq = Tensor(rng.normal(0.0, std, size=(d_model, d_model)).astype(dtype), requires_grad=True)
        self.wk = Tensor(rng.normal(0.0, std, size=(d_model, d_model)).astype(dtype), requires_grad=True)
        self.wv = Tensor(rng.normal(0.0, std, size=(d_model, d_model)).astype(dtype), requires_grad=True)
        self.wo = Tensor(np.zeros((d_model, d_model), dtype=dtype), requires_grad=True)
        self.ln2_scale = Tensor(np.ones(d_model, dtype=dtype), requires_grad=True)
        self.ln2_shift = Tensor(np.zeros(d_model, dtype=dtype), requires_grad=True)
        self.ffw = ffw

    def named_parameters(self) -> dict[str, Tensor]:
        p = f"block{self.index}"
        params = {
            f"{p}.ln1.scale": self.ln1_scale,
            f"{p}.ln1.shift": self.ln1_shift,
            f"{p}.attn.wq": self.wq,
            f"{p}.attn.wk": self.wk,
            f"{p}.attn.wv": self.wv,
            f"{p}.attn.wo": self.wo,
            f"{p}.ln2.scale": self.ln2_scale,
            f"{p}.ln2.shift": self.ln2_shift,
        }
        params.update(self.ffw.named_parameters())
        return params

    def attend(self, x: Tensor, mask: Tensor) -> Tensor:
        b, t, d = x.data.shape
        x2 = T.reshape(x, (b * t, d))
        q, k, v = (T.reshape(T.matmul(x2, w), (b, t, d)) for w in (self.wq, self.wk, self.wv))
        out = T.reshape(T.causal_attention(q, k, v, self.n_heads, mask), (b * t, d))
        return T.reshape(T.matmul(out, self.wo), (b, t, d))

    def forward(self, x: Tensor, mask: Tensor, mode: str, collect_routing: bool = False):
        h = T.add(x, self.attend(T.layer_norm(x, self.ln1_scale, self.ln1_shift), mask))
        ffw_out, routing = self.ffw.forward(T.layer_norm(h, self.ln2_scale, self.ln2_shift), mode=mode, collect_routing=collect_routing)
        return T.add(h, ffw_out), routing


class Model:
    """Byte-level decoder with embeddings, pre-norm blocks, final norm, head."""

    def __init__(self, config: ModelConfig):
        self.config = config
        dtype = config.np_dtype
        children = np.random.SeedSequence(config.seed).spawn(2)
        backbone_rng = np.random.default_rng(children[0])
        middle_seed = int(children[1].generate_state(1)[0])

        d = config.d_model
        self.tok_emb = Tensor(backbone_rng.normal(0.0, 0.02, size=(config.vocab, d)).astype(dtype), requires_grad=True)
        self.pos_emb = Tensor(backbone_rng.normal(0.0, 0.02, size=(config.seq_len, d)).astype(dtype), requires_grad=True)

        self.blocks: list[Block] = []
        for i in range(config.n_blocks):
            if i == config.middle_index:
                ffw = build_middle_layer(config.middle_layer, config.middle_config, middle_seed, dtype)
            else:
                ffw = DenseFFW.build(
                    DenseConfig(d_model=d, d_ff=config.d_ff, activation=config.activation),
                    seed=int(backbone_rng.integers(0, 2**31 - 1)),
                    dtype=dtype,
                    prefix=f"block{i}.ffw",
                )
            self.blocks.append(Block(i, d, config.n_attn_heads, ffw, backbone_rng, dtype))

        self.lnf_scale = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        self.lnf_shift = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        self.lm_head = Tensor(np.zeros((d, config.vocab), dtype=dtype), requires_grad=True)
        self._masks: dict[int, Tensor] = {}

    @property
    def middle(self):
        return self.blocks[self.config.middle_index].ffw

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {"embed.tok": self.tok_emb, "embed.pos": self.pos_emb}
        for block in self.blocks:
            params.update(block.named_parameters())
        params["lnf.scale"] = self.lnf_scale
        params["lnf.shift"] = self.lnf_shift
        params["lm_head"] = self.lm_head
        return params

    def named_state(self) -> dict[str, np.ndarray]:
        return dict(self.middle.named_state())

    def load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        """Assign parameter and state values from a checkpoint dict."""
        params = self.named_parameters()
        for name, p in params.items():
            if name not in tensors:
                raise ValueError(f"checkpoint is missing tensor {name!r}")
            if tensors[name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: checkpoint {tensors[name].shape} vs model {p.data.shape}")
            p.data = tensors[name].astype(p.data.dtype, copy=True)
        state = self.named_state()
        if state:
            self.middle.load_state({k: tensors[k] for k in state})

    def n_params(self) -> int:
        return sum(p.data.size for p in self.named_parameters().values()) + sum(a.size for a in self.named_state().values())

    def _mask(self, t: int) -> Tensor:
        if t not in self._masks:
            m = np.triu(np.full((t, t), _MASK_FILL, dtype=self.config.np_dtype), k=1)
            self._masks[t] = Tensor(m)
        return self._masks[t]

    def forward(self, tokens: np.ndarray, mode: str = "infer", collect_routing: bool = False):
        """tokens [batch, time] -> (logits Tensor [batch*time, vocab], middle routing or None)."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [batch, time], got shape {tokens.shape}")
        b, t = tokens.shape
        if t > self.config.seq_len:
            raise ValueError(f"sequence length {t} exceeds configured maximum {self.config.seq_len}")
        x = T.add(T.gather_rows(self.tok_emb, tokens), T.gather_rows(self.pos_emb, np.arange(t)))
        mask = self._mask(t)
        routing = None
        for i, block in enumerate(self.blocks):
            want = collect_routing and i == self.config.middle_index
            x, r = block.forward(x, mask, mode, collect_routing=want)
            if want:
                routing = r
        x2 = T.layer_norm(T.reshape(x, (b * t, self.config.d_model)), self.lnf_scale, self.lnf_shift)
        logits = T.matmul(x2, self.lm_head)
        return logits, routing

    def loss(self, tokens: np.ndarray, targets: np.ndarray, mode: str = "train") -> Tensor:
        logits, _ = self.forward(tokens, mode=mode)
        return T.cross_entropy_with_logits(logits, np.asarray(targets).reshape(-1))


def build_model(config: ModelConfig) -> Model:
    return Model(config)


def model_config_from_flat(cfg: dict, method: str | None = None, d_model: int | None = None, d_ff: int | None = None) -> ModelConfig:
    """Build a ModelConfig (with its middle-layer config) from a flat key=value dict."""
    method = method or cfg["model.middle_layer"]
    d_model = d_model or cfg["model.d_model"]
    d_ff = d_ff or cfg["model.d_ff"]
    if method == "dense":
        middle = DenseConfig(d_model=d_model, d_ff=d_ff, activation=cfg["model.activation"])
    elif method == "peer":
        middle = PeerConfig(
            n_experts=cfg["peer.n_experts"],
            heads=cfg["peer.heads"],
            topk=cfg["peer.topk"],
            d_model=d_model,
            query_dim=cfg["peer.query_dim"],
            activation=cfg["peer.activation"],
            score_norm=cfg["peer.score_norm"],
            query_bn=cfg["peer.query_bn"],
            glu=cfg["peer.glu"],
        )
    elif method == "pkm":
        middle = PkmConfig(
            n_memories=cfg["pkm.n_memories"],
            heads=cfg["pkm.heads"],
            topk=cfg["pkm.topk"],
            d_model=d_model,
            query_dim=cfg["pkm.query_dim"],
            score_norm=cfg["pkm.score_norm"],
            query_bn=cfg["pkm.query_bn"],
        )
    elif method == "moe":
        middle = MoeConfig(
            n_experts=cfg["moe.n_experts"],
            d_model=d_model,
            d_ff=cfg["moe.d_ff"],
            granularity=cfg["moe.granularity"],
            activation=cfg["model.activation"],
        )
    else:
        raise ValueError(f"unknown middle layer kind {method!r}")
    return ModelConfig(
        n_blocks=cfg["model.n_blocks"],
        d_model=d_model,
        n_attn_heads=cfg["model.n_attn_heads"],
        d_ff=d_ff,
        seq_len=cfg["model.seq_len"],
        activation=cfg["model.activation"],
        middle_layer=method,
        middle_config=middle,
        seed=cfg["model.seed"],
        dtype=cfg["model.dtype"],
    )
