"""Desk-scale decoder-only byte transformer with a pluggable middle FFW.

Pre-norm blocks (self-attention + feedforward); the feedforward of the
middle block (index floor(n_blocks / 2)) is replaced by the configured
layer kind. The backbone and the middle layer draw their initializations
from independent seed streams, so swapping the middle layer leaves every
other tensor bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .baselines import DenseConfig, DenseFFW, MoeConfig, MoeLayer, PkmConfig, PkmLayer
from .checkpoint import checked_entry
from .config import ACTIVATIONS, DTYPES, MODES, check_choice, check_sizes, dataclass_from_flat
from .peer import PeerConfig, PeerLayer
from .tensor import Tensor

VOCAB = 256

# middle-layer kind -> (config class, layer class). A config carries its own
# mac_per_token() and param_counts(); a layer class is built as (config, seed,
# dtype), drawing its own parameters, and has named_parameters(), named_state()
# and forward(x, mode): token rows [tokens, d_model] -> (rows, routing echo or
# None). Flat config keys of a kind are "<kind>.<field>".
MIDDLE_LAYERS = {
    "dense": (DenseConfig, DenseFFW),
    "pkm": (PkmConfig, PkmLayer),
    "peer": (PeerConfig, PeerLayer),
    "moe": (MoeConfig, MoeLayer),
}


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
        check_sizes(self, "n_blocks", "d_model", "n_attn_heads", "d_ff", "seq_len")
        if self.d_model % self.n_attn_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_attn_heads {self.n_attn_heads}")
        check_choice("middle_layer", self.middle_layer, tuple(MIDDLE_LAYERS))
        if self.vocab != VOCAB:
            raise ValueError(f"byte-level model requires vocab={VOCAB}, got {self.vocab}")
        check_choice("dtype", self.dtype, DTYPES)
        check_choice("activation", self.activation, ACTIVATIONS)
        config_cls = MIDDLE_LAYERS[self.middle_layer][0]
        if self.middle_config is None:
            shared = {"d_model": self.d_model, "d_ff": self.d_ff, "activation": self.activation}
            self.middle_config = config_cls(**{f.name: shared[f.name] for f in fields(config_cls) if f.name in shared})
        elif not isinstance(self.middle_config, config_cls):
            raise ValueError(
                f"middle_layer {self.middle_layer!r} needs a {config_cls.__name__}, "
                f"got a middle_config of type {type(self.middle_config).__name__}"
            )
        if self.middle_config.d_model != self.d_model:
            raise ValueError(f"middle_config.d_model {self.middle_config.d_model} != d_model {self.d_model}")

    @property
    def middle_index(self) -> int:
        return self.n_blocks // 2

    def ffw_config(self, i: int):
        """Block i's feedforward config: the middle block's configured kind,
        a dense FFW of the model's dims everywhere else."""
        if i == self.middle_index:
            return self.middle_config
        return DenseConfig(d_model=self.d_model, d_ff=self.d_ff, activation=self.activation)

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


class Block:
    """Pre-norm decoder block: x + attn(ln1(x)), then + ffw(ln2(.))."""

    def __init__(self, index: int, d_model: int, n_heads: int, ffw, rng: np.random.Generator, dtype):
        self.index = index
        self.n_heads = n_heads
        std = 1.0 / math.sqrt(d_model)
        self.ln1_scale = Tensor(np.ones(d_model, dtype=dtype), requires_grad=True)
        self.ln1_shift = Tensor(np.zeros(d_model, dtype=dtype), requires_grad=True)
        self.wq = Tensor(T.normal_rows(rng, std, (d_model, d_model), dtype), requires_grad=True)
        self.wk = Tensor(T.normal_rows(rng, std, (d_model, d_model), dtype), requires_grad=True)
        self.wv = Tensor(T.normal_rows(rng, std, (d_model, d_model), dtype), requires_grad=True)
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

    def attend(self, x: Tensor, t: int) -> Tensor:
        """Token rows [b*t, d] of b sequences of t tokens -> rows."""
        shape = (-1, t, x.data.shape[1])
        q, k, v = (T.reshape(T.matmul(x, w), shape) for w in (self.wq, self.wk, self.wv))
        out = T.reshape(T.causal_attention(q, k, v, self.n_heads), x.data.shape)
        return T.matmul(out, self.wo)

    def forward(self, x: Tensor, t: int, mode: str):
        h = T.add(x, self.attend(T.layer_norm(x, self.ln1_scale, self.ln1_shift), t))
        ffw_out, routing = self.ffw.forward(T.layer_norm(h, self.ln2_scale, self.ln2_shift), mode=mode)
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
        self.tok_emb = Tensor(T.normal_rows(backbone_rng, 0.02, (config.vocab, d), dtype), requires_grad=True)
        self.pos_emb = Tensor(T.normal_rows(backbone_rng, 0.02, (config.seq_len, d), dtype), requires_grad=True)

        self.blocks: list[Block] = []
        for i in range(config.n_blocks):
            ffw_config = config.ffw_config(i)
            if i == config.middle_index:
                ffw = MIDDLE_LAYERS[config.middle_layer][1](ffw_config, seed=middle_seed, dtype=dtype)
            else:
                ffw = DenseFFW(ffw_config, seed=int(backbone_rng.integers(0, 2**31 - 1)), dtype=dtype, prefix=f"block{i}.ffw")
            self.blocks.append(Block(i, d, config.n_attn_heads, ffw, backbone_rng, dtype))

        self.lnf_scale = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        self.lnf_shift = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        self.lm_head = Tensor(np.zeros((d, config.vocab), dtype=dtype), requires_grad=True)

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
        return {name: arr for block in self.blocks for name, arr in block.ffw.named_state().items()}

    def load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        """Copy parameter and state values from a checkpoint dict into the
        arrays the model holds, so a load allocates no second table; each must
        be present with the model's shape (ValueError otherwise)."""
        for name, p in self.named_parameters().items():
            p.data[...] = checked_entry(tensors, name, p.data.shape)
        for name, arr in self.named_state().items():
            arr[...] = checked_entry(tensors, name, arr.shape)

    def n_params(self) -> int:
        return sum(p.data.size for p in self.named_parameters().values()) + sum(a.size for a in self.named_state().values())

    def forward(self, tokens: np.ndarray, mode: str = "infer"):
        """tokens [batch, time] -> (logits Tensor [batch*time, vocab], the
        middle layer's routing echo, or None for a dense or MoE middle)."""
        check_choice("mode", mode, MODES)
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [batch, time], got shape {tokens.shape}")
        b, t = tokens.shape
        if b == 0 or t == 0:
            raise ValueError(f"tokens must hold at least one sequence of at least one token, got shape {tokens.shape}")
        if t > self.config.seq_len:
            raise ValueError(f"sequence length {t} exceeds configured maximum {self.config.seq_len}")
        x = T.add(T.gather_rows(self.tok_emb, tokens), T.gather_rows(self.pos_emb, np.arange(t)))
        x = T.reshape(x, (b * t, self.config.d_model))
        for i, block in enumerate(self.blocks):
            x, r = block.forward(x, t, mode)
            if i == self.config.middle_index:
                routing = r
        logits = T.matmul(T.layer_norm(x, self.lnf_scale, self.lnf_shift), self.lm_head)
        return logits, routing

    def loss(self, tokens: np.ndarray, targets: np.ndarray, mode: str = "train") -> Tensor:
        logits, _ = self.forward(tokens, mode=mode)
        return T.cross_entropy_with_logits(logits, np.asarray(targets).reshape(-1))


def build_model(config: ModelConfig) -> Model:
    return Model(config)


def model_config_from_flat(cfg: dict) -> ModelConfig:
    """Build a ModelConfig (with its middle-layer config) from a flat key=value
    dict.

    A middle-config field reads "<kind>.<field>" when the schema has that key,
    else the model's d_model, d_ff or activation.
    """
    kind = cfg["model.middle_layer"]
    check_choice("model.middle_layer", kind, tuple(MIDDLE_LAYERS))
    shared = {"d_model": cfg["model.d_model"], "d_ff": cfg["model.d_ff"], "activation": cfg["model.activation"]}
    middle = dataclass_from_flat(MIDDLE_LAYERS[kind][0], cfg, kind, **shared)
    return dataclass_from_flat(ModelConfig, cfg, "model", middle_config=middle)
