"""Flat key=value run configuration.

One `key=value` per line; blank lines and lines starting with `#` are
ignored. Every key must appear in the schema below; unknown keys are an
error. Values not set fall back to the desk-scale defaults.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable


ACTIVATIONS = ("relu", "gelu")  # the activations a feedforward layer may be configured with
DTYPES = ("float32", "float64")


def check_choice(field: str, value, options: tuple) -> None:
    """ValueError naming `field` unless `value` is one of `options`."""
    if value not in options:
        raise ValueError(f"{field} must be one of {options}, got {value!r}")


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _choice(*options: str) -> Callable[[str], str]:
    def cast(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    cast.options = options
    return cast


def _int_list(s: str) -> tuple[int, ...]:
    return tuple(int(part) for part in s.split(",") if part.strip())


def _str_list(s: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in s.split(",") if part.strip())


# key -> (caster, default)
SCHEMA: dict[str, tuple[Callable[[str], Any], Any]] = {
    "model.n_blocks": (int, 2),
    "model.d_model": (int, 64),
    "model.n_attn_heads": (int, 4),
    "model.d_ff": (int, 256),
    "model.seq_len": (int, 256),
    "model.activation": (_choice(*ACTIVATIONS), "gelu"),
    "model.middle_layer": (_choice("dense", "pkm", "peer", "moe"), "dense"),
    "model.seed": (int, 0),
    "model.dtype": (_choice(*DTYPES), "float32"),
    "peer.n_experts": (int, 4096),
    "peer.heads": (int, 4),
    "peer.topk": (int, 4),
    "peer.query_dim": (int, 128),
    "peer.activation": (_choice(*ACTIVATIONS), "gelu"),
    "peer.score_norm": (_choice("softmax_per_head", "sigmoid"), "softmax_per_head"),
    "peer.query_bn": (_bool, True),
    "peer.glu": (_bool, False),
    "pkm.n_memories": (int, 4096),
    "pkm.heads": (int, 4),
    "pkm.topk": (int, 4),
    "pkm.query_dim": (int, 128),
    "pkm.score_norm": (_choice("softmax_per_head", "sigmoid"), "softmax_per_head"),
    "pkm.query_bn": (_bool, True),
    "moe.n_experts": (int, 4),
    "moe.d_ff": (int, 256),
    "moe.granularity": (int, 2),
    "train.steps": (int, 2000),
    "train.batch": (int, 16),
    "train.lr": (float, 1e-3),
    "train.warmup": (int, 100),
    "train.beta1": (float, 0.9),
    "train.beta2": (float, 0.999),
    "train.eps": (float, 1e-8),
    "train.checkpoint_interval": (int, 0),
    "train.seed": (int, 0),
    "data.path": (str, ""),
    "data.synthetic_bytes": (int, 1 << 20),
    "data.seed": (int, 0),
    "data.val_fraction": (float, 0.1),
    "sweep.budget_macs": (float, 2e11),
    "sweep.methods": (_str_list, ("dense", "peer")),
    "sweep.d_models": (_int_list, (32, 48, 64)),
}


def default_config() -> dict[str, Any]:
    return {key: default for key, (_, default) in SCHEMA.items()}


def parse_config(text: str) -> dict[str, Any]:
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        caster, _ = SCHEMA[key]
        try:
            cfg[key] = caster(value.strip())
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad value for {key}: {e}") from e
    return cfg


def dataclass_from_flat(cls, cfg: dict[str, Any], prefix: str, **fallback):
    """An instance of the dataclass `cls` built from flat keys.

    Field `f` takes `cfg[f"{prefix}.{f}"]` when SCHEMA has that key, else
    `fallback[f]` when given, else its default.
    """
    values = {}
    for field in dataclasses.fields(cls):
        key = f"{prefix}.{field.name}"
        if key in SCHEMA:
            values[field.name] = cfg[key]
        elif field.name in fallback:
            values[field.name] = fallback[field.name]
    return cls(**values)


def load_config(path) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def format_config(cfg: dict[str, Any]) -> str:
    lines = []
    for key in SCHEMA:
        value = cfg[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
