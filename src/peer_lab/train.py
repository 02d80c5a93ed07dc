"""Training loop: Adam with linear warmup, per-step metrics CSV, and fully
serializable train state (parameters, optimizer moments, RNG) so a resumed
run reproduces the uninterrupted trajectory bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Corpus
from .model import Model
from .tensor import Tape, Tensor

METRICS_HEADER = "step,loss,ppl,tokens_per_s,mac_per_token"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    steps: int = 2000
    batch: int = 16
    lr: float = 1e-3
    warmup: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    checkpoint_interval: int = 0  # 0: checkpoint only at the end
    seed: int = 0


@dataclass
class TrainState:
    step: int
    moments: dict[str, tuple[np.ndarray, np.ndarray]]
    rng: np.random.Generator
    running_loss: float = 0.0
    # per parameter of 2+ dims: a mask of the rows whose moments may be
    # nonzero. A cache, not saved in checkpoints; a missing entry is rebuilt
    # from the moments.
    live: dict[str, np.ndarray] = field(default_factory=dict)


def init_train_state(model: Model, cfg: TrainConfig) -> TrainState:
    # np.zeros, not zeros_like: pages of rows the optimizer never updates are never written
    params = model.named_parameters()
    moments = {name: (np.zeros(p.data.shape, p.data.dtype), np.zeros(p.data.shape, p.data.dtype)) for name, p in params.items()}
    live = {name: np.zeros(p.data.shape[0], dtype=bool) for name, p in params.items() if p.data.ndim >= 2}
    return TrainState(step=0, moments=moments, rng=np.random.default_rng(cfg.seed), live=live)


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    """Rows of `a` with any bit set (so -0.0 counts as nonzero)."""
    return a.reshape(a.shape[0], -1).view(np.dtype(f"u{a.itemsize}")).any(axis=1)


def _live_rows(name: str, p: Tensor, m: np.ndarray, v: np.ndarray, live: dict[str, np.ndarray]) -> np.ndarray | None:
    """Rows of `p` an Adam step can change, or None to update every row.

    On a row whose gradient and moments are all zero, Adam leaves the
    parameter and both moments bitwise unchanged, so only rows with a nonzero
    gradient or nonzero moments need the update. A table read only through
    gathered rows names the rows its gradient covers (`p.grad_ids`); any
    other gradient is scanned for rows with a bit set.
    """
    if p.data.ndim < 2:
        return None
    mask = live.get(name)
    if mask is None:
        mask = live[name] = _nonzero_rows(m) | _nonzero_rows(v)
    if p.grad is not None:
        if p.grad_ids is None:
            mask |= _nonzero_rows(p.grad)
        else:
            mask[p.grad_ids] = True
    rows = np.flatnonzero(mask)
    return rows if 2 * rows.size <= mask.size else None


def _adam(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, lr_t: float, step: int, cfg: TrainConfig) -> None:
    """One in-place Adam update. Elementwise, so on a subset of rows it gives
    the same bits as on the whole array."""
    b1, b2 = cfg.beta1, cfg.beta2
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    p -= (lr_t / bias1) * m / (np.sqrt(v / bias2) + cfg.eps)


def train_step(model: Model, corpus: Corpus, state: TrainState, cfg: TrainConfig) -> dict:
    """One optimization step; returns the metrics row for the step."""
    t0 = time.perf_counter()
    x, y = corpus.sample_windows(state.rng, cfg.batch, model.config.seq_len)
    params = model.named_parameters()
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = model.loss(x, y, mode="train")
        tape.backward(loss)
    loss_value = float(loss.data)
    if not math.isfinite(loss_value):
        norms = {name: float(np.linalg.norm(p.data)) for name, p in params.items()}
        biggest = sorted(norms.items(), key=lambda kv: -kv[1])[:5]
        raise TrainingDiverged(f"non-finite loss {loss_value} at step {state.step}; largest parameter norms: {biggest}")

    step = state.step + 1
    lr_t = cfg.lr * min(1.0, step / max(1, cfg.warmup))
    for name, p in params.items():
        m, v = state.moments[name]
        rows = _live_rows(name, p, m, v, state.live)
        if rows is None:
            g = p.grad if p.grad is not None else np.zeros(p.data.shape, p.data.dtype)
            _adam(p.data, g, m, v, lr_t, step, cfg)
            continue
        p_rows, m_rows, v_rows = p.data[rows], m[rows], v[rows]
        g = p.grad[rows] if p.grad is not None else np.zeros_like(p_rows)
        _adam(p_rows, g, m_rows, v_rows, lr_t, step, cfg)
        p.data[rows], m[rows], v[rows] = p_rows, m_rows, v_rows

    state.step = step
    state.running_loss = loss_value if step == 1 else 0.99 * state.running_loss + 0.01 * loss_value
    elapsed = time.perf_counter() - t0
    tokens = cfg.batch * model.config.seq_len
    return {
        "step": step,
        "loss": loss_value,
        "ppl": math.exp(loss_value),
        "tokens_per_s": tokens / elapsed if elapsed > 0 else 0.0,
        "mac_per_token": analysis.model_param_macs_per_token(model.config),
    }


def format_metrics_row(row: dict) -> str:
    return f"{row['step']},{row['loss']!r},{row['ppl']!r},{row['tokens_per_s']:.1f},{row['mac_per_token']}"


def train(
    model: Model,
    corpus: Corpus,
    cfg: TrainConfig,
    state: TrainState | None = None,
    metrics_path=None,
    checkpoint_path=None,
    config_text: str = "",
    log_every: int = 0,
) -> tuple[TrainState, list[dict]]:
    """Run cfg.steps optimization steps (continuing from `state` if given)."""
    if cfg.steps < 1:
        raise ValueError(f"steps must be >= 1, got {cfg.steps}")
    if state is None:
        state = init_train_state(model, cfg)
    rows: list[dict] = []
    metrics_file = None
    if metrics_path is not None:
        # a resumed run keeps the rows up to its own step; rows past it (from a
        # run that went on after the checkpoint) are written again below. The
        # kept rows go to a temporary file that replaces the old one whole, so
        # a run killed at any point leaves them on disk.
        kept = [METRICS_HEADER]
        if state.step > 0 and os.path.exists(metrics_path):
            with open(metrics_path) as f:
                kept += [line for line in f.read().splitlines()[1:] if line and int(line.split(",", 1)[0]) <= state.step]
        tmp_path = f"{metrics_path}.tmp"
        with open(tmp_path, "w") as f:
            f.write("\n".join(kept) + "\n")
        os.replace(tmp_path, metrics_path)
        metrics_file = open(metrics_path, "a")
    try:
        while state.step < cfg.steps:
            row = train_step(model, corpus, state, cfg)
            rows.append(row)
            if metrics_file is not None:
                metrics_file.write(format_metrics_row(row) + "\n")
            if log_every and state.step % log_every == 0:
                print(f"step {row['step']:6d}  loss {row['loss']:.4f}  ppl {row['ppl']:.2f}")
            if checkpoint_path is not None and cfg.checkpoint_interval and state.step % cfg.checkpoint_interval == 0:
                save_train_checkpoint(checkpoint_path, model, state, config_text)
    finally:
        if metrics_file is not None:
            metrics_file.close()
    if checkpoint_path is not None:
        save_train_checkpoint(checkpoint_path, model, state, config_text)
    return state, rows


def evaluate_perplexity(model: Model, corpus: Corpus, max_windows: int | None = None) -> float:
    """exp(mean next-byte cross entropy) over the validation windows.

    Teacher-forced and deterministic; the reduction runs in float64 no
    matter the model dtype.
    """
    windows = corpus.val_windows(model.config.seq_len)
    if max_windows is not None:
        windows = windows[:max_windows]
    if not windows:
        raise ValueError("validation split is empty (no full windows)")
    total_nats = 0.0
    total_tokens = 0
    for x, y in windows:
        logits, _ = model.forward(x[None, :], mode="infer")
        z = logits.data.astype(np.float64)
        z -= z.max(axis=-1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        total_nats += float(-log_probs[np.arange(y.shape[0]), y].sum())
        total_tokens += y.shape[0]
    return math.exp(total_nats / total_tokens)


# ---------------------------------------------------------------------------
# Checkpointing of the full training state
# ---------------------------------------------------------------------------


def save_train_checkpoint(path, model: Model, state: TrainState, config_text: str = "") -> None:
    tensors: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters().items():
        tensors[name] = p.data
    for name, arr in model.named_state().items():
        tensors[name] = arr
    for name, (m, v) in state.moments.items():
        tensors[f"opt.m.{name}"] = m
        tensors[f"opt.v.{name}"] = v
    tensors["train.step"] = np.asarray(state.step, dtype=np.int64)
    tensors["train.running_loss"] = np.asarray(state.running_loss, dtype=np.float64)
    rng_state = json.dumps(state.rng.bit_generator.state).encode("utf-8")
    tensors["train.rng"] = np.frombuffer(rng_state, dtype=np.uint8)
    if config_text:
        tensors["meta.config"] = np.frombuffer(config_text.encode("utf-8"), dtype=np.uint8)
    save_checkpoint(path, tensors)


def load_train_checkpoint(path, model: Model) -> TrainState:
    """Restore parameters, optimizer moments, and RNG into a fresh TrainState."""
    tensors = load_checkpoint(path)
    model.load_tensors(tensors)
    moments = {}
    for name, p in model.named_parameters().items():
        m = tensors[f"opt.m.{name}"].astype(p.data.dtype, copy=True)
        v = tensors[f"opt.v.{name}"].astype(p.data.dtype, copy=True)
        moments[name] = (m, v)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(tensors["train.rng"].tobytes().decode("utf-8"))
    return TrainState(
        step=int(tensors["train.step"]),
        moments=moments,
        rng=rng,
        running_loss=float(tensors["train.running_loss"]),
    )


def checkpoint_config_text(path) -> str:
    tensors = load_checkpoint(path)
    if "meta.config" not in tensors:
        raise ValueError(f"checkpoint {path} carries no embedded config")
    return tensors["meta.config"].tobytes().decode("utf-8")
