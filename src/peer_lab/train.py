"""Training loop: Adam with linear warmup, per-step metrics CSV, and fully
serializable train state (parameters, optimizer moments, RNG) so a resumed
run reproduces the uninterrupted trajectory bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import analysis
from .checkpoint import checked_entry, load_checkpoint, save_checkpoint
from .data import Corpus
from .model import Model
from .tensor import Tape, Tensor, place_rows

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

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not self.lr >= 0.0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        for name, low in (("batch", 1), ("warmup", 0), ("checkpoint_interval", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class RowMoments:
    """Adam moments of a parameter held as its live rows.

    `ids` are sorted unique rows; `m` and `v` hold their moments, [r, ...].
    Every other row has moments of +0.0 and, so far, had a zero gradient.
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    ids: np.ndarray
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def empty(cls, shape: tuple[int, ...], dtype) -> "RowMoments":
        rows = np.zeros((0,) + shape[1:], dtype)
        return cls(shape, dtype, np.zeros(0, np.intp), rows, rows.copy())

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh [N, ...] arrays of m and v."""
        # np.zeros, not zeros_like: pages of rows that are not live are never written
        m, v = np.zeros(self.shape, self.dtype), np.zeros(self.shape, self.dtype)
        m[self.ids], v[self.ids] = self.m, self.v
        return m, v

    def take(self, ids: np.ndarray) -> None:
        """Make `ids`, a sorted superset of the live rows, the live rows; new rows start at +0.0."""
        self.m, self.v = place_rows(self.m, self.ids, ids), place_rows(self.v, self.ids, ids)
        self.ids = ids


class Moments(Mapping):
    """Adam moments by parameter name, each held as `RowMoments` in `held`.

    Reading one builds fresh dense (m, v) arrays, which a write does not reach.
    """

    def __init__(self, held: dict[str, RowMoments]):
        self.held = held

    def __getitem__(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.held[name].dense()

    def __iter__(self):
        return iter(self.held)

    def __len__(self) -> int:
        return len(self.held)


@dataclass
class TrainState:
    step: int
    moments: Moments
    rng: np.random.Generator
    running_loss: float = 0.0


def init_train_state(model: Model, cfg: TrainConfig) -> TrainState:
    held = {name: RowMoments.empty(p.data.shape, p.data.dtype) for name, p in model.named_parameters().items()}
    return TrainState(step=0, moments=Moments(held), rng=np.random.default_rng(cfg.seed))


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    """Ids of the rows of `a` with any bit set (so -0.0 counts as nonzero)."""
    return np.flatnonzero(a.reshape(a.shape[0], -1).view(np.dtype(f"u{a.itemsize}")).any(axis=1))


def _live_grad(p: Tensor, live: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows an Adam step can change and p's gradient on them (None: all zero).

    On a row whose gradient and moments are all zero, Adam leaves the
    parameter and both moments bitwise unchanged, so only the `live` rows
    (nonzero moments) and the rows of a nonzero gradient need the update.
    A gradient held row-sparse names its rows; any other gradient is
    scanned for rows with a bit set.
    """
    if p.grad_rows is not None:
        union = _union(live, p.grad_ids)
        return union, place_rows(p.grad_rows, p.grad_ids, union)
    if p.grad is not None:
        union = _union(live, _nonzero_rows(p.grad))
        return union, p.grad[union]
    return live, None


def _union(live: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The sorted union of the sorted unique `live` and `ids`."""
    if live.size:
        at = np.searchsorted(live, ids)
        if np.array_equal(live[np.minimum(at, live.size - 1)], ids):
            return live  # no new row: the common case once the live set settles
    return np.union1d(live, ids)


def _adam(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, lr_t: float, step: int, cfg: TrainConfig) -> None:
    """One in-place Adam update, through two temporary arrays. Elementwise, so
    on a subset of rows it gives the same bits as on the whole array."""
    b1, b2 = cfg.beta1, cfg.beta2
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    t, u = np.empty_like(p), np.empty_like(p)
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=t)
    v *= b2
    np.multiply(g, g, out=t)
    t *= 1.0 - b2
    v += t
    np.divide(v, bias2, out=t)
    np.sqrt(t, out=t)
    t += cfg.eps
    np.multiply(m, lr_t / bias1, out=u)
    u /= t
    p -= u


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
        held = state.moments.held[name]
        ids, g = _live_grad(p, held.ids)
        held.take(ids)
        rows = p.data[ids]
        _adam(rows, np.zeros_like(rows) if g is None else g, held.m, held.v, lr_t, step, cfg)
        p.data[ids] = rows

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
    """Run cfg.steps optimization steps (continuing from `state` if given).

    A `state` already at cfg.steps or past it is an error, raised before any
    file or directory is made."""
    if cfg.steps < 1:
        raise ValueError(f"steps must be >= 1, got {cfg.steps}")
    if state is None:
        state = init_train_state(model, cfg)
    if state.step >= cfg.steps:
        raise ValueError(f"the run is already at step {state.step}, and steps is {cfg.steps}: no step is left to train")
    for path in filter(None, (metrics_path, checkpoint_path)):
        os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
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
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
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


def load_train_checkpoint(source, model: Model) -> TrainState:
    """Restore parameters, optimizer moments, and RNG into a fresh TrainState.

    `source` is a checkpoint path or the entries `load_checkpoint` read from
    one. Each parameter's live rows are the rows of its stored moments with
    any bit set. An entry the model does not read (other than `meta.*`) is
    an error: the file was saved from another model.
    """
    tensors = source if isinstance(source, dict) else load_checkpoint(source)
    params = model.named_parameters()
    read = {*params, *model.named_state(), "train.step", "train.running_loss", "train.rng"}
    read.update(f"opt.{s}.{name}" for name in params for s in "mv")
    unread = sorted(name for name in tensors if name not in read and not name.startswith("meta."))
    if unread:
        raise ValueError(f"checkpoint has {len(unread)} entries the model does not read: {unread}")
    model.load_tensors(tensors)
    held = {}
    for name, p in params.items():
        m = checked_entry(tensors, f"opt.m.{name}", p.data.shape).astype(p.data.dtype, copy=False)
        v = checked_entry(tensors, f"opt.v.{name}", p.data.shape).astype(p.data.dtype, copy=False)
        ids = np.union1d(_nonzero_rows(m), _nonzero_rows(v))
        held[name] = RowMoments(p.data.shape, p.data.dtype, ids, m[ids], v[ids])
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(checked_entry(tensors, "train.rng").tobytes().decode("utf-8"))
    return TrainState(
        step=int(checked_entry(tensors, "train.step", ())),
        moments=Moments(held),
        rng=rng,
        running_loss=float(checked_entry(tensors, "train.running_loss", ())),
    )
