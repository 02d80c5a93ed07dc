"""Workloads, phases and correctness checks of the peer-lab benchmark.

One run trains a byte LM on a seeded synthetic corpus in a closed loop (each
`train_step` starts when the previous one has returned), evaluates perplexity
on fixed validation windows and checks the program's outputs. All timing is
taken here, around calls into peer_lab; nothing inside `src/` is changed.
Import this module only after `src/` is on sys.path (run.py sees to it).
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import peer_lab  # noqa: F401  (loads every submodule, so sys.modules holds them)
import spans
from peer_lab import analysis
from peer_lab.config import default_config, format_config
from peer_lab.data import Corpus
from peer_lab.model import build_model, model_config_from_flat
from peer_lab.product_keys import retrieve_exhaustive, retrieve_topk

# `peer_lab.train` as an attribute is the re-exported train() function, and
# calls go through the module attribute so the tracer's wrappers see them.
train_mod = sys.modules["peer_lab.train"]


@dataclass(frozen=True)
class Workload:
    middle: str  # layer in the middle block: "peer" or "pkm"
    pool: int  # experts (peer) or memories (pkm); a perfect square
    checkpoint_every: int  # timed steps between checkpoint round trips; 0 for none
    d_model: int = 64
    seq_len: int = 256
    batch: int = 16
    corpus_bytes: int = 1 << 20
    heads: int = 4
    topk: int = 4
    query_dim: int = 128


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "desk-peer": Workload("peer", 64 * 64, checkpoint_every=16),
    # a checkpoint at 2^20 would be ~1.6 GB, so this one takes none
    "pool-1m-peer": Workload("peer", 1024 * 1024, checkpoint_every=0),
    "desk-pkm": Workload("pkm", 64 * 64, checkpoint_every=16),
    # seconds-long run for the benchmark's own tests; not a benchmark workload
    "smoke": Workload(
        "peer", 16, checkpoint_every=2, d_model=16, seq_len=32, batch=4, corpus_bytes=1 << 16, heads=2, topk=2, query_dim=8
    ),
}

SETUPS = 3  # setup_s is the median of this many full set-ups
WARMUP_STEPS = 2  # untimed
LR_WARMUP = 1  # train.warmup: full learning rate from step 1, so a few steps visibly train
EVAL_AFTER_STEP = 10  # eval_ppl is taken after this many steps, so it is fixed per seed
EVAL_WINDOWS = 16  # first validation windows, one forward pass each
EVAL_SHARE = 0.15  # share of the timed loop spent on evaluation, spread over the whole loop
MIN_EVAL_REPEATS = 3  # repeats at EVAL_AFTER_STEP, which must all give eval_ppl
MIN_TRAIN_STEPS = 25  # timed steps; the tail (10 samples beyond it) then sits at or above p60
ORACLE_QUERIES = 16  # sampled post-BN queries checked against retrieve_exhaustive

# name -> unit, in the order printed; the JSON carries the first list with
# --trace 0 and the second with --trace 1
END_TO_END = {
    "train_tokens_per_s": "1/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_tail": "ms",
    "eval_tokens_per_s": "1/s",
    "eval_ppl": "ppl",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "tensor.top_k.ms": "ms",
    "tensor.top_k.calls": "count",
    "product_keys.retrieve_topk_batch.ms": "ms",
    "product_keys.retrieve_topk_batch.us_per_query": "us",
    "train.train_step.self_ms": "ms",
    "train.optimizer.useful_row_frac": "frac",
    "tensor.scatter_add_into.ms": "ms",
    "tensor.scatter_add_into.rows": "count",
    "tensor.tape_backward.self_ms": "ms",
    "tensor.tape.nodes": "count",
    "model.forward.self_ms": "ms",
    "tensor.batch_norm.ms": "ms",
    "data.sample_windows.ms": "ms",
    "peer.peer_forward.ms": "ms",
    "peer.peer_forward.self_ms": "ms",
    "baselines.pkm_forward.ms": "ms",
    "baselines.pkm_forward.self_ms": "ms",
    "baselines.dense_forward.ms": "ms",
    "checkpoint.save_checkpoint.ms": "ms",
    "checkpoint.load_checkpoint.ms": "ms",
    "checkpoint.bytes": "bytes",
    "product_keys.oracle_match_frac": "frac",
    "analysis.macs_per_token.measured": "MAC/token",
    "analysis.macs_per_token.formula": "MAC/token",
    "trace.overhead_frac": "frac",
}


class Ledger:
    """Counts attempted operations and checks, and keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def flat_config(w: Workload, seed: int) -> dict:
    cfg = default_config()
    pool_key = "peer.n_experts" if w.middle == "peer" else "pkm.n_memories"
    cfg.update(
        {
            "model.middle_layer": w.middle,
            "model.d_model": w.d_model,
            "model.d_ff": 4 * w.d_model,
            "model.seq_len": w.seq_len,
            "model.seed": seed,
            pool_key: w.pool,
            f"{w.middle}.heads": w.heads,
            f"{w.middle}.topk": w.topk,
            f"{w.middle}.query_dim": w.query_dim,
            "train.batch": w.batch,
            "train.warmup": LR_WARMUP,
            "train.seed": seed,
            "data.synthetic_bytes": w.corpus_bytes,
            "data.seed": seed,
        }
    )
    return cfg


def setup(cfg: dict):
    """Corpus, model and optimizer state: everything a run builds before step 1."""
    corpus = Corpus.synthetic(cfg["data.synthetic_bytes"], seed=cfg["data.seed"], val_fraction=cfg["data.val_fraction"])
    model = build_model(model_config_from_flat(cfg))
    tcfg = train_mod.TrainConfig(
        batch=cfg["train.batch"],
        lr=cfg["train.lr"],
        warmup=cfg["train.warmup"],
        beta1=cfg["train.beta1"],
        beta2=cfg["train.beta2"],
        eps=cfg["train.eps"],
        seed=cfg["train.seed"],
    )
    return corpus, model, tcfg, train_mod.init_train_state(model, tcfg)


def train_one(model, corpus, state, tcfg, ledger: Ledger) -> float | None:
    """One closed-loop step timed from outside; None if it failed."""
    t0 = time.perf_counter()
    try:
        row = train_mod.train_step(model, corpus, state, tcfg)
    except train_mod.TrainingDiverged as e:
        ledger.check(False, f"step {state.step + 1}: {e}")
        return None
    elapsed = time.perf_counter() - t0
    return elapsed if ledger.check(math.isfinite(row["loss"]), f"step {row['step']}: loss {row['loss']}") else None


def _snapshot(model, state) -> dict:
    out = {name: p.data.copy() for name, p in model.named_parameters().items()}
    out.update({name: a.copy() for name, a in model.named_state().items()})
    for name, (m, v) in state.moments.items():
        out[f"m.{name}"], out[f"v.{name}"] = m.copy(), v.copy()
    out["step"] = np.asarray(state.step)
    out["running_loss"] = np.asarray(state.running_loss)
    out["rng"] = np.frombuffer(json.dumps(state.rng.bit_generator.state).encode(), dtype=np.uint8)
    return out


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def evaluate(model, corpus, repeats: int, ledger: Ledger) -> tuple[float, list[float]]:
    """Run evaluate_perplexity `repeats` times; every repeat must give the
    same perplexity. Returns (ppl, time of each repeat)."""
    ppls, times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ppl = train_mod.evaluate_perplexity(model, corpus, max_windows=EVAL_WINDOWS)
        times.append(time.perf_counter() - t0)
        ledger.check(math.isfinite(ppl) and ppl == (ppls[0] if ppls else ppl), f"eval perplexity {ppl!r} differs from {ppls[:1]}")
        ppls.append(ppl)
    return ppls[0], times


def checkpoint_round_trip(path: Path, model, state, config_text: str, ledger: Ledger):
    """Save and reload the train state; returns (loaded state, save s, load s)."""
    before = _snapshot(model, state)
    t0 = time.perf_counter()
    train_mod.save_train_checkpoint(path, model, state, config_text)
    t1 = time.perf_counter()
    loaded = train_mod.load_train_checkpoint(path, model)
    t2 = time.perf_counter()
    after = _snapshot(model, loaded)
    same = before.keys() == after.keys() and all(_bitwise_equal(before[k], after[k]) for k in before)
    ledger.check(same, f"checkpoint round trip at step {state.step} changed a tensor")
    return loaded, t1 - t0, t2 - t1


def check_retrieval(model, corpus, seed: int, ledger: Ledger) -> float:
    """Product-key retrieval vs retrieve_exhaustive on the run's own queries.

    Captures the post-BN queries of one inference forward pass over the first
    validation window and checks a seeded sample of them. The single-query
    product-key path must equal the oracle bitwise, ids and scores. The batched
    path the layers call must return the oracle's ids bitwise; its raw scores
    come from a matrix product instead of the oracle's matrix-vector product,
    so they may differ by rounding (the layers discard them and recompute the
    selected scores), and are held to a tolerance set from the dtype.
    """
    captured = []

    def capture(original):
        def wrapper(index, queries, k, *args, **kwargs):
            ids, scores = original(index, queries, k, *args, **kwargs)
            captured.append((index, np.array(getattr(queries, "data", queries)), k, ids, scores))
            return ids, scores

        return wrapper

    x, _ = corpus.val_windows(model.config.seq_len)[0]
    with spans.patched("peer_lab.product_keys", "retrieve_topk_batch", capture):
        model.forward(x[None, :], mode="infer")
    if not ledger.check(len(captured) == 1, f"expected one retrieval call per forward pass, saw {len(captured)}"):
        return 0.0
    index, queries, k, ids, scores = captured[0]
    half = index.key_dim // 2
    rows = np.random.default_rng(seed).choice(queries.shape[0], size=min(ORACLE_QUERIES, queries.shape[0]), replace=False)
    matches = 0
    for r in rows:
        ref = retrieve_exhaustive(index, queries[r], k)
        one = retrieve_topk(index, queries[r], k)
        # rounding bound of two `half`-term dot products, in units of the scores
        tol = 2 * half * np.finfo(scores.dtype).eps * max(1.0, float(np.abs(ref.scores).max()))
        ok = (
            np.array_equal(one.indices, ref.indices)
            and _bitwise_equal(one.scores, ref.scores)
            and np.array_equal(ids[r], ref.indices)
            and np.allclose(scores[r], ref.scores, rtol=0.0, atol=tol)
        )
        matches += ledger.check(
            ok, f"query {r}: product-key top-{k} {one.indices.tolist()} / batched {ids[r].tolist()} != exhaustive {ref.indices.tolist()}"
        )
    return matches / len(rows)


def useful_row_frac(model) -> float:
    """Parameter rows with a nonzero gradient / rows the optimizer updated.

    train_step's Adam updates every row of every parameter (a 1-d parameter
    counts as one row), so the denominator is all rows.
    """
    useful = total = 0
    for p in model.named_parameters().values():
        rows = p.data.shape[0] if p.data.ndim > 1 else 1
        total += rows
        if p.grad is not None:
            useful += int(np.count_nonzero(p.grad.reshape(rows, -1).any(axis=1)))
    return useful / total


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest nearest-rank percentile with at
    least 10 samples above it."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    i = n - 11
    return s[i], 100.0 * (i + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_metrics(tracer: spans.Tracer, n_steps: int) -> dict[str, float]:
    """Per traced training step, except checkpoint spans, which are per call."""
    total, own, calls, work = defaultdict(float), defaultdict(float), Counter(), Counter()
    for s, self_s in zip(tracer.spans, spans.self_times(tracer.spans)):
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
        work[s.name] += s.count

    def per_step_ms(d, name):
        return 1e3 * d[name] / n_steps

    def per_call(d, name, scale=1.0):
        return scale * d[name] / calls[name] if calls[name] else 0.0

    rtb = "product_keys.retrieve_topk_batch"
    return {
        "tensor.top_k.ms": per_step_ms(total, "tensor.top_k"),
        "tensor.top_k.calls": calls["tensor.top_k"] / n_steps,
        f"{rtb}.ms": per_step_ms(total, rtb),
        f"{rtb}.us_per_query": 1e6 * total[rtb] / work[rtb] if work[rtb] else 0.0,
        "train.train_step.self_ms": per_step_ms(own, "train.train_step"),
        "tensor.scatter_add_into.ms": per_step_ms(total, "tensor.scatter_add_into"),
        "tensor.scatter_add_into.rows": work["tensor.scatter_add_into"] / n_steps,
        "tensor.tape_backward.self_ms": per_step_ms(own, "tensor.tape_backward"),
        "tensor.tape.nodes": work["tensor.tape_backward"] / n_steps,
        "model.forward.self_ms": per_step_ms(own, "model.forward"),
        "tensor.batch_norm.ms": per_step_ms(total, "tensor.batch_norm"),
        "data.sample_windows.ms": per_step_ms(total, "data.sample_windows"),
        "peer.peer_forward.ms": per_step_ms(total, "peer.peer_forward"),
        "peer.peer_forward.self_ms": per_step_ms(own, "peer.peer_forward"),
        "baselines.pkm_forward.ms": per_step_ms(total, "baselines.pkm_forward"),
        "baselines.pkm_forward.self_ms": per_step_ms(own, "baselines.pkm_forward"),
        "baselines.dense_forward.ms": per_step_ms(total, "baselines.dense_forward"),
        "checkpoint.save_checkpoint.ms": per_call(total, "checkpoint.save_checkpoint", 1e3),
        "checkpoint.load_checkpoint.ms": per_call(total, "checkpoint.load_checkpoint", 1e3),
        "checkpoint.bytes": per_call(work, "checkpoint.save_checkpoint"),
    }


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_rev(root: Path) -> str:
    try:
        # the ceiling keeps git from reporting a repository that merely encloses the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, check=False)
    except OSError:  # no git installed
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"  # "unknown": not a git checkout


def environment(root: Path, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_rev": _git_rev(root),
    }


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> tuple[dict, Ledger, list[str], spans.Tracer | None]:
    """One benchmark run; returns (metrics, ledger, report lines, tracer)."""
    w = WORKLOADS[name]
    cfg = flat_config(w, seed)
    ledger = Ledger()
    report: list[str] = []

    setup_times = []
    built = None
    for _ in range(SETUPS):
        built = None  # release the previous model before building the next
        t0 = time.perf_counter()
        built = setup(cfg)
        setup_times.append(time.perf_counter() - t0)
    corpus, model, tcfg, state = built
    tokens_per_step = w.batch * w.seq_len

    initial_ppl = train_mod.evaluate_perplexity(model, corpus, max_windows=EVAL_WINDOWS)
    for _ in range(WARMUP_STEPS):
        train_one(model, corpus, state, tcfg, ledger)

    tracer = spans.Tracer() if trace else None
    untraced, traced, useful = [], [], []
    saves, loads = [], []
    ppl, eval_times = None, []
    ckpt_path = work_dir / f"{name}-{os.getpid()}.ckpt"
    config_text = format_config(cfg)
    start = time.perf_counter()
    try:
        while len(untraced) + len(traced) < MIN_TRAIN_STEPS or time.perf_counter() < start + seconds:
            # Evaluation repeats are spread over the loop, so a burst of
            # machine noise hits only part of them. Their cost does not depend
            # on the weights; only the first ones, at a fixed step, give eval_ppl.
            if state.step >= EVAL_AFTER_STEP and sum(eval_times) <= EVAL_SHARE * (time.perf_counter() - start):
                first = ppl is None
                repeat_ppl, times = evaluate(model, corpus, MIN_EVAL_REPEATS if first else 1, ledger)
                eval_times += times
                if first:
                    ppl = repeat_ppl
                    ledger.check(ppl < initial_ppl, f"eval perplexity {ppl!r} after {state.step} steps is not below {initial_ppl!r} at step 0")
            trace_step = tracer is not None and state.step % 2 == 1
            with tracer.installed() if trace_step else nullcontext():
                dt = train_one(model, corpus, state, tcfg, ledger)
            if dt is None:
                break
            (traced if trace_step else untraced).append(dt)
            if trace_step:
                useful.append(useful_row_frac(model))
            if w.checkpoint_every and (len(untraced) + len(traced)) % w.checkpoint_every == 0:
                with tracer.installed() if tracer is not None else nullcontext():
                    state, save_s, load_s = checkpoint_round_trip(ckpt_path, model, state, config_text, ledger)
                saves.append(save_s)
                loads.append(load_s)
    finally:
        ckpt_path.unlink(missing_ok=True)

    for p in model.named_parameters().values():
        p.zero_grad()  # the last step's gradients are not needed by the checks
    oracle_frac = check_retrieval(model, corpus, seed, ledger)
    measured = analysis.measured_mac_per_token(model.middle)
    formula = analysis.mac_per_token(model.config.middle_config)
    ledger.check(measured == formula, f"metered MACs per token {measured} != formula {formula}")

    if saves:
        report.append(f"ckpt_save_ms {1e3 * statistics.median(saves)!r} ms ({len(saves)} round trips)")
        report.append(f"ckpt_load_ms {1e3 * statistics.median(loads)!r} ms")
    report.append(f"error_rate {len(ledger.failures) / ledger.attempted!r} ({len(ledger.failures)} of {ledger.attempted})")

    if len(untraced) + len(traced) < MIN_TRAIN_STEPS:  # a step failed and training stopped
        return {}, ledger, report, tracer
    if tracer is None:
        tail_ms, tail_pct, n = tail(untraced)
        report.append(f"train_step_ms_tail is p{tail_pct:.1f} of {n} steps, 10 beyond it")
        metrics = {
            "train_tokens_per_s": tokens_per_step * len(untraced) / sum(untraced),
            "train_step_ms_p50": 1e3 * statistics.median(untraced),
            "train_step_ms_tail": 1e3 * tail_ms,
            "eval_tokens_per_s": EVAL_WINDOWS * w.seq_len / statistics.median(eval_times),
            "eval_ppl": ppl,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        report.append(f"traced {len(traced)} of {len(traced) + len(untraced)} steps (every other one)")
        metrics = layer_metrics(tracer, len(traced))
        metrics.update(
            {
                "train.optimizer.useful_row_frac": statistics.mean(useful),
                "product_keys.oracle_match_frac": oracle_frac,
                "analysis.macs_per_token.measured": measured,
                "analysis.macs_per_token.formula": formula,
                "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
            }
        )
        metrics = {k: metrics[k] for k in PER_LAYER}
    return metrics, ledger, report, tracer
