"""peer-lab command line: train, eval, retrieve-bench, sweep, metrics, grad-check."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis
from .checkpoint import load_checkpoint
from .config import dataclass_from_flat, default_config, format_config, load_config, parse_config
from .data import Corpus
from .model import build_model, model_config_from_flat
from .peer import PeerConfig, record_usage
from .product_keys import ProductKeyLayer, build_index, retrieve_exhaustive, retrieve_topk
from .tensor import MacMeter, grad_check
from .train import TrainConfig, evaluate_perplexity, load_train_checkpoint, train

BENCH_HEADER = "N,d,k,method,macs,comparisons,wall_ns,match"


def _load_cfg(args) -> dict:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        cfg["model.seed"] = args.seed
        cfg["train.seed"] = args.seed
        cfg["data.seed"] = args.seed
    if getattr(args, "data", None):
        cfg["data.path"] = args.data
    return cfg


def _corpus_from_cfg(cfg: dict) -> Corpus:
    if cfg["data.path"]:
        return Corpus.from_file(cfg["data.path"], val_fraction=cfg["data.val_fraction"])
    return Corpus.synthetic(cfg["data.synthetic_bytes"], seed=cfg["data.seed"], val_fraction=cfg["data.val_fraction"])


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    corpus = _corpus_from_cfg(cfg)
    out_dir = Path(args.out_dir)
    model = build_model(model_config_from_flat(cfg))
    tc = dataclass_from_flat(TrainConfig, cfg, "train")
    state = None
    if args.resume:
        state = load_train_checkpoint(args.resume, model)
        print(f"resumed from {args.resume} at step {state.step}")
    state, rows = train(
        model,
        corpus,
        tc,
        state=state,
        metrics_path=out_dir / "metrics.csv",
        checkpoint_path=out_dir / "checkpoint.bin",
        config_text=format_config(cfg),
        log_every=args.log_every,
    )
    ppl = evaluate_perplexity(model, corpus)
    print(f"done: step={state.step} final_loss={rows[-1]['loss']:.4f} val_ppl={ppl:.4f}")
    return 0


def _checkpoint_model(args, routed: bool = False):
    """The config, model and train state of `args.checkpoint`, reading the file once.

    The config is `args.config` or else the one embedded in the checkpoint,
    with `args.data` overriding its corpus. With `routed`, a model without
    routed experts is rejected before the file is read, if it can be.
    """
    tensors = None
    if args.config:
        cfg = load_config(args.config)
    else:
        tensors = load_checkpoint(args.checkpoint)
        if "meta.config" not in tensors:
            raise ValueError(f"checkpoint {args.checkpoint} carries no embedded config")
        cfg = parse_config(tensors["meta.config"].tobytes().decode("utf-8"))
    if args.data:
        cfg["data.path"] = args.data
    model = build_model(model_config_from_flat(cfg))
    if routed and not isinstance(model.middle, ProductKeyLayer):
        raise SystemExit(f"middle layer {cfg['model.middle_layer']!r} has no routed experts to measure")
    state = load_train_checkpoint(args.checkpoint if tensors is None else tensors, model)
    return cfg, model, state


def cmd_eval(args) -> int:
    cfg, model, state = _checkpoint_model(args)
    ppl = evaluate_perplexity(model, _corpus_from_cfg(cfg))
    print(f"step={state.step} val_ppl={ppl:.6f}")
    return 0


def cmd_retrieve_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    lines = [BENCH_HEADER]
    for trial in range(args.trials):
        index = build_index(args.n, args.d, seed=args.seed + trial)
        query = rng.normal(size=args.d)

        with MacMeter() as m_prod:
            t0 = time.perf_counter_ns()
            r_prod = retrieve_topk(index, query, args.k)
            t_prod = time.perf_counter_ns() - t0

        with MacMeter() as m_ex:
            t0 = time.perf_counter_ns()
            r_ex = retrieve_exhaustive(index, query, args.k)
            t_ex = time.perf_counter_ns() - t0

        match = int(np.array_equal(r_prod.indices, r_ex.indices) and np.array_equal(r_prod.scores, r_ex.scores))
        lines.append(f"{args.n},{args.d},{args.k},product,{m_prod.total},{m_prod.comparisons},{t_prod},{match}")
        lines.append(f"{args.n},{args.d},{args.k},exhaustive,{m_ex.total},{m_ex.comparisons},{t_ex},{match}")
    text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
        print(f"wrote {args.trials * 2} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    from .sweep import isoflop_sweep

    cfg = _load_cfg(args)
    corpus = _corpus_from_cfg(cfg)
    results = isoflop_sweep(
        cfg, corpus, args.out_dir, time_cap_s=args.time_cap_s, bias_accounting=not args.no_bias_accounting
    )
    for r in results:
        print(f"{r.method:6s} P={r.total_params:>9d} steps={r.steps:>6d} val_ppl={r.val_ppl:.4f}")
    best = {}
    for r in results:
        if r.method not in best or r.val_ppl < best[r.method].val_ppl:
            best[r.method] = r
    for method, r in sorted(best.items()):
        print(f"optimum[{method}]: d_model={r.d_model} val_ppl={r.val_ppl:.4f}")
    return 0


def cmd_metrics(args) -> int:
    cfg, model, _ = _checkpoint_model(args, routed=True)
    corpus = _corpus_from_cfg(cfg)
    windows = corpus.val_windows(model.config.seq_len)
    if not windows:
        raise SystemExit("validation split is empty")
    acc = analysis.UsageAccumulator.create(model.middle.config.n_keys)
    for x, _ in windows:
        _, routing = model.forward(x[None, :], mode="infer")
        record_usage(routing, acc)
    usage, unevenness = analysis.expert_usage_metrics(acc)
    print(f"usage={usage} unevenness={unevenness}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    z = acc.z_prime / acc.z_prime.sum()
    with open(out_dir / "usage.csv", "w") as f:
        f.write("expert_id,z\n")
        for i, zi in enumerate(z):
            f.write(f"{i},{float(zi)!r}\n")
    return 0


def cmd_grad_check(args) -> int:
    from .model import ModelConfig

    mc = ModelConfig(
        n_blocks=1,
        d_model=8,
        n_attn_heads=2,
        d_ff=16,
        seq_len=8,
        activation="gelu",
        middle_layer="peer",
        middle_config=PeerConfig(n_experts=16, heads=2, topk=2, d_model=8, query_dim=8, activation="gelu", query_bn=True),
        seed=args.seed,
        dtype="float64",
    )
    model = build_model(mc)
    rng = np.random.default_rng(args.seed)
    tokens = rng.integers(0, 256, size=(2, 4))
    targets = rng.integers(0, 256, size=(2, 4))

    def f():
        return model.loss(tokens, targets, mode="train")

    errors = grad_check(f, model.named_parameters(), step=1e-5, max_coords=8, seed=args.seed)
    for name, err in sorted(errors.items()):
        print(f"{name:30s} rel_err={err:.3e}")
    worst = max(errors.values())
    print(f"max rel_err={worst:.3e} ({'OK' if worst <= 1e-3 else 'FAIL'})")
    return 0 if worst <= 1e-3 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peer-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a byte LM with the configured middle layer")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out-dir", default="runs/train", help="metrics + checkpoint directory")
    p.add_argument("--seed", type=int, default=None, help="override model/train/data seeds")
    p.add_argument("--data", help="path to a raw byte corpus (default: synthetic)")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--log-every", type=int, default=100)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="validation perplexity of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="config file (default: config embedded in the checkpoint)")
    p.add_argument("--data", help="path to a raw byte corpus")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("retrieve-bench", help="product vs exhaustive retrieval benchmark CSV")
    p.add_argument("--n", type=int, default=4096, help="number of experts (perfect square)")
    p.add_argument("--d", type=int, default=16, help="key dimension (even)")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="CSV path, or - for stdout")
    p.set_defaults(func=cmd_retrieve_bench)

    p = sub.add_parser("sweep", help="fixed-MAC-budget comparison sweep")
    p.add_argument("--config", help="key=value config file with sweep.* keys")
    p.add_argument("--out-dir", default="runs/sweep")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data", help="path to a raw byte corpus")
    p.add_argument("--time-cap-s", type=float, default=None, help="stop starting new configs after this many seconds")
    p.add_argument(
        "--no-bias-accounting",
        action="store_true",
        help="count per-expert parameters as 2*d_model (no bias slot) in the CSV",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("metrics", help="expert usage / unevenness of a checkpoint on validation data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="config file (default: embedded in checkpoint)")
    p.add_argument("--data", help="path to a raw byte corpus")
    p.add_argument("--out-dir", default="runs/metrics")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("grad-check", help="finite-difference check of a tiny full model")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
