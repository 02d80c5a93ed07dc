"""Fixed-compute sweep: train each (method, size) point for as many steps as
the MAC budget allows, record the validation perplexity, and emit one CSV
row per configuration plus a per-method plot-data file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import analysis
from .config import dataclass_from_flat
from .data import Corpus
from .model import build_model, model_config_from_flat
from .train import TrainConfig, evaluate_perplexity, train

ISOFLOP_HEADER = "method,total_params,active_params,steps,val_ppl"


@dataclass
class SweepResult:
    method: str
    d_model: int
    total_params: int
    active_params: int
    steps: int
    val_ppl: float


def isoflop_sweep(
    cfg: dict,
    corpus: Corpus,
    out_dir,
    time_cap_s: float | None = None,
    bias_accounting: bool = True,
    log=print,
) -> list[SweepResult]:
    """Train every (method, d_model) grid point under one shared MAC budget.

    steps = floor(budget / MACs-per-training-step). The budget must allow at
    least 10 steps for the costliest grid point. Results land in
    out_dir/isoflop.csv and out_dir/isoflop_plot.json.
    """
    methods = list(cfg["sweep.methods"])
    d_models = list(cfg["sweep.d_models"])
    if not methods or not d_models:
        raise ValueError("sweep grid is empty")
    budget = int(cfg["sweep.budget_macs"])
    train_cfg = dataclass_from_flat(TrainConfig, cfg, "train")

    plan = []
    for method in methods:
        for d_model in d_models:
            mc = model_config_from_flat({**cfg, "model.middle_layer": method, "model.d_model": d_model, "model.d_ff": 4 * d_model})
            step_macs = analysis.model_train_step_macs(mc, train_cfg.batch)
            steps = budget // step_macs
            plan.append((method, d_model, mc, steps))
    worst = min(plan, key=lambda item: item[3])
    if worst[3] < 10:
        raise ValueError(
            f"budget {budget:.3g} MACs allows only {worst[3]} steps for {worst[0]} at d_model={worst[1]}; need >= 10"
        )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: list[SweepResult] = []
    started = time.perf_counter()
    for method, d_model, mc, steps in plan:
        if time_cap_s is not None and time.perf_counter() - started > time_cap_s:
            log(f"time cap {time_cap_s}s reached; skipping remaining configurations")
            break
        log(f"sweep: {method} d_model={d_model} steps={steps}")
        model = build_model(mc)
        train(model, corpus, replace(train_cfg, steps=steps, warmup=min(train_cfg.warmup, steps)))
        ppl = evaluate_perplexity(model, corpus)
        counts = mc.middle_config.param_counts(bias_accounting)
        backbone = model.n_params() - counts.total
        results.append(
            SweepResult(
                method=method,
                d_model=d_model,
                total_params=backbone + counts.total,
                active_params=backbone + counts.active,
                steps=steps,
                val_ppl=ppl,
            )
        )

    results.sort(key=lambda r: (r.method, r.total_params))
    with open(out_dir / "isoflop.csv", "w") as f:
        f.write(ISOFLOP_HEADER + "\n")
        for r in results:
            f.write(f"{r.method},{r.total_params},{r.active_params},{r.steps},{r.val_ppl!r}\n")
    series = {}
    for r in results:
        series.setdefault(r.method, {"total_params": [], "val_ppl": []})
        series[r.method]["total_params"].append(r.total_params)
        series[r.method]["val_ppl"].append(r.val_ppl)
    with open(out_dir / "isoflop_plot.json", "w") as f:
        json.dump({"x_axis": "total_params", "y_axis": "val_ppl", "series": series}, f, indent=2)
    return results
