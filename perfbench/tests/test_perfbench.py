"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, the output
schema and a seconds-long smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, bindings, self_times  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.leaf", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] counts once
        Span("c", 8.0, 12.0, 0),  # only [8, 10] lies inside the root
    ]
    assert self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    assert bench.tail([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0, 100)
    assert bench.tail([float(x) for x in range(11)]) == (0.0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        bench.tail([1.0] * 10)


def test_installing_and_removing_wrappers_restores_every_binding():
    before = {}
    for module, attr, _, _ in spans.TARGETS:
        original, slots = bindings(module, attr)
        assert slots, f"{module}.{attr} has no binding"
        before[(module, attr)] = (original, slots)
    # callers that bound names at import time are found too
    assert {m.__name__ for m, _ in before[("peer_lab.product_keys", "retrieve_topk_batch")][1]} >= {
        "peer_lab.peer",
        "peer_lab.baselines",
    }
    assert "peer_lab.product_keys" in {m.__name__ for m, _ in before[("peer_lab.tensor", "top_k")][1]}
    assert "peer_lab.train" in {m.__name__ for m, _ in before[("peer_lab.checkpoint", "save_checkpoint")][1]}

    with Tracer().installed():
        for original, slots in before.values():
            assert all(getattr(owner, key) is not original for owner, key in slots)
    for original, slots in before.values():
        assert all(getattr(owner, key) is original for owner, key in slots)


def test_traced_step_nests_spans_under_their_callers():
    cfg = bench.flat_config(bench.WORKLOADS["smoke"], seed=3)
    corpus, model, tcfg, state = bench.setup(cfg)
    tracer = Tracer()
    with tracer.installed():
        bench.train_mod.train_step(model, corpus, state, tcfg)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    parent = lambda s: tracer.spans[s.parent].name  # noqa: E731
    assert [s.parent for s in by_name["train.train_step"]] == [None]
    assert {parent(s) for s in by_name["product_keys.retrieve_topk_batch"]} == {"peer.peer_forward"}
    assert {parent(s) for s in by_name["tensor.top_k"]} == {"product_keys.retrieve_topk_batch"}
    assert {parent(s) for s in by_name["tensor.scatter_add_into"]} == {"tensor.tape_backward"}
    assert all(s.end >= s.start for s in tracer.spans)
    metrics = bench.layer_metrics(tracer, n_steps=1)
    assert metrics["tensor.top_k.calls"] == 3  # two sub-key sides and the k*k candidates
    assert metrics["tensor.tape.nodes"] > 0 and metrics["tensor.scatter_add_into.rows"] > 0
    assert 0.0 < bench.useful_row_frac(model) <= 1.0


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS) - {"smoke"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_schema(trace):
    proc = _run("--workload", "smoke", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_the_same_perplexity():
    ppl = []
    for _ in range(2):
        proc = _run("--workload", "smoke", "--seed", "7", "--seconds", "1")
        ppl.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["eval_ppl"]["value"])
    assert ppl[0] == ppl[1]


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "desk-peer", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
