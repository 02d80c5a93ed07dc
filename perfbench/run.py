"""peer-lab benchmark: closed-loop byte-LM train and eval throughput.

Run from the repository root:

    python3 perfbench/run.py --workload desk-peer --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--workload all` runs every workload listed in BENCHMARK.json, each in its
own process, one after the other. With `--trace 0` the last line of output is
a JSON object with the end-to-end metrics; with `--trace 1` it carries the
per-module metrics of a traced run, and the spans are written to
`.perfbench/trace-<workload>-seed<seed>.json`. The exit code is non-zero if
any correctness check failed or the sources under `src/` are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS single-threaded, whatever the environment says.

    The matrices here are small: on a 2-CPU machine two BLAS threads gave no
    faster desk-peer step than one (238 vs 237 ms median), and one thread
    stays within nproc on any machine. Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_sources() -> None:
    """Put this checkout's `src/` first on sys.path and make sure it is used."""
    src = ROOT / "src"
    if not (src / "peer_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no peer_lab sources under {src}")
    sys.path.insert(0, str(src))
    import peer_lab

    if Path(peer_lab.__file__).resolve().parent != (src / "peer_lab").resolve():
        sys.exit(f"perfbench: imported peer_lab from {peer_lab.__file__}, not from {src}")


def run_all(args) -> int:
    """Each listed workload in its own process; non-zero if any run failed."""
    with open(ROOT / "BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    worst = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def run_one(args) -> int:
    pin_blas_threads()
    import_sources()
    import bench

    if args.workload not in bench.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)} or all")
    WORK_DIR.mkdir(exist_ok=True)
    metrics, ledger, report, tracer = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), WORK_DIR)
    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for line in report:
        print(line)
    env = bench.environment(ROOT, args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if tracer is not None:
        out = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(out, "w") as f:
            json.dump({"env": env, "metrics": metrics, "spans": [vars(s) for s in tracer.spans]}, f)
        print(f"spans written to {out.relative_to(ROOT)}")
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = not ledger.failures and bool(metrics)
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, 'smoke' or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
