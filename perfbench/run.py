#!/usr/bin/env python3
"""braidcover benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 15 --trace 0

Run from the repository root.  Every workload runs in its own
single-threaded process (perfbench/worker.py).  With --trace 0 the last
line of standard output is a JSON object holding the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run, and the
spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 175  # a run must end within 180 s

# set-ups per run; setup_s is their median (recheck-certs builds 51
# certificates in each, so it takes fewer)
SETUPS = {"verify-ladder": 9, "recheck-certs": 3, "lift-decide": 9}

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # numpy must not start BLAS threads
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("no time left for the next worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} did not end in time") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"worker {args} exited {proc.returncode} without a result") from exc
    if proc.returncode != 0 and report.get("correct", True):
        raise WorkerError(f"worker {args} exited {proc.returncode}")
    return report


def end_to_end(report: dict, setup_s: float) -> dict[str, dict]:
    ops = report["op_ms"]
    p = report["tail_percentile"]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(report["round_s"]),
        "op_p50_ms": statistics.median(ops),
        "op_tail_ms": (max(ops) if p == 100
                       else statistics.quantiles(ops, n=100, method="inclusive")[p - 1]),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "braidcover" / "__init__.py").is_file():
        print(f"run.py: no braidcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    full = common + ["--seconds", str(args.seconds)]
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace == 0:
            setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUPS[args.workload] - 1)]
            report = run_worker(full, deadline)
            correct = report["correct"]
            metrics = {}
            if correct:
                setup_s = statistics.median(setups + [report["setup_s"]])
                metrics = end_to_end(report, setup_s)
        else:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            plain = run_worker(full, deadline)
            report = run_worker(full + ["--trace-out", str(trace_file)], deadline)
            correct = plain["correct"] and report["correct"]
            report["error"] = plain["error"] or report["error"]
            metrics = {}
            if correct:
                layer = dict(report["per_layer"])
                layer["host.ref_ms"] = statistics.median(report["host_ref_ms"])
                layer["trace.overhead_s"] = (statistics.median(report["round_s"])
                                             - statistics.median(plain["round_s"]))
                metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if report["error"]:
        print(f"WRONG ANSWER: {report['error']}", file=sys.stderr)
    start, end = report["host_ref_ms"]
    print(f"host.ref_ms start={start:.3f} end={end:.3f} (fixed pure-Python loop)")
    if report["raw_round_s"]:
        print(f"host seconds: setup {report['raw_setup_s']:.4g} s, "
              f"round median {statistics.median(report['raw_round_s']):.4g} s "
              f"over {len(report['raw_round_s'])} rounds; probe median {report['probe_ms']:.3f} ms")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith(("identities.seed_s", "atlas.verify_suite_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_kb"):
        return "kB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
