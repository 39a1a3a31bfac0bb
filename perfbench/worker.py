"""One workload in one process: set up, run whole rounds, report JSON.

Started by run.py with the interpreter; not meant to be run by hand.  The
last line of standard output is one JSON object; a wrong answer makes it
say "correct": false and exits 1.  Durations in it are reference seconds
(see hostspeed.py); the host's own seconds come alongside as raw_*.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from hostspeed import HostProbe, host_ref_ms


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ref_start = host_ref_ms()
    probe = HostProbe()
    probe.start()
    perf = time.perf_counter
    setup_start = perf()
    import workloads  # imports braidcover: part of set-up

    tracer = banks = kept = None
    if args.trace_out:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        banks, kept = layers.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_end = perf()
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": probe.reference_seconds(setup_start, setup_end),
                          "raw_setup_s": setup_end - setup_start}))
        return 0

    import checks

    correct, error = True, None
    rounds: list[list[tuple[float, float]]] = []  # per round, per op: (start, end)
    attempted = failed = 0
    try:
        for once in workload.once_checks:
            once()
        start = perf()
        while len(rounds) < workload.min_rounds or perf() - start < args.seconds:
            if workload.max_rounds is not None and len(rounds) >= workload.max_rounds:
                break
            spans = []
            for op in workload.ops:
                if tracer is not None:
                    tracer.op = attempted
                a = perf()
                out = op.call()
                spans.append((a, perf()))
                attempted += 1
                if not op.check(out):
                    failed += 1
            rounds.append(spans)
    except checks.WrongAnswer as exc:
        correct, error = False, str(exc)
    probe.stop()

    ref = probe.reference_seconds
    op_s = [[ref(a, b) for a, b in spans] for spans in rounds]
    result = {
        "correct": correct,
        "error": error,
        "attempted": attempted,
        "failed": failed,
        "setup_s": ref(setup_start, setup_end),
        "round_s": [sum(ops) for ops in op_s],
        "op_ms": [t * 1000 for ops in op_s for t in ops],
        "raw_setup_s": setup_end - setup_start,
        "raw_round_s": [sum(b - a for a, b in spans) for spans in rounds],
        "probe_ms": sorted(probe.ms)[len(probe.ms) // 2],
        "tail_percentile": workload.tail_percentile,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_ref_ms": [ref_start, host_ref_ms()],
    }
    if tracer is not None and correct:
        import layers

        result["per_layer"] = layers.metrics(tracer, banks, kept, len(rounds),
                                             workload.extra, ref)
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                      "rounds": len(rounds)}, ref)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
