#!/usr/bin/env python3
"""Benchmark the certificate engine: time the lemma-ladder seeding and the
per-claim certification at each strand count, and report how many lemmas
were scripted or searched, the search's candidates and expansions, and
certificate sizes.
Every certificate is replayed against the presentation; the exit status is 1
if any is rejected.

Example:
    python3 scripts/certificate_benchmark.py --min 2 --max 5
"""

import argparse
import sys
import time

from braidcover.identities import CertificateEngine, paper_claims
from braidcover.presentations import van_buskirk
from braidcover.rewriting import NotFound, verify_derivation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min", type=int, default=2)
    ap.add_argument("--max", type=int, default=5)
    args = ap.parse_args()
    rejected_total = 0
    for n in range(args.min, args.max + 1):
        engine = CertificateEngine(n)
        t0 = time.perf_counter()
        try:
            engine.seed_all()
        except NotFound as exc:
            print(f"n={n}: lemma ladder failed at {exc.lemma} after "
                  f"{time.perf_counter() - t0:.1f}s ({exc.stats.candidates} "
                  f"candidates, {exc.stats.expanded} expansions)")
            continue
        seed_time = time.perf_counter() - t0
        searched = [r for r in engine.records.values() if r.method == "searched"]
        print(f"n={n}: {len(engine.records) - len(searched)} scripted lemmas, "
              f"{len(searched)} searched lemmas, "
              f"{sum(r.candidates for r in searched)} candidates, "
              f"{sum(r.expanded for r in searched)} expansions")
        p = van_buskirk(n)
        total_steps = 0
        longest = ("", 0)
        failures = []
        rejected = []
        t0 = time.perf_counter()
        for claim in paper_claims(n):
            try:
                d = engine.certify(claim)
            except NotFound:
                failures.append(claim.label)
                continue
            if not verify_derivation(p, d):
                rejected.append(claim.label)
                continue
            total_steps += len(d.steps)
            if len(d.steps) > longest[1]:
                longest = (claim.label, len(d.steps))
        cert_time = time.perf_counter() - t0
        nclaims = len(paper_claims(n))
        print(f"n={n}: {len(engine.lemmas)} lemmas seeded in {seed_time:.1f}s; "
              f"{nclaims - len(failures) - len(rejected)}/{nclaims} claims certified in "
              f"{cert_time:.1f}s; {total_steps} total steps; "
              f"longest certificate: {longest[0]} ({longest[1]} steps)")
        for label in failures:
            print(f"  NOT FOUND within budget: {label}")
        for label in rejected:
            print(f"  REJECTED on replay: {label}")
        rejected_total += len(rejected)
    return 1 if rejected_total else 0


if __name__ == "__main__":
    sys.exit(main())
