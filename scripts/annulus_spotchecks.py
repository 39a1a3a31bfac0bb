#!/usr/bin/env python3
"""Randomized injectivity spot checks for the d-fold annulus cover
embedding: every oracle-nontrivial annulus braid word must lift to an
oracle-nontrivial braid of the cover.  For each (d, n) the relator
images are checked first: each defining relator must map to a trivial
braid, or the generator images define no map on the group.  Exits 1 if
a relator image or a spot check fails.

Example:
    python3 scripts/annulus_spotchecks.py --trials 100 --max-n 4
"""

import argparse
import sys
import time

from braidcover.covering import injectivity_spotcheck_annulus, verify_annulus_relator_images


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100, help="trials per (d, n)")
    ap.add_argument("--degrees", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--max-len", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if min(args.degrees) < 2:
        ap.error("every --degrees value must be >= 2")
    if min(args.trials, args.max_n, args.max_len) < 1:
        ap.error("--trials, --max-n and --max-len must be >= 1")
    total_checked = 0
    failed = False
    for d in args.degrees:
        for n in range(1, args.max_n + 1):
            relators = verify_annulus_relator_images(d, n)
            bad = [e for e in relators.entries if not e.ok]
            print(f"d={d} n={n}: {len(relators.entries)} relator images, "
                  f"{f'{len(bad)} NONTRIVIAL' if bad else 'all trivial'}")
            for e in bad:
                print(f"  nontrivial image: {e.label} ({e.relator})")
            if bad:
                failed = True
                continue
            t0 = time.perf_counter()
            rep = injectivity_spotcheck_annulus(
                d, n, args.trials, seed=args.seed, max_len=args.max_len
            )
            dt = time.perf_counter() - t0
            total_checked += rep.checked
            verdict = "ok" if rep.ok else f"{len(rep.failures)} FAILURES"
            print(f"d={d} n={n}: {rep.checked} checked, "
                  f"{rep.skipped_trivial} trivial skipped, {verdict} ({dt:.2f}s)")
            for w in rep.failures:
                print(f"  counterexample: {w}")
            failed = failed or not rep.ok
    print(f"total nontrivial words checked: {total_checked}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
