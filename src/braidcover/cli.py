"""Command-line interface.

Exit codes: 0 = everything checked is verified; 2 = only an explicit
gap: a report claim that is partially-verified (the order ledger beyond
n = 2), or a coset enumeration that did not close within MAX_COSETS
cosets; 1 = hard failure (a machine check contradicted a claim, or bad
input).
"""

from __future__ import annotations

import argparse
import sys

from .atlas import VerificationFailure, classify, verify_suite
from .enumeration import EnumerationOverflow, TableNotClosed, coset_enumerate
from .identities import CertificateEngine, claim_builders
from .oracles import annulus_oracle, disc_word_problem, sphere_word_problem
from .presentations import Presentation, annulus_presentation, sphere_presentation, van_buskirk
from .words import format_word, parse_word

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_GAPS = 2


# per surface, in the order of each command's choices
_PRESENTATIONS = {"rp2": van_buskirk, "s2": sphere_presentation, "annulus": annulus_presentation}
_WORD_PROBLEMS = {"s2": sphere_word_problem, "annulus": annulus_oracle, "disc": disc_word_problem}


def cmd_present(args) -> int:
    print(_PRESENTATIONS[args.surface](args.n).to_text(), end="")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    with open(args.presentation_file) as fh:
        p = Presentation.from_text(fh.read())
    try:
        table = coset_enumerate(p)
    except (TableNotClosed, EnumerationOverflow) as exc:
        print(f"enumeration did not close: {exc}", file=sys.stderr)
        return EXIT_GAPS
    print(f"order {table.num_cosets}")
    return EXIT_OK


def cmd_derive(args) -> int:
    builders = claim_builders(args.n)
    if args.claim_id not in builders:
        print(f"unknown claim {args.claim_id!r}; available: "
              f"{' '.join(sorted(builders))}", file=sys.stderr)
        return EXIT_FAILURE
    d = CertificateEngine(args.n).certify(builders[args.claim_id]())
    # with --json, standard output is the one JSON document
    if args.json:
        print(d.to_json())
    else:
        print(f"claim {args.claim_id}: certified in {len(d.steps)} steps")
    return EXIT_OK


def cmd_wp(args) -> int:
    v = _WORD_PROBLEMS[args.surface](args.m, parse_word(args.word))
    print(f"{v.verdict} ({v.evidence})")
    return EXIT_OK


def cmd_lift(args) -> int:
    # the only command that needs the sampled geometry, and so numpy
    try:
        from .geometry import (ANTIPODAL, extract_word, lift_motion, scene_to_svg, scene_to_text,
                               word_motion)
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print("error: lift needs numpy; install the geometry extra: "
              "pip install 'braidcover[geometry]'", file=sys.stderr)
        return EXIT_FAILURE

    w = parse_word(args.word)
    scene = lift_motion(word_motion(w, args.n, "rp2"), ANTIPODAL)
    word = extract_word(scene)
    with open(f"{args.out}.txt", "w") as fh:
        fh.write(scene_to_text(scene))
    with open(f"{args.out}.svg", "w") as fh:
        fh.write(scene_to_svg(scene))
    print(f"lifted word: {format_word(word) or '(empty)'}")
    print(f"wrote {args.out}.txt and {args.out}.svg")
    return EXIT_OK


def cmd_classify(args) -> int:
    for e in classify(args.surface, args.n):
        print(f"{e.describe():10s} order {e.order:4d}  ({e.condition})")
    return EXIT_OK


def _report_exit(report) -> int:
    return EXIT_OK if report.all_verified else EXIT_GAPS


def cmd_verify(args) -> int:
    report = verify_suite(args.n)
    for c in report.claims:
        print(f"{c.name:30s} {c.status}")
        for g in c.gaps:
            print(f"{'':30s}   gap: {g}")
    return _report_exit(report)


def cmd_report(args) -> int:
    report = verify_suite(args.n)
    print(report.to_json() if args.format == "json" else report.to_markdown(), end="")
    return _report_exit(report)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="braidcover",
        description="surface braid group toolkit: presentations, certificates, "
        "covering lifts, finite subgroup classification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present", help="print a presentation")
    p.add_argument("surface", choices=list(_PRESENTATIONS))
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("enumerate", help="coset-enumerate a presentation file")
    p.add_argument("presentation_file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("derive", help="certify a named identity")
    p.add_argument("claim_id")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true",
                   help="print only the derivation, as JSON")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("wp", help="word problem verdict")
    p.add_argument("surface", choices=list(_WORD_PROBLEMS))
    p.add_argument("m", type=int)
    p.add_argument("word")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("lift", help="lift a projective-plane braid word")
    p.add_argument("n", type=int)
    p.add_argument("word")
    p.add_argument("--out", default="lift_scene")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("classify", help="maximal finite subgroups")
    p.add_argument("surface", choices=["rp2", "s2", "mcg_rp2"])
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="emit a classification report")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(func=cmd_report)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:  # raised by verify and report
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
