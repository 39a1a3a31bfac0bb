#!/usr/bin/env python3
"""Export lift scenes (SVG diagrams and plain-text strand paths) for every
generator of the projective-plane braid group at a given strand count,
plus any extra words supplied on the command line.

Example:
    python3 scripts/export_lift_gallery.py 3 --out-dir gallery --word "s1 r1 s1"
"""

import argparse
import pathlib
import sys

from braidcover.covering import (
    ANTIPODAL,
    extract_word,
    lift_motion,
    scene_to_svg,
    scene_to_text,
    word_motion,
)
from braidcover.words import format_word, gen_word, parse_word, rho, sigma


def export(word, name: str, n: int, out_dir: pathlib.Path) -> None:
    scene = lift_motion(word_motion(word, n), ANTIPODAL)
    (out_dir / f"{name}.svg").write_text(scene_to_svg(scene))
    (out_dir / f"{name}.txt").write_text(scene_to_text(scene))
    lifted = extract_word(scene)
    print(f"{name}: {format_word(word) or '(empty)'}  ->  "
          f"{format_word(lifted) or '(empty)'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("n", type=int)
    ap.add_argument("--word", dest="words", action="append", default=[],
                    help="extra braid word to export (repeatable)")
    ap.add_argument("--out-dir", default="lift_gallery")
    args = ap.parse_args()
    if args.n < 1:
        ap.error("n must be >= 1")
    words = []
    for text in args.words:
        try:
            words.append(parse_word(text))
            word_motion(words[-1], args.n)  # rejects letters outside B_n(RP^2)
        except ValueError as exc:
            ap.error(f"--word {text!r}: {exc}")
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(1, args.n):
        export(gen_word(sigma(i)), f"sigma{i}", args.n, out_dir)
    for j in range(1, args.n + 1):
        export(gen_word(rho(j)), f"rho{j}", args.n, out_dir)
    for k, word in enumerate(words, start=1):
        export(word, f"word{k}", args.n, out_dir)
    print(f"wrote scenes to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
