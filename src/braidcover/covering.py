"""The covering embeddings of surface braid groups, as exact words.

The antipodal double cover S^2 -> RP^2 induces an embedding
psi: B_n(RP^2) -> B_2n(S^2).  Its generator images are written here in
closed form, derived from the lift of each generator's motion.  The
basepoints b_1..b_n lie on a short line through the north pole; sheet i
of the cover sits at b_i and sheet n+i at -b_i.  Projected from
(-1, 0, 0), a point on the great circle of that line, both copies keep
the order of the line, so the strand order reads sheets 1, ..., 2n.

- sigma_i swaps b_i and b_{i+1} by a half-turn in the cap.  Sheets
  n+i, n+i+1 make the antipodal copy of the swap, and the antipodal map
  reverses orientation, so the two crossings have opposite signs:
  psi(sigma_i) = sigma_{n+i} sigma_i^-1.
- rho_j runs strand j along the great circle through b_j to -b_j,
  behind every other strand in the projection's depth.  Sheet j moves
  right past the upper sheets j+1..n while sheet n+j, in front of every
  strand, moves left past the lower sheets n+j-1..n+1: the ascending
  chain sigma_j..sigma_{n-1} and the descending chain
  sigma_{n+j-1}..sigma_{n+1}.  The two moving sheets then cross each
  other at positions n, n+1 (sigma_n), and each passes the other sheets
  of the far copy: the mirror of the first half.  Every crossing has the
  left strand behind, so every letter is negative, and psi(rho_j) is a
  word of 2n-1 letters.

Letters of the two chains commute, their indices being at most n-1 and
at least n+1, so any interleaving gives the same braid.  The one written
(_rho_indices) is the order in which the diagram reader meets the
crossings: it equals the extracted words letter for letter at least for
n <= 19.  Beyond, and for the lifts of whole words, the lift and the
formula differ only in the order of letters whose indices differ by at
least 2: lifted . psi(w)^-1 cancels to the empty word by free
cancellation across such letters (oracles._far_reduce), with no braid
relation.  The tests check this for every generator with n <= 32 and for
seeded words with n = 2..6 and 1 to 16 letters.  The image of a word is
the concatenation of its letter images, and verify_relator_images
decides every defining relator's image trivial with the exact sphere
oracle, which makes the formula a homomorphism.

The d-fold annulus cover's generator images come from geometric lifts,
joined the same way.  One loop decides both covers' relator images, each
with its own surface's oracle: disc_word_problem decides the annulus
cover's, and its spot checks.  The sampled geometry lives in
braidcover.geometry, the only module that imports numpy.  Its names
(StrandMotion, LiftScene, generator_motion, word_motion, lift_motion,
extract_word, the scene exports and the rest) are also reached here: the
first use of one loads that module.  Psi and every exact verdict built
on it never load it; the geometric lifts stay an independent witness of
the formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import zip_longest

from .oracles import Verdict, annulus_oracle, disc_word_problem, sphere_word_problem
from .presentations import _van_buskirk_relators, annulus_presentation
from .words import BraidWord, Generator, _trusted_word, sigma, tau


def __getattr__(name: str):
    """The geometric names, from braidcover.geometry, loaded on first use."""
    if not name.startswith("__"):
        from . import geometry

        if hasattr(geometry, name):
            return getattr(geometry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# the induced embedding into the sphere braid group


def _rho_indices(n: int, j: int) -> list[int]:
    """The sigma indices of psi(rho_j), whose letters are all negative:
    the chains j..n-1 and n+j-1..n+1 interleaved, the longer first (the
    one from j on a tie), then n, then the first half mirrored.  On a tie
    the mirror keeps the order within each pair."""
    up, down = range(j, n), range(n + j - 1, n, -1)
    tie = len(up) == len(down)
    pairs = list(zip_longest(*((up, down) if len(up) >= len(down) else (down, up))))
    half = [i for pair in pairs for i in pair if i is not None]
    mirror = [i for pair in reversed(pairs) for i in (pair if tie else pair[::-1])
              if i is not None]
    return half + [n] + mirror


@lru_cache(maxsize=None)
def _psi_generator(n: int, g: Generator, e: int) -> BraidWord:
    if g.kind not in "sr":
        raise ValueError(f"generator {g} is not a projective-plane generator")
    g.check_bounds(n)
    if g.kind == "s":
        w = BraidWord(((sigma(n + g.index), 1), (g, -1)))
    else:
        w = BraidWord(tuple((sigma(i), -1) for i in _rho_indices(n, g.index)))
    return w if e == 1 else w.inverse()


def _join_images(w: BraidWord, image) -> BraidWord:
    """The concatenation of the letter images image(g, e) of w."""
    return _trusted_word(tuple(letter for g, e in w.letters for letter in image(g, e).letters))


def psi(n: int, w: BraidWord) -> BraidWord:
    """Embedding of the projective-plane braid group on n strands into
    the sphere braid group on 2n strands induced by the antipodal cover,
    from the closed-form generator images derived in the module
    docstring.  Homomorphic on the nose: the image of a word is the
    concatenation of the letter images."""
    if n < 1:
        raise ValueError("strand count must be >= 1")
    return _join_images(w, partial(_psi_generator, n))


@dataclass(frozen=True)
class RelatorImageEntry:
    label: str
    relator: BraidWord
    verdict: Verdict

    @property
    def ok(self) -> bool:
        return self.verdict.verdict == "Trivial"


@dataclass(frozen=True)
class RelatorImageReport:
    n: int
    entries: tuple[RelatorImageEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def _relator_report(n: int, relators, image, decide) -> RelatorImageReport:
    """An entry per (label, r) in relators: decide(image(r)).  The oracles
    reduce the word themselves, modulo far commutation."""
    entries = (RelatorImageEntry(label, rel, decide(image(rel))) for label, rel in relators)
    return RelatorImageReport(n, tuple(entries))


def verify_relator_images(n: int) -> RelatorImageReport:
    """Decide whether every defining relator of the projective-plane braid
    group maps to a trivial sphere braid under psi.

    The sphere oracle is exact, so any verdict other than Trivial
    falsifies the generator images."""
    return _relator_report(n, _van_buskirk_relators(n), partial(psi, n),
                           partial(sphere_word_problem, 2 * n))


# ---------------------------------------------------------------------------
# the embedding into the d-fold annulus cover, and injectivity spot checks


@lru_cache(maxsize=None)
def _annulus_generator(d: int, n: int, g: Generator, e: int) -> BraidWord:
    from . import geometry

    # one geometric lift per generator: the inverse image inverts it
    w = geometry.generator_lift(g, n, geometry.annulus_dfold(d))
    return w if e == 1 else w.inverse()


def annulus_cover_image(d: int, n: int, w: BraidWord) -> BraidWord:
    """Image of an annulus braid word under the d-fold cover embedding,
    in the punctured-disc model of the cover: a word over
    sigma_1..sigma_{dn} of the disc group on d*n+1 strands.  Homomorphic
    on the nose, like psi: the concatenation of the letter images."""
    if n < 1:
        raise ValueError("strand count must be >= 1")
    from . import geometry

    # every letter is checked before the degree, as the whole-word lift does
    for g, _e in w.letters:
        geometry.generator_motion(g, n, "annulus")
    geometry.annulus_dfold(d)
    return _join_images(w, partial(_annulus_generator, d, n))


@lru_cache(maxsize=None)
def verify_annulus_relator_images(d: int, n: int) -> RelatorImageReport:
    """Decide whether every defining relator of the annulus braid group
    on n strands maps to a trivial braid under the d-fold cover
    embedding.  The disc oracle on d*n+1 strands is exact, so each
    verdict is; entries are labelled by relator index in
    annulus_presentation(n)."""
    from . import geometry

    geometry.annulus_dfold(d)  # rejects d < 2 also at n = 1, which has no relators
    relators = ((f"relator {i}", rel) for i, rel in enumerate(annulus_presentation(n).relators))
    return _relator_report(n, relators, partial(annulus_cover_image, d, n),
                           partial(disc_word_problem, d * n + 1))


@dataclass(frozen=True)
class SpotcheckReport:
    d: int
    n: int
    trials: int
    checked: int
    skipped_trivial: int
    failures: tuple[BraidWord, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def injectivity_spotcheck_annulus(
    d: int, n: int, trials: int, seed: int = 0, max_len: int = 8
) -> SpotcheckReport:
    """Random nontrivial annulus braid words must lift to nontrivial
    cover braids; any trivial image would contradict injectivity of the
    cover embedding.  Both sides are decided exactly by the disc oracle."""
    if d < 2 or n < 1 or trials < 0 or max_len < 1:
        raise ValueError(
            f"spot check needs d >= 2, n >= 1, trials >= 0 and max_len >= 1; "
            f"got d={d}, n={n}, trials={trials}, max_len={max_len}"
        )

    # without trivial relator images the letter images define no map on
    # the group, and a nontrivial image would say nothing
    for entry in verify_annulus_relator_images(d, n).entries:
        if not entry.ok:
            raise AssertionError(f"annulus cover d={d}, n={n}: {entry.label} "
                                 f"({entry.relator}) maps to a nontrivial braid")
    rng = random.Random(seed)
    gens: list[Generator] = [sigma(i) for i in range(1, n)] + [tau()]
    checked = skipped = 0
    failures = []
    for _ in range(trials):
        w = BraidWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                            for _k in range(rng.randint(1, max_len)))).free_reduce()
        if len(w) == 0 or annulus_oracle(n, w).verdict == "Trivial":
            skipped += 1
            continue
        checked += 1
        if disc_word_problem(d * n + 1, annulus_cover_image(d, n, w)).verdict == "Trivial":
            failures.append(w)
    return SpotcheckReport(d, n, trials, checked, skipped, tuple(failures))

