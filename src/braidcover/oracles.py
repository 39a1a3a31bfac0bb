"""Word problem oracles built on the Artin action.

Every oracle returns a Verdict that names the layer that decided.  The
disc braid group acts faithfully on the free group generated by loops
around the punctures, so disc braids are decided by the permutation and
then that action, and annulus braids likewise via an added fixed strand.
The sphere variant acts on the rank m-1 quotient up to inner
automorphisms, and a pure braid whose action is inner is 1 or the full
twist.  So sphere verdicts are layered: permutation, then an exact test
that the action is inner, then the exponent sum of the crossings among
strands 1..3, which separates 1 from the full twist on every strand count.

Free-group words are tuples of nonzero ints: letter +i / -i is the i-th
basis letter x_i or its inverse; words are kept reduced.  So a product of
reduced words cancels only where one word meets the next (_join), and an
Artin step, an endomorphism image or a substitution never re-reduces a
whole word letter by letter.

Before any Artin step, a braid word is reduced in the free partially
commutative group in which sigma_i and sigma_j commute when |i - j| >= 2
(_far_reduce, one linear pass).  Those commutations and free cancellation
hold in the braid group, so the reduced word is the same braid, and the
faithful action gives it the same reduced images.  A word that cancels to
nothing, such as a whole-word lift against its closed-form image, makes
no Artin step; one that does not still costs exponential time on pure
words.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .words import BraidWord, Letter, _trusted_word, permutation_image, sigma

FreeWord = tuple[int, ...]


def free_invert(w: FreeWord) -> FreeWord:
    return tuple(map(operator.neg, reversed(w)))


def _join(*words: FreeWord) -> FreeWord:
    """The reduced concatenation of reduced words: letters cancel
    only where one word meets the next (at most the whole next word, and
    then on into the word before)."""
    out: list[int] = []
    for v in words:
        k = 0
        while k < len(v) and out and out[-1] == -v[k]:
            out.pop()
            k += 1
        out += v[k:]
    return tuple(out)


@dataclass(frozen=True)
class FreeEndo:
    """Endomorphism of the free group of rank `rank`, by basis images,
    each a reduced word."""

    rank: int
    images: tuple[FreeWord, ...]

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise ValueError("need one image per basis letter")
        for w in self.images:
            if w and (0 in w or min(w) < -self.rank or max(w) > self.rank):
                x = next(x for x in w if not 1 <= abs(x) <= self.rank)
                raise ValueError(f"letter {x} out of rank {self.rank}")

    @staticmethod
    def identity(rank: int) -> "FreeEndo":
        return FreeEndo(rank, tuple((i,) for i in range(1, rank + 1)))

    def is_identity(self) -> bool:
        return all(w == (i,) for i, w in enumerate(self.images, start=1))


def _artin_step(images: list[FreeWord], i: int, e: int) -> None:
    """Post-compose with the action of sigma_i^e on the basis, in place.

    sigma_i:   x_i -> x_i x_{i+1} x_i^-1,  x_{i+1} -> x_i
    sigma_i^-1: x_i -> x_{i+1},            x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
    """
    a, b = images[i - 1], images[i]
    if e == 1:
        images[i - 1] = _join(a, b, free_invert(a))
        images[i] = a
    else:
        images[i - 1] = b
        images[i] = _join(free_invert(b), a, b)


def _far_reduce(m: int, w: BraidWord) -> list[int]:
    """The sigma-only word w on m strands reduced in the free partially
    commutative group where sigma_i and sigma_j commute when |i - j| >= 2,
    as signed indices (+i is sigma_i, -i its inverse).  Raises ValueError
    at the first letter that is not a sigma or whose index is outside
    1..m-1.

    One pass in reading order.  For each index a stack holds the output
    positions of its live letters.  A letter s_i^e cancels the last live
    s_i letter when that letter is s_i^-e and no live s_(i-1) or s_(i+1)
    letter stands after it, so that every letter between them commutes
    with s_i; otherwise it is appended.

    One pass suffices: the output never holds a cancellable pair
    s_i^e u s_i^-e, with u of letters 2 or more indices from i.  Appending
    a letter can add only the pair it makes with the last live s_i, since
    that letter blocks every earlier one, and the pass cancels that pair
    when it can.  A cancellation never unblocks an earlier pair: if a
    letter b of index j blocks a pair of index i, the pair's right letter
    c stands after b.  For j = i +- 1, c is a neighbour of b standing after
    it, so b cannot be cancelled; for j = i, c is a later s_i, so a
    cancelling s_i meets c, not b.  A word with no cancellable pair is a
    reduced form of its element in the free partially commutative group,
    so the element is trivial exactly when the word is empty.
    """
    out: list[int] = []
    live = [[] for _ in range(m + 1)]  # live[i]: positions of s_i letters; 0 and m stay empty
    for g, e in w.letters:
        kind, i = g
        if kind != "s":
            raise ValueError(f"disc action needs sigma-only words, got {g}")
        if not 1 <= i <= m - 1:
            raise ValueError(f"sigma index {i} out of bounds for m={m}")
        x = i if e == 1 else -i
        same = live[i]
        if same:
            p = same[-1]
            below, above = live[i - 1], live[i + 1]
            if out[p] == -x and not (below and below[-1] > p) and not (above and above[-1] > p):
                same.pop()
                out[p] = 0
                continue
        same.append(len(out))
        out.append(x)
    return [x for x in out if x]


def disc_action(m: int, w: BraidWord) -> FreeEndo:
    """Artin action of a sigma-only word on the free group of rank m.

    Faithful on B_m of the disc; temporal convention makes
    disc_action(uv) = disc_action(v) o disc_action(u).  It acts on the
    far-commutation reduction of w (_far_reduce), which is the same braid:
    by faithfulness the action is the same automorphism, and its images are
    reduced words, so the result equals the action of w letter by letter,
    image for image.  A word that cancels to nothing makes no Artin step.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    images = list(FreeEndo.identity(m).images)
    # accumulating E <- E o S per letter yields action(v) o action(u) for
    # w = uv when letters are consumed last-to-first
    for x in reversed(_far_reduce(m, w)):
        if x > 0:
            _artin_step(images, x, 1)
        else:
            _artin_step(images, -x, -1)
    return FreeEndo(m, tuple(images))


def _drop_last_letter(w: FreeWord, m: int) -> FreeWord:
    """Substitute x_m := (x_1 ... x_{m-1})^-1 and reduce."""
    repl = tuple(range(1 - m, 0))  # (x_1 .. x_{m-1})^-1 = x_{m-1}^-1 .. x_1^-1
    pieces = {m: repl, -m: free_invert(repl)}
    return _join(*(pieces.get(x) or (x,) for x in w))


def _cyclic_reduce(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Split w = u t u^-1 with t cyclically reduced; returns (u, t)."""
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[:lo], w[lo:hi]


def _inner_conjugator(e: FreeEndo) -> FreeWord | None:
    """A word g with e(x_i) = g x_i g^-1 for every i, or None if e is not
    inner.

    e(x_1) = g x_1 g^-1 forces the cyclic reduction of e(x_1) to be x_1,
    so e(x_1) = u x_1 u^-1.  The centralizer of x_1 is <x_1>, so
    g = u x_1^k, and u^-1 e(x_2) u = x_1^k x_2 x_1^-k gives k by its
    leading x_1^(+-1) letters.  e(x_1) = g x_1 g^-1 then holds by the core
    test, and every other image is compared with g x_i g^-1, so a returned
    g is a checked witness.  Linear in the total image length; at rank 1
    this is the test e(x_1) = x_1.
    """
    u, core = _cyclic_reduce(e.images[0])
    if core != (1,):
        return None
    g = u
    if e.rank > 1:
        twisted = _join(free_invert(u), e.images[1], u)
        x = -1 if twisted[:1] == (-1,) else 1
        k = 0
        while k < len(twisted) and twisted[k] == x:
            k += 1
        g = _join(u, (x,) * k)
    gi = free_invert(g)
    for i in range(2, e.rank + 1):
        if e.images[i - 1] != _join(g, (i,), gi):
            return None
    return g


def sphere_action(m: int, w: BraidWord) -> FreeEndo:
    """Action on pi_1 of the m-punctured sphere: the rank m-1 free group
    obtained from the disc action by killing x_1 x_2 ... x_m.

    The sphere action is only defined up to inner automorphisms, so the
    result is the identity exactly when the action is inner (decided by
    _inner_conjugator), and otherwise the representative that the disc
    action gives.  A trivial disc action, as of a word that cancels to
    nothing under the disc action's reduction, is returned as the identity
    at once, without the O(m) substitution and conjugator test."""
    if m < 2:
        raise ValueError("m must be >= 2")
    full = disc_action(m, w)
    if full.is_identity():
        return FreeEndo.identity(m - 1)
    e = FreeEndo(m - 1, tuple(_drop_last_letter(full.images[i], m) for i in range(m - 1)))
    return FreeEndo.identity(m - 1) if _inner_conjugator(e) is not None else e


@dataclass(frozen=True)
class Verdict:
    """Layered word-problem verdict, on every surface.

    verdict is Nontrivial, Trivial or (sphere only) FullTwist; evidence names
    the layer that decided.  certificate is always None: every layer decides
    without a derivation.  The field stays only because the benchmark
    harness's traced run (perfbench/layers.py) reads it.
    """

    verdict: str
    evidence: str
    certificate: None = None


def _require_sigma_only(surface: str, w: BraidWord) -> None:
    # the permutation layer would read rho and tau letters as pure
    if any(g.kind != "s" for g, _e in w.letters):
        raise ValueError(f"{surface} words are sigma-only, got {w}")


def disc_word_problem(m: int, w: BraidWord) -> Verdict:
    """Decide w in B_m of the disc: Nontrivial or Trivial.

    A braid that permutes the strands is nontrivial; a pure braid is
    decided by the Artin action, which is faithful."""
    _require_sigma_only("disc", w)
    if not permutation_image(w, m).is_identity():
        return Verdict("Nontrivial", "permutation")
    return Verdict("Trivial" if disc_action(m, w).is_identity() else "Nontrivial", "action")


def sphere_word_problem(m: int, w: BraidWord) -> Verdict:
    """Decide w in B_m(S^2): Nontrivial, Trivial, or FullTwist.

    A pure braid whose sphere action is inner is 1 or the full twist
    (Fadell-Van Buskirk; Gillette-Van Buskirk), and sphere_action decides
    innerness exactly with a checked conjugator.  Forgetting every strand
    but the first k = min(m, 3) is a map of pure braids that sends the
    full twist to the full twist on k strands.  P_3(S^2) = {1, full twist}
    and H_1(B_k(S^2)) = Z/2(k-1), where the full twist's k(k-1) crossings
    give class 2 for k = 3 (and 0 for k = 2, where it is trivial).  So the
    exponent sum of the crossings between two of strands 1..k, mod
    2(k-1), separates the two.  A rho or tau letter raises ValueError.
    """
    _require_sigma_only("sphere", w)
    if not permutation_image(w, m).is_identity():
        return Verdict("Nontrivial", "permutation")
    if not sphere_action(m, w).is_identity():
        return Verdict("Nontrivial", "action")
    k = min(m, 3)
    at = list(range(1, m + 1))  # at[p - 1] is the strand at position p
    total = 0
    for (_kind, i), e in w.letters:
        a, b = at[i - 1], at[i]
        if a <= k and b <= k:
            total += e
        at[i - 1], at[i] = b, a
    x = total % (2 * (k - 1))
    if x == 0:
        return Verdict("Trivial", "forgetful map")
    if x == 2:
        return Verdict("FullTwist", "forgetful map")
    raise AssertionError(f"action-trivial word has exponent class {x} in B_{k}(S^2)")


def annulus_to_disc(n: int, w: BraidWord) -> BraidWord:
    """Embed B_n(annulus) into B_{n+1} of the disc: the core-circle loop
    tau becomes sigma_1'^2 around an added fixed strand, sigma_i becomes
    sigma_{i+1}'."""
    letters: list[Letter] = []
    for g, e in w.letters:
        if g.kind == "r":
            raise ValueError(f"annulus words use sigma/tau only, got {g}")
        g.check_bounds(n)
        if g.kind == "t":
            letters += [(sigma(1), e), (sigma(1), e)]
        else:
            letters.append((sigma(g.index + 1), e))
    return _trusted_word(tuple(letters))


def annulus_oracle(n: int, w: BraidWord) -> Verdict:
    """Decide w in B_n(annulus): Nontrivial or Trivial.

    The embedding into the disc group on n+1 strands is injective, so the
    disc verdict of the image is exact."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return disc_word_problem(n + 1, annulus_to_disc(n, w))
