import os
import pathlib
import random
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from braidcover.enumeration import coset_enumerate, group_table
from braidcover.oracles import (
    FreeEndo,
    Verdict,
    _drop_last_letter,
    _inner_conjugator,
    _join,
    annulus_oracle,
    annulus_to_disc,
    disc_action,
    disc_word_problem,
    free_invert,
    sphere_action,
    sphere_word_problem,
)
from braidcover.presentations import (
    annulus_presentation,
    full_twist,
    sphere_presentation,
)
from braidcover.words import BraidWord, _trusted_word, parse_word, permutation_image, sigma

from .test_words import words_over


def free_reduce(letters) -> tuple:
    """Letter-by-letter free reduction: the reference for _join."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _apply(e: FreeEndo, w) -> tuple:
    """e(w), reduced in full."""
    inverses = [free_invert(img) for img in e.images]
    return free_reduce(x for v in w for x in (e.images[v - 1] if v > 0 else inverses[-v - 1]))


def _compose(e: FreeEndo, f: FreeEndo) -> FreeEndo:
    """e o f: apply f first."""
    return FreeEndo(e.rank, tuple(_apply(e, w) for w in f.images))


def free_words(rank: int, max_len: int = 8):
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letter, max_size=max_len).map(free_reduce)


@given(free_words(3))
def test_free_reduce_and_invert(w):
    assert free_reduce(w) == w
    assert free_reduce(w + free_invert(w)) == ()
    assert free_invert(free_invert(w)) == w


def test_free_word_helpers():
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    with pytest.raises(ValueError):
        FreeEndo(2, ((3,), (1,)))
    with pytest.raises(ValueError):
        FreeEndo(2, ((1,),))


@pytest.mark.parametrize("rank, images, bad", [(2, ((1, 0), (2,)), 0),
                                               (2, ((1,), (2, -3, 5)), -3),
                                               (1, ((1, 2, 5),), 2),
                                               (2, ((-2, 1), (4, -3)), 4)])
def test_free_endo_names_the_first_letter_out_of_rank(rank, images, bad):
    with pytest.raises(ValueError, match=f"letter {bad} out of rank {rank}"):
        FreeEndo(rank, images)


@given(free_words(3), free_words(3), free_words(3))
@example((1, 2), (-2, -1), (1, 3))
def test_join_is_free_reduce_of_the_concatenation(u, v, x):
    assert _join(u, v) == free_reduce(u + v)
    assert _join(u, v, x) == free_reduce(u + v + x)
    # a long cancellation, on into the word before
    assert _join(u, free_invert(u) + v) == v
    assert _join(u, v, free_invert(v), free_invert(u)) == ()


def _disc_images_by_free_reduce(m: int, w: BraidWord) -> tuple:
    """The Artin action as first written, re-reducing each new image in
    full: the reference the junction join is compared with."""
    images = [(i,) for i in range(1, m + 1)]
    for g, e in reversed(w.letters):
        a, b = images[g.index - 1], images[g.index]
        if e == 1:
            images[g.index - 1], images[g.index] = free_reduce(a + b + free_invert(a)), a
        else:
            images[g.index - 1], images[g.index] = b, free_reduce(free_invert(b) + a + b)
    return tuple(images)


@given(st.integers(2, 6).flatmap(lambda m: st.tuples(st.just(m),
                                                     words_over(m, max_len=30, kinds="s"))))
def test_artin_steps_match_full_reduction(case):
    m, w = case
    assert disc_action(m, w).images == _disc_images_by_free_reduce(m, w)


@given(free_words(3), free_words(3))
def test_endo_apply_is_homomorphic(u, v):
    e = disc_action(3, parse_word("s1 s2 s1^-1"))
    assert _apply(e, free_reduce(u + v)) == free_reduce(_apply(e, u) + _apply(e, v))


@given(words_over(5, max_len=8, kinds="s"), words_over(5, max_len=8, kinds="s"))
def test_disc_action_composition(u, v):
    left = disc_action(5, u * v)
    right = _compose(disc_action(5, v), disc_action(5, u))
    assert left == right


@pytest.mark.parametrize("m", range(2, 8))
def test_disc_action_kills_artin_relators(m):
    for i in range(1, m - 1):
        braid = parse_word(f"s{i} s{i + 1} s{i} s{i + 1}^-1 s{i}^-1 s{i + 1}^-1")
        assert disc_action(m, braid).is_identity()
    for i in range(1, m):
        for j in range(i + 2, m):
            comm = parse_word(f"s{i} s{j} s{i}^-1 s{j}^-1")
            assert disc_action(m, comm).is_identity()
    assert not disc_action(m, parse_word("s1")).is_identity()


def test_disc_action_rejects_bad_words():
    # the disc oracle too, also where its permutation layer would decide
    # first (s1 r1 is not a pure braid)
    for decide in (disc_action, disc_word_problem):
        for m, w in ((3, parse_word("s3")), (3, parse_word("r1")), (3, parse_word("s1 r1")),
                     (0, BraidWord())):
            with pytest.raises(ValueError):
                decide(m, w)


@pytest.mark.parametrize("m", range(2, 8))
def test_sphere_action_kills_all_relators(m):
    for r in sphere_presentation(m).relators:
        assert sphere_action(m, r).is_identity()


def _conjugation(rank: int, g):
    gi = free_invert(g)
    return FreeEndo(rank, tuple(free_reduce(g + (i,) + gi) for i in range(1, rank + 1)))


@given(st.integers(1, 7).flatmap(lambda r: st.tuples(st.just(r), free_words(r, 12))))
@example((2, (1,)))
@example((3, (2, -1, -1)))
def test_inner_conjugator_finds_a_witness(case):
    rank, g = case
    e = _conjugation(rank, g)
    h = _inner_conjugator(e)
    assert h is not None
    assert _conjugation(rank, h) == e


def test_inner_conjugator_rejects_outer_automorphisms():
    assert _inner_conjugator(FreeEndo(1, ((-1,),))) is None
    assert _inner_conjugator(FreeEndo(2, ((2,), (1,)))) is None
    # x_1 is fixed, so only the comparison of the other images rejects it
    assert _inner_conjugator(FreeEndo(3, ((1,), (3,), (2,)))) is None


@pytest.mark.parametrize("m", range(3, 7))
def test_sphere_action_of_a_generator_square(m):
    w = parse_word("s1 s1")
    raw = FreeEndo(m - 1, tuple(_drop_last_letter(x, m) for x in disc_action(m, w).images[:-1]))
    if m == 3:
        # P_3(S^2) is {1, full twist}, and both act by inner automorphisms
        assert _inner_conjugator(raw) is not None
        assert sphere_action(m, w).is_identity()
    else:
        assert _inner_conjugator(raw) is None
        assert sphere_action(m, w) == raw


@given(words_over(4, max_len=6, kinds="s"), words_over(4, max_len=4, kinds="s"))
def test_sphere_action_constant_on_relator_insertions(w, c):
    # a conjugated sphere relator acts innerly, and inserting one never
    # changes whether the action is inner
    m = 4
    inserted = c * sphere_presentation(m).relators[-1] * c.inverse()
    assert sphere_action(m, w * inserted * w.inverse()).is_identity()
    assert sphere_action(m, w * inserted).is_identity() == sphere_action(m, w).is_identity()


def test_sphere_word_problem_layers():
    assert sphere_word_problem(3, parse_word("s1")).verdict == "Nontrivial"
    v = sphere_word_problem(3, full_twist(3))
    assert v.verdict == "FullTwist"
    assert v.evidence == "forgetful map"
    assert sphere_word_problem(3, full_twist(3) ** 2).verdict == "Trivial"
    rel = sphere_presentation(4).relators[-1]
    got = sphere_word_problem(4, rel)
    assert (got.verdict, got.evidence) == ("Trivial", "forgetful map")
    assert got.certificate is None
    # the even-strand full twist is action-trivial and has exponent class
    # 0 like the identity; the forgetful map still tells them apart
    assert sphere_word_problem(4, full_twist(4)).verdict == "FullTwist"
    # on two strands the full twist sigma_1^2 is itself a relator
    assert sphere_word_problem(2, full_twist(2)).verdict == "Trivial"


@pytest.mark.parametrize("surface, oracle", [("sphere", sphere_word_problem),
                                             ("disc", disc_word_problem)])
@pytest.mark.parametrize("text, pure", [("s1 r1", False), ("s1 s1 r1", True),
                                        ("s1 t1", False), ("t1 s2 s2", True)])
def test_word_problems_reject_rho_and_tau_letters(surface, oracle, text, pure):
    # rho and tau letters count as pure in the permutation layer; a
    # permuting and a pure word with each must be refused, not decided
    w = parse_word(text)
    assert permutation_image(w, 4).is_identity() == pure
    with pytest.raises(ValueError, match=f"^{surface} words are sigma-only, got {text}$"):
        oracle(4, w)


@pytest.mark.parametrize("m", range(3, 9))
def test_sphere_word_problem_decides_twist_conjugates(m):
    rng = random.Random(m)
    for _ in range(3):
        c = BraidWord(tuple((sigma(rng.randint(1, m - 1)), rng.choice((1, -1)))
                            for _ in range(6)))
        twist = c * full_twist(m) * c.inverse()
        assert sphere_word_problem(m, twist).verdict == "FullTwist"
        assert sphere_word_problem(m, twist * twist).verdict == "Trivial"


def _forget_strands(w: BraidWord, m: int, k: int) -> BraidWord:
    """Delete every strand of an m-strand word except strands 1..k: a
    crossing stays only when both of its strands are kept, renumbered by
    position among the kept strands."""
    at = list(range(1, m + 1))  # at[p - 1] is the strand at position p
    letters = []
    for (_kind, i), e in w.letters:
        if at[i - 1] <= k and at[i] <= k:
            kept_upto_i = sum(1 for s in at[:i] if s <= k)
            letters.append((sigma(kept_upto_i), e))
        at[i - 1], at[i] = at[i], at[i - 1]
    return _trusted_word(tuple(letters))


@lru_cache(maxsize=None)
def _sphere_table(k: int):
    table = group_table(coset_enumerate(sphere_presentation(k)))
    return table, table.evaluate(full_twist(k))


def _verdict_by_group_table(m: int, w: BraidWord) -> tuple[str, str]:
    """The sphere oracle with the forgotten word evaluated in the group
    table of B_k(S^2), k = min(m, 3), as its last layer: the reference for
    the exponent sum."""
    if not permutation_image(w, m).is_identity():
        return ("Nontrivial", "permutation")
    if not sphere_action(m, w).is_identity():
        return ("Nontrivial", "action")
    table, twist = _sphere_table(min(m, 3))
    x = table.evaluate(_forget_strands(w, m, min(m, 3)))
    assert x in (0, twist)
    return ("Trivial" if x == 0 else "FullTwist", "forgetful map")


def _pure_words(m: int, rng: random.Random):
    def word(length):
        return BraidWord(tuple((sigma(rng.randint(1, m - 1)), rng.choice((1, -1)))
                               for _ in range(length)))

    for k in range(-2, 3):
        c = word(rng.randint(0, 8))
        yield c * full_twist(m) ** k * c.inverse()
    for _ in range(6):
        a, b = word(rng.randint(1, 6)), word(rng.randint(1, 6))
        yield (a * b * a.inverse() * b.inverse()) ** 2
    for _ in range(8):
        w = BraidWord()
        for _ in range(rng.randint(1, 4)):
            c, i, e = word(rng.randint(0, 6)), rng.randint(1, m - 1), rng.choice((1, -1))
            w = w * c * BraidWord(((sigma(i), e), (sigma(i), e))) * c.inverse()
        yield w


@pytest.mark.parametrize("m", range(2, 9))
def test_exponent_sum_matches_the_group_table(m):
    rng = random.Random(100 + m)
    for w in _pure_words(m, rng):
        v = sphere_word_problem(m, w)
        assert (v.verdict, v.evidence) == _verdict_by_group_table(m, w)
    for w in (parse_word("s1 s1 s1"), full_twist(m) * parse_word("s1")):
        v = sphere_word_problem(m, w)
        assert (v.verdict, v.evidence) == _verdict_by_group_table(m, w)


_NO_ENUMERATION = """
import sys
from braidcover.covering import verify_relator_images
from braidcover.oracles import sphere_word_problem
from braidcover.presentations import full_twist
assert verify_relator_images(4).ok
assert sphere_word_problem(6, full_twist(6)).verdict == "FullTwist"
print("braidcover.enumeration" in sys.modules)
"""


def test_exact_covering_verdicts_load_no_coset_enumeration():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _NO_ENUMERATION], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_annulus_to_disc():
    w = parse_word("t1 s1 s2^-1")
    img = annulus_to_disc(3, w)
    assert img == parse_word("s1 s1 s2 s3^-1")
    assert annulus_to_disc(3, parse_word("t1^-1")) == parse_word("s1^-1 s1^-1")
    with pytest.raises(ValueError):
        annulus_to_disc(2, parse_word("s2"))
    with pytest.raises(ValueError):
        annulus_to_disc(2, parse_word("r1"))
    # tau is the only t letter: t2 is not an annulus generator
    for text in ("t2", "s1 t3^-1"):
        with pytest.raises(ValueError, match="tau index must be 1"):
            annulus_to_disc(2, parse_word(text))
        with pytest.raises(ValueError, match="tau index must be 1"):
            annulus_oracle(2, parse_word(text))


def test_annulus_oracle():
    for n in (1, 2, 3):
        for r in annulus_presentation(n).relators:
            assert annulus_oracle(n, r).verdict == "Trivial"
    assert annulus_oracle(1, parse_word("t1")) == Verdict("Nontrivial", "action")
    assert annulus_oracle(2, parse_word("s1 s1")) == Verdict("Nontrivial", "action")
    assert annulus_oracle(2, parse_word("t1 s1")) == Verdict("Nontrivial", "permutation")
    assert annulus_oracle(2, parse_word("s1 s1^-1")) == Verdict("Trivial", "action")
    with pytest.raises(ValueError):
        annulus_oracle(0, BraidWord())


@given(words_over(3, max_len=8, kinds="st"))
def test_annulus_oracle_consistent_under_inverse(w):
    assert annulus_oracle(3, w * w.inverse()).verdict == "Trivial"
    assert annulus_oracle(3, w) == annulus_oracle(3, w.inverse())


@given(st.integers(2, 5).flatmap(lambda m: st.tuples(st.just(m), words_over(m, 10, "s"))))
def test_disc_word_problem_matches_the_action(case):
    m, w = case
    v = disc_word_problem(m, w)
    assert (v.verdict == "Trivial") == disc_action(m, w).is_identity()
    assert (v.evidence == "permutation") == (not permutation_image(w, m).is_identity())
