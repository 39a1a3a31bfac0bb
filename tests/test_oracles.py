import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from braidcover.oracles import (
    FreeEndo,
    _drop_last_letter,
    _inner_conjugator,
    annulus_oracle,
    annulus_to_disc,
    disc_action,
    free_invert,
    free_reduce,
    sphere_action,
    sphere_word_problem,
)
from braidcover.presentations import (
    annulus_presentation,
    full_twist,
    sphere_presentation,
)
from braidcover.words import BraidWord, parse_word, sigma

from .test_words import words_over


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
        free_reduce((0,))
    with pytest.raises(ValueError):
        FreeEndo(2, ((3,), (1,)))
    with pytest.raises(ValueError):
        FreeEndo(2, ((1,),))


@given(free_words(3), free_words(3))
def test_endo_apply_is_homomorphic(u, v):
    e = disc_action(3, parse_word("s1 s2 s1^-1"))
    assert e.apply(free_reduce(u + v)) == free_reduce(e.apply(u) + e.apply(v))


@given(words_over(5, max_len=8, kinds="s"), words_over(5, max_len=8, kinds="s"))
def test_disc_action_composition(u, v):
    left = disc_action(5, u * v)
    right = disc_action(5, v).compose(disc_action(5, u))
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
    with pytest.raises(ValueError):
        disc_action(3, parse_word("s3"))
    with pytest.raises(ValueError):
        disc_action(3, parse_word("r1"))
    with pytest.raises(ValueError):
        disc_action(0, BraidWord())


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


@pytest.mark.parametrize("m", range(3, 9))
def test_sphere_word_problem_decides_twist_conjugates(m):
    rng = random.Random(m)
    for _ in range(3):
        c = BraidWord(tuple((sigma(rng.randint(1, m - 1)), rng.choice((1, -1)))
                            for _ in range(6)))
        twist = c * full_twist(m) * c.inverse()
        assert sphere_word_problem(m, twist).verdict == "FullTwist"
        assert sphere_word_problem(m, twist * twist).verdict == "Trivial"


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
            assert annulus_oracle(n, r)
    assert not annulus_oracle(1, parse_word("t1"))
    assert not annulus_oracle(2, parse_word("s1 s1"))
    assert not annulus_oracle(2, parse_word("t1 s1"))
    assert annulus_oracle(2, parse_word("s1 s1^-1"))
    with pytest.raises(ValueError):
        annulus_oracle(0, BraidWord())


@given(words_over(3, max_len=8, kinds="st"))
def test_annulus_oracle_consistent_under_inverse(w):
    assert annulus_oracle(3, w * w.inverse())
    assert annulus_oracle(3, w) == annulus_oracle(3, w.inverse())
