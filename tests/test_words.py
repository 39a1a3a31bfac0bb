import copy
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidcover.words import (
    EMPTY,
    KINDS,
    BraidWord,
    Generator,
    Permutation,
    WordFormatError,
    _trusted_word,
    format_word,
    gen_word,
    letter_codes,
    parse_word,
    permutation_image,
    rho,
    sigma,
    tau,
)


def words_over(n: int, max_len: int = 12, kinds: str = "sr"):
    letters = []
    if "s" in kinds and n >= 2:
        letters.append(st.integers(1, n - 1).map(sigma))
    if "r" in kinds:
        letters.append(st.integers(1, n).map(rho))
    if "t" in kinds:
        letters.append(st.just(tau()))
    letter = st.tuples(st.one_of(*letters), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_len).map(lambda ls: BraidWord(tuple(ls)))


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator("q", 1)
    with pytest.raises(ValueError):
        Generator("s", 0)
    # an index that is not exactly an int: 1.5 and True would format as
    # s1.5 and sTrue, text parse_word rejects
    for index in (1.5, True, "2", None):
        with pytest.raises(ValueError):
            Generator("s", index)
    with pytest.raises(ValueError):
        sigma(True)
    with pytest.raises(ValueError):
        rho(2.0)
    with pytest.raises(ValueError):
        sigma(3).check_bounds(3)
    sigma(2).check_bounds(3)
    rho(3).check_bounds(3)
    with pytest.raises(ValueError):
        rho(4).check_bounds(3)
    with pytest.raises(ValueError):
        Generator("t", 2).check_bounds(3)


@dataclass(frozen=True, order=True)
class DataclassGenerator:
    """The frozen ordered dataclass Generator once was: the reference for
    equality, order, hash, text and pickling."""

    kind: str
    index: int

    def __str__(self):
        return f"{self.kind}{self.index}"


generator_pairs = st.tuples(st.sampled_from(KINDS),
                            st.one_of(st.integers(1, 12), st.integers(1, 10**30)))


@given(st.lists(generator_pairs, max_size=12))
def test_tuple_generator_matches_the_dataclass(pairs):
    new = [Generator(*pair) for pair in pairs]
    ref = [DataclassGenerator(*pair) for pair in pairs]
    for g, r in zip(new, ref):
        assert (g.kind, g.index) == (r.kind, r.index)
        assert str(g) == str(r) and f"{g}" == f"{r}"
        assert repr(g) == repr(r).replace("DataclassGenerator", "Generator")
        assert eval(repr(g)) == g
        assert hash(g) == hash(r)
        for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert type(clone) is Generator and clone == g and hash(clone) == hash(g)
        for h, q in zip(new, ref):
            assert (g == h, g != h, g < h, g <= h, g > h, g >= h) == \
                   (r == q, r != q, r < q, r <= q, r > q, r >= q)
    order = sorted(range(len(pairs)), key=new.__getitem__)
    assert order == sorted(range(len(pairs)), key=ref.__getitem__)
    assert [str(g) for g in sorted(new)] == [str(r) for r in sorted(ref)]
    assert list(dict.fromkeys(new)) == [Generator(r.kind, r.index) for r in dict.fromkeys(ref)]


def test_generator_is_an_immutable_tuple():
    g = sigma(2)
    assert g == ("s", 2) and len(g) == 2 and not hasattr(g, "__dict__")
    with pytest.raises(AttributeError):
        g.index = 3
    with pytest.raises(AttributeError):
        g.note = "x"
    assert pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize("letter", [(sigma(1), True), (sigma(1), 1.0), ("x", 1), (sigma(1), 2),
                                    (sigma(1), 0), ("s1", 1), (("s", 1), 1), [sigma(1), 1],
                                    (sigma(1), 1, 1), (sigma(1),), sigma(1)])
def test_braid_word_rejects_a_bad_letter(letter):
    with pytest.raises(ValueError):
        BraidWord((letter,))
    with pytest.raises(ValueError):
        BraidWord(((rho(1), -1), letter))


def test_braid_word_wants_a_tuple():
    with pytest.raises(ValueError):
        BraidWord([(sigma(1), 1)])


@given(words_over(4, kinds="srt"), words_over(4, kinds="srt"), st.integers(-3, 3))
def test_derived_words_pass_the_constructor_check(u, v, k):
    # the words derived from checked words are built without the check;
    # each must be one the checked constructor accepts and equals
    derived = [u.inverse(), u.free_reduce(), u * v, u**k, parse_word(format_word(u)),
               _trusted_word(u.letters)]
    for w in derived:
        assert type(w) is BraidWord and w == BraidWord(w.letters)
        assert hash(w) == hash(BraidWord(w.letters))


def test_library_words_pass_the_constructor_check():
    # the library's own builders make their words unchecked, from checked
    # words or from interned generators; each must pass the check
    from braidcover.covering import annulus_cover_image, psi
    from braidcover.enumeration import coset_enumerate, group_table, table_from_permutations
    from braidcover.oracles import annulus_to_disc
    from braidcover.presentations import finite_group_presentation, half_twist
    from braidcover.rewriting import invert_steps, reduction_steps

    w = parse_word("s1 r2^-1 s2^-1 s2 r3 s1^-1")
    annulus = parse_word("t1 s1 s2^-1 t1^-1 s1")
    words = [psi(3, w), half_twist(5), annulus_to_disc(3, annulus),
             annulus_cover_image(2, 2, parse_word("t1 s1^-1")), reduction_steps(w)[1]]
    words += group_table(coset_enumerate(finite_group_presentation("Dic", 3))).words
    words += table_from_permutations("S3", [Permutation((2, 1, 3)),
                                            Permutation((1, 3, 2))]).words
    # the free inserts that undo a reduction's free cancels, one letter or
    # a whole cascade's
    cascade = parse_word("s1 r2 s2 s2^-1 r2^-1 r3")
    steps = [step for v in (w, cascade) for step in invert_steps(None, v, reduction_steps(v)[0])]
    assert {step.action for step in steps} == {"FreeInsert"}
    assert max(len(step.conjugator) for step in steps) == 2
    words += [step.conjugator for step in steps]
    for v in words:
        assert type(v) is BraidWord and v == BraidWord(v.letters)


def test_parse_format_examples():
    w = parse_word("s1 r2^-1 t1 s3^-1")
    assert w.letters == (
        (sigma(1), 1),
        (rho(2), -1),
        (tau(), 1),
        (sigma(3), -1),
    )
    assert format_word(w) == "s1 r2^-1 t1 s3^-1"
    with pytest.raises(ValueError):
        parse_word("x1")
    with pytest.raises(ValueError):
        parse_word("s0")
    with pytest.raises(ValueError):
        parse_word("s1^2")


@pytest.mark.parametrize("text", ("x1", "s1^2", "s", "s1 ^-1", "s0", "r00",
                                  "s\u0661", "r\uff11", "s1\u00b2",
                                  pytest.param("s" + "1" * 5000, id="s1...1")))
def test_parse_word_raises_typed_error(text):
    with pytest.raises(WordFormatError):
        parse_word(text)


@given(words_over(4, kinds="srt"))
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w)) == w


@given(words_over(4))
def test_inverse_cancels(w):
    assert (w * w.inverse()).free_reduce() == EMPTY
    assert (w.inverse() * w).free_reduce() == EMPTY
    assert w.inverse().inverse() == w


@given(words_over(4))
def test_free_reduce_idempotent(w):
    red = w.free_reduce()
    assert red.free_reduce() == red
    # no adjacent inverse pair is left
    assert all(b != (g, -e) for (g, e), b in zip(red.letters, red.letters[1:]))


def test_pow():
    w = parse_word("s1 s2 r1^-1")
    # against repeated concatenation of w or of its inverse
    for k in range(-3, 6):
        expected = EMPTY
        for _ in range(abs(k)):
            expected = expected * (w if k > 0 else w.inverse())
        assert w**k == expected
    assert parse_word("s1 s2") ** 2 == parse_word("s1 s2 s1 s2")


def test_generators_are_interned():
    assert parse_word("s1").letters[0][0] is sigma(1)
    r, t = (g for g, _e in parse_word("r3^-1 t1").letters)
    assert r is rho(3) and t is tau()


def test_letter_codes():
    gens = (sigma(1), sigma(2), rho(1))
    code = letter_codes(gens)
    assert [code[g, 1] for g in gens] == [0, 2, 4]
    # code ^ 1 is the inverse letter
    letter_of = {x: let for let, x in code.items()}
    assert sorted(letter_of) == list(range(6))
    for (g, e), x in code.items():
        assert letter_of[x ^ 1] == (g, -e)


@given(words_over(5), words_over(5))
def test_permutation_homomorphism(u, v):
    pu = permutation_image(u, 5)
    pv = permutation_image(v, 5)
    assert permutation_image(u * v, 5) == pv.compose(pu)


def test_permutation_of_sigma_is_transposition():
    for n in range(2, 6):
        for i in range(1, n):
            assert permutation_image(gen_word(sigma(i)), n) == \
                Permutation.transposition(n, i, i + 1)


@given(words_over(5, kinds="r"))
def test_rho_words_are_pure(w):
    assert permutation_image(w, 5).is_identity()


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p.order() == 3
    assert [p(x) for x in (1, 2, 3)] == [2, 3, 1]
    assert p.compose(p.inverse()).is_identity()
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
