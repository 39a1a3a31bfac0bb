import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidcover.words import (
    EMPTY,
    BraidWord,
    Generator,
    Permutation,
    WordFormatError,
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
    with pytest.raises(ValueError):
        sigma(3).check_bounds(3)
    sigma(2).check_bounds(3)
    rho(3).check_bounds(3)
    with pytest.raises(ValueError):
        rho(4).check_bounds(3)
    with pytest.raises(ValueError):
        Generator("t", 2).check_bounds(3)


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
