import pytest

from braidcover.presentations import (
    Presentation,
    PresentationFormatError,
    annulus_presentation,
    element_a,
    element_b,
    finite_group_presentation,
    full_twist,
    half_twist,
    rho_expanded,
    sphere_presentation,
    van_buskirk,
    van_buskirk_relator_labels,
)
from braidcover.words import permutation_image, rho, sigma


@pytest.mark.parametrize("n", range(1, 7))
def test_van_buskirk_shape(n):
    p = van_buskirk(n)
    assert len(p.generators) == 2 * n - 1
    assert all(r.free_reduce() == r and len(r) > 0 for r in p.relators)
    labels = van_buskirk_relator_labels(n)
    assert sorted(labels.values()) == list(range(len(p.relators)))
    assert "surface" in labels


@pytest.mark.parametrize("n", range(2, 6))
def test_van_buskirk_relators_are_pure_permutations(n):
    # relators represent the identity, so their permutation must be trivial
    for r in van_buskirk(n).relators:
        assert permutation_image(r, n).is_identity()


@pytest.mark.parametrize("m", range(2, 7))
def test_sphere_relators_are_pure_permutations(m):
    for r in sphere_presentation(m).relators:
        assert permutation_image(r, m).is_identity()


def test_presentation_text_roundtrip():
    for p in (
        van_buskirk(3),
        sphere_presentation(4),
        annulus_presentation(3),
        finite_group_presentation("Dic", 3),
        finite_group_presentation("Ostar"),
    ):
        q = Presentation.from_text(p.to_text())
        assert q.name == p.name
        assert q.generators == p.generators
        assert q.relators == p.relators


@pytest.mark.parametrize("text", [
    "",
    "\n  \n",
    "presentation Q8",
    "presentation\ngenerators s1",
    "group Q8\ngenerators s1",
    "presentation Q8\ns1 s2\ns1 s1",
    "presentation Q8\ngenerators\ns1",
    "presentation Q8\ngenerators s1 x2",
    "presentation Q8\ngenerators s1^-1",
    "presentation Q8\ngenerators s1 s2\ns1 q2",
    "presentation Q8\ngenerators s1\ns2",
    "presentation Z2\ngenerators s1 s1\ns1 s1",
])
def test_presentation_from_text_rejects_malformed(text):
    with pytest.raises(PresentationFormatError):
        Presentation.from_text(text)


def test_presentation_validation():
    from braidcover.words import BraidWord, gen_word

    with pytest.raises(ValueError):
        Presentation("bad", (sigma(1),), (gen_word(sigma(2)),))
    with pytest.raises(ValueError):
        Presentation("bad", (sigma(1),), (BraidWord(),))
    # a repeated generator would leave the copy's letter columns of a coset
    # table unconstrained
    with pytest.raises(ValueError, match="repeated generator s1"):
        Presentation("Z2", (sigma(1), rho(1), sigma(1)), (gen_word(sigma(1)) ** 2,))


def test_twist_lengths():
    for n in range(2, 8):
        assert len(half_twist(n)) == n * (n - 1) // 2
        assert len(full_twist(n)) == n * (n - 1)


def test_named_elements():
    assert element_a(3).letters == (
        (sigma(2), -1),
        (sigma(1), -1),
        (rho(1), 1),
    )
    assert element_b(3).letters == ((sigma(1), -1), (rho(1), 1))
    assert rho_expanded(1).letters == ((rho(1), 1),)
    with pytest.raises(ValueError):
        element_b(1)


def test_finite_family_validation():
    assert finite_group_presentation("Q8").name == "Dic_8"
    with pytest.raises(ValueError):
        finite_group_presentation("Dic", 1)
    with pytest.raises(ValueError):
        finite_group_presentation("Dih", 0)
    with pytest.raises(ValueError):
        finite_group_presentation("Zstar")
