import numpy as np
import pytest
from hypothesis import given, settings

from braidcover.covering import (
    ANTIPODAL,
    Cover,
    LiftScene,
    NonGenericScene,
    StrandMotion,
    SurfacePoint,
    annulus_basepoints,
    annulus_cover_image,
    annulus_dfold,
    extract_word,
    generator_motion,
    injectivity_spotcheck_annulus,
    lift_motion,
    psi,
    rp2_basepoints,
    scene_to_svg,
    scene_to_text,
    verify_relator_images,
    word_motion,
)
from braidcover.oracles import annulus_oracle, disc_action, sphere_word_problem
from braidcover.presentations import _van_buskirk_relators, full_twist, van_buskirk
from braidcover.words import EMPTY, gen_word, parse_word, permutation_image, rho, sigma

from .test_words import words_over


def test_surface_point_validation():
    SurfacePoint((0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        SurfacePoint((0.0, 0.0, 0.5))


def test_basepoints_are_valid():
    for n in (1, 2, 5):
        for b in rp2_basepoints(n) + annulus_basepoints(n):
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12
    # annulus strand 1 is innermost (largest z)
    zs = [b[2] for b in annulus_basepoints(4)]
    assert zs == sorted(zs, reverse=True)


def test_strand_motion_validation():
    good = generator_motion(sigma(1), 2)
    assert good.samples == good.paths[0].shape[0]
    assert good.point(1, 0).coords == tuple(good.paths[0][0])
    # non-unit samples rejected
    with pytest.raises(ValueError):
        StrandMotion(1, "rp2", (np.full((4, 3), 0.5),))
    with pytest.raises(ValueError):
        StrandMotion(2, "rp2", good.paths[:1])
    with pytest.raises(ValueError):
        StrandMotion(2, "sphere", good.paths)
    # coincident paths rejected
    p = np.stack([np.array([0.0, 0.0, 1.0])] * 4)
    with pytest.raises(ValueError):
        StrandMotion(2, "annulus", (p, p))


def test_generator_motion_validation():
    with pytest.raises(ValueError):
        generator_motion(sigma(2), 2)
    with pytest.raises(ValueError):
        generator_motion(rho(3), 2)
    with pytest.raises(ValueError):
        generator_motion(parse_word("t1").letters[0][0], 2, "rp2")
    with pytest.raises(ValueError):
        generator_motion(sigma(1), 2, "torus")
    with pytest.raises(ValueError):
        annulus_dfold(1)


@pytest.mark.parametrize("n", (2, 3))
def test_word_motion_returns_to_basepoints(n):
    # the StrandMotion constructor checks endpoint return and disjointness
    for text in ("s1 r1 s1^-1", "r1 r2 r1^-1", "r2^-1 s1 r1"):
        m = word_motion(parse_word(text), n)
        assert m.n == n


@pytest.mark.parametrize("surface", ("rp2", "annulus"))
def test_word_motion_needs_a_strand(surface):
    for n in (0, -1):
        for w in (EMPTY, parse_word("s1")):
            with pytest.raises(ValueError, match="strand count"):
                word_motion(w, n, surface)


def test_lift_scene_projects_back():
    m = word_motion(parse_word("s1 r2"), 2)
    scene = lift_motion(m, ANTIPODAL)
    assert len(scene.paths) == 4
    # the constructor enforces the projection identity; also spot check
    assert np.allclose(scene.paths[0], m.paths[0])
    assert np.allclose(scene.paths[2], -m.paths[0])
    with pytest.raises(ValueError):
        lift_motion(m, annulus_dfold(2))
    with pytest.raises(ValueError):
        lift_motion(word_motion(parse_word("t1"), 1, "annulus"), ANTIPODAL)
    with pytest.raises(ValueError):
        lift_motion(m, Cover("torus", 2))
    with pytest.raises(ValueError):
        LiftScene(m, ANTIPODAL, m.paths)


def test_psi_generator_images_regression():
    # derived, not assumed: the antipodal deck transformation reverses
    # orientation, so the two blocks cross with opposite signs
    assert psi(2, parse_word("s1")) == parse_word("s3 s1^-1")
    assert psi(2, parse_word("r1")) == parse_word("s1^-1 s2^-1 s1^-1")


def test_psi_is_homomorphic_on_letters():
    u = parse_word("s1 r2")
    v = parse_word("r1^-1 s1")
    assert psi(2, u * v) == psi(2, u) * psi(2, v)
    assert psi(2, u.inverse()) == psi(2, u).inverse()


@given(words_over(3, max_len=6))
@settings(max_examples=25)
def test_psi_block_permutation_properties(w):
    n = 3
    img = psi(n, w)
    pb = permutation_image(w, n)
    pc = permutation_image(img, 2 * n)
    for i in range(1, 2 * n + 1):
        # projection to the base permutation
        assert (pc(i) - 1) % n + 1 == pb((i - 1) % n + 1)
        # antipodal pairing: partner strands stay partnered
        partner = i + n if i <= n else i - n
        assert pc(partner) == (pc(i) + n if pc(i) <= n else pc(i) - n)


def test_base_relators_lift_trivially_n2():
    rep = verify_relator_images(2)
    assert rep.ok
    assert all(e.verdict.verdict == "Trivial" for e in rep.entries)
    assert len(rep.entries) == len(van_buskirk(2).relators)


def test_relator_images_n3_no_contradiction():
    rep = verify_relator_images(3)
    assert rep.ok
    assert all(e.verdict.verdict == "Trivial" for e in rep.entries)


def test_psi_full_twist_not_trivial():
    for n in (2, 3, 4):
        v = sphere_word_problem(2 * n, psi(n, full_twist(n)).free_reduce())
        assert v.verdict == "FullTwist"


def _plus_y_relator_verdicts(n: int) -> dict[str, tuple[str, str]]:
    """Relator image verdicts with rho_j lifted along the +y meridian
    instead of the calibrated -y one."""
    flip = np.array([1.0, -1.0, 1.0])
    rho_image = {}
    for j in range(1, n + 1):
        motion = generator_motion(rho(j), n)
        flipped = StrandMotion(n, "rp2", tuple(p * flip for p in motion.paths))
        rho_image[j] = extract_word(lift_motion(flipped, ANTIPODAL))
    out = {}
    for label, rel in _van_buskirk_relators(n):
        img = EMPTY
        for g, e in rel.letters:
            if g.kind == "r":
                img = img * (rho_image[g.index] if e == 1 else rho_image[g.index].inverse())
            else:
                img = img * psi(n, gen_word(g, e))
        v = sphere_word_problem(2 * n, img.free_reduce())
        out[label] = (v.verdict, v.evidence)
    return out


def test_rho_meridian_calibration():
    # the +y meridian still maps every relator to 1 at n = 2 ...
    assert set(_plus_y_relator_verdicts(2).values()) == {("Trivial", "forgetful map")}
    # ... but not at n = 3: the -y choice in generator_motion is forced
    for label, got in _plus_y_relator_verdicts(3).items():
        if label.startswith(("sirisi_", "rhocomm_")) or label == "surface":
            assert got == ("Nontrivial", "action"), label
        else:
            assert got[0] == "Trivial", label


def test_annulus_cover_image():
    img = annulus_cover_image(2, 1, parse_word("t1"))
    assert not disc_action(3, img).is_identity()
    # trivial base words lift to trivial cover words
    w = parse_word("s1 t1 t1^-1 s1^-1")
    assert annulus_oracle(2, w)
    img = annulus_cover_image(2, 2, w)
    assert disc_action(5, img).is_identity()


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2)])
def test_injectivity_spotcheck(d, n):
    rep = injectivity_spotcheck_annulus(d, n, trials=15, seed=7)
    assert rep.ok
    assert rep.checked + rep.skipped_trivial == rep.trials == 15
    assert rep.checked > 0


def test_exports():
    scene = lift_motion(word_motion(parse_word("r1"), 2), ANTIPODAL)
    text = scene_to_text(scene)
    header = text.splitlines()[0]
    assert header.startswith("liftscene cover=antipodal_sphere degree=2 strands=4")
    assert text.count("strand ") == 4
    svg = scene_to_svg(scene)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 4
    assert svg.rstrip().endswith("</svg>")


def test_extract_word_matches_oracle_roundtrip():
    # the extracted lift of a pure-sigma rp2 word must equal the word read
    # off the two disjoint cap copies: same permutation block structure
    w = parse_word("s1 s2 s1")
    img = extract_word(lift_motion(word_motion(w, 3), ANTIPODAL))
    assert permutation_image(img, 6).order() == permutation_image(w, 3).order()


def test_non_generic_guard_exists():
    assert issubclass(NonGenericScene, Exception)
