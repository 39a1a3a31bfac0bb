import random

import numpy as np
import pytest
from hypothesis import given, settings

from braidcover import covering
from braidcover.covering import (
    ANTIPODAL,
    Cover,
    LiftScene,
    NonGenericScene,
    StrandMotion,
    _read_diagram,
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
from braidcover.words import (
    EMPTY,
    BraidWord,
    gen_word,
    parse_word,
    permutation_image,
    rho,
    sigma,
)

from .test_words import words_over


def test_basepoints_are_valid():
    for n in (1, 2, 5):
        for b in rp2_basepoints(n) + annulus_basepoints(n):
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12
    # annulus strand 1 is innermost (largest z)
    zs = [b[2] for b in annulus_basepoints(4)]
    assert zs == sorted(zs, reverse=True)


def test_strand_motion_validation():
    good = generator_motion(sigma(1), 2)
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
    with pytest.raises(ValueError, match="tau index must be 1"):
        generator_motion(parse_word("t2").letters[0][0], 2, "annulus")
    with pytest.raises(ValueError):
        generator_motion(rho(1), 2, "annulus")
    with pytest.raises(ValueError):
        generator_motion(sigma(1), 2, "torus")
    with pytest.raises(ValueError):
        annulus_dfold(1)


def test_generator_motion_is_cached_read_only():
    m = generator_motion(sigma(1), 2)
    assert generator_motion(sigma(1), 2) is m
    for p in m.paths:
        with pytest.raises(ValueError):
            p[0, 0] = 0.0


def test_caller_paths_stay_writable():
    fresh = generator_motion.__wrapped__(sigma(1), 2)
    paths = tuple(np.array(p) for p in fresh.paths)
    StrandMotion(2, "rp2", paths)
    for p in paths:
        assert p.flags.writeable
        p[0, 0] = p[0, 0]


_FIXED_WORDS = {
    "rp2": ("r1 r1^-1 r1", "s1 r2^-1 s1^-1 r1", "r3 s2^-1 s1 r1^-1 s3 r2", "s1 s1 r1 r4^-1 s3^-1"),
    "annulus": ("t1 t1^-1 t1", "s1 t1^-1 s1", "t1 s2^-1 s1 t1^-1 s2", "s3 t1 s1^-1 s2 t1"),
}


def _fits(w: BraidWord, n: int) -> bool:
    bound = {"s": n - 1, "r": n, "t": 1}
    return all(g.index <= bound[g.kind] for g, _e in w)


@pytest.mark.parametrize("surface", ("rp2", "annulus"))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_word_motion_matches_uncached_generators(monkeypatch, surface, n):
    words = [w for w in map(parse_word, _FIXED_WORDS[surface]) if _fits(w, n)]
    assert words
    cached = [word_motion(w, n, surface) for w in words]
    monkeypatch.setattr(covering, "generator_motion", generator_motion.__wrapped__)
    for w, m in zip(words, cached):
        fresh = word_motion(w, n, surface)
        assert all(np.array_equal(a, b) for a, b in zip(m.paths, fresh.paths)), str(w)
        assert all(p.flags.writeable for p in m.paths)


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


def test_whole_word_lift_equals_psi():
    # the lift of a whole word's motion and the concatenated generator
    # images are the same sphere braid, decided exactly
    rng = random.Random(2009)
    for n in (2, 3, 4):
        gens = [sigma(i) for i in range(1, n)] + [rho(i) for i in range(1, n + 1)]
        for _ in range(12):
            w = BraidWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                                for _ in range(rng.randint(4, 12))))
            lifted = extract_word(lift_motion(word_motion(w, n), ANTIPODAL))
            diff = (lifted * psi(n, w).inverse()).free_reduce()
            assert sphere_word_problem(2 * n, diff).verdict == "Trivial", (n, str(w))


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


@pytest.mark.parametrize("d,n,trials,max_len", [(1, 2, 5, 8), (0, 2, 5, 8), (2, 0, 5, 8),
                                                (2, 2, -1, 8), (2, 2, 5, 0)])
def test_injectivity_spotcheck_rejects_bad_inputs(d, n, trials, max_len):
    with pytest.raises(ValueError, match="spot check needs"):
        injectivity_spotcheck_annulus(d, n, trials, max_len=max_len)


def test_injectivity_spotcheck_zero_trials():
    rep = injectivity_spotcheck_annulus(2, 2, 0)
    assert rep.ok and rep.checked == rep.skipped_trivial == 0


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


def test_read_diagram_rejects_coincident_strands():
    u = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    with pytest.raises(NonGenericScene, match="coincide"):
        _read_diagram(u, np.zeros_like(u))


def test_read_diagram_rejects_non_adjacent_crossing():
    # a triple point: all three strands cross at t = 1/2, and the pair
    # read second is strands at the two outer positions
    u = np.array([[1.0, 1.0], [0.0, 2.0], [2.0, 0.0]])
    depth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(NonGenericScene, match="non-adjacent"):
        _read_diagram(u, depth)
