import hashlib
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcover import covering, geometry
from braidcover.covering import (
    ANTIPODAL,
    Cover,
    LiftScene,
    NonGenericScene,
    RelatorImageEntry,
    RelatorImageReport,
    StrandMotion,
    _coords,
    _pairwise_min_sq_distance,
    _psi_generator,
    _read_diagram,
    annulus_cover_image,
    annulus_dfold,
    basepoints,
    extract_word,
    generator_motion,
    injectivity_spotcheck_annulus,
    lift_motion,
    psi,
    scene_to_svg,
    scene_to_text,
    verify_annulus_relator_images,
    verify_relator_images,
    word_motion,
)
from braidcover.geometry import generator_lift
from braidcover.oracles import (
    Verdict,
    annulus_oracle,
    disc_action,
    sphere_action,
    sphere_word_problem,
)
from braidcover.presentations import (
    _van_buskirk_relators,
    annulus_presentation,
    full_twist,
    van_buskirk,
)
from braidcover.words import (
    EMPTY,
    BraidWord,
    Generator,
    format_word,
    gen_word,
    parse_word,
    permutation_image,
    rho,
    sigma,
    tau,
)

from .test_words import words_over


def test_basepoints_are_valid():
    for n in (1, 2, 5):
        for b in basepoints(n, "rp2") + basepoints(n, "annulus"):
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12
    # annulus strand 1 is innermost (largest z)
    zs = [b[2] for b in basepoints(4, "annulus")]
    assert zs == sorted(zs, reverse=True)
    with pytest.raises(ValueError):
        basepoints(2, "torus")


def test_strand_motion_validation():
    good = generator_motion(sigma(1), 2)
    # non-unit samples rejected
    with pytest.raises(ValueError):
        StrandMotion(1, "rp2", (np.full((4, 3), 0.5),))
    with pytest.raises(ValueError):
        StrandMotion(2, "rp2", good.paths[:1])
    with pytest.raises(ValueError):
        StrandMotion(2, "sphere", good.paths)
    for surface in ("rp2", "annulus"):
        with pytest.raises(ValueError, match="strand count"):
            StrandMotion(0, surface, ())
    # coincident paths rejected
    p = np.stack([np.array([0.0, 0.0, 1.0])] * 4)
    with pytest.raises(ValueError):
        StrandMotion(2, "annulus", (p, p))
    # antipodal paths are one point of the projective plane, two of the band
    with pytest.raises(ValueError, match="not disjoint"):
        StrandMotion(2, "rp2", (p, -p))
    assert StrandMotion(2, "annulus", (p, -p)).n == 2
    # half a swap ends off the basepoints
    with pytest.raises(ValueError, match="endpoint does not return"):
        StrandMotion(2, "rp2", tuple(q[:17] for q in good.paths))
    with pytest.raises(ValueError, match="share the sample grid"):
        StrandMotion(2, "rp2", (good.paths[0], good.paths[1][:-1]))
    # with both faults, the earlier path's fault is the one reported
    with pytest.raises(ValueError, match="unit vectors"):
        StrandMotion(2, "rp2", (good.paths[0] * 2, good.paths[1][:-1]))
    with pytest.raises(ValueError, match="share the sample grid"):
        StrandMotion(2, "rp2", (good.paths[0][:-1], good.paths[1] * 2))
    # a NaN or inf sample fails the unit test and is named; a finite
    # sample too large to square is only not a unit vector
    for bad, message in ((math.nan, "must be finite"), (math.inf, "must be finite"),
                         (1e200, "unit vectors")):
        first = good.paths[0].copy()
        first[5, 0] = bad
        with pytest.raises(ValueError, match=message), np.errstate(over="ignore"):
            StrandMotion(2, "rp2", (first, good.paths[1]))


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
    monkeypatch.setattr(geometry, "generator_motion", generator_motion.__wrapped__)
    monkeypatch.setattr(geometry, "_letter_segment", geometry._letter_segment.__wrapped__)
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


@pytest.mark.parametrize("cover, surface, word", [(ANTIPODAL, "rp2", "s1 r2"),
                                                  (annulus_dfold(3), "annulus", "t1 s1^-1")])
def test_motions_and_scenes_keep_their_validated_samples(cover, surface, word):
    # np.stack gives the same values in another memory layout
    m = word_motion(parse_word(word), 2, surface)
    for obj in (m, lift_motion(m, cover)):
        assert np.array_equal(obj.coords, np.stack([p.T for p in obj.paths], axis=1))
        assert obj.coords.flags.c_contiguous and not obj.coords.flags.writeable


@pytest.mark.parametrize("cover, surface, word", [(ANTIPODAL, "rp2", "s1 r2"),
                                                  (annulus_dfold(2), "annulus", "s1 t1"),
                                                  (annulus_dfold(3), "annulus", "t1 s1^-1")])
def test_lift_scene_checks(cover, surface, word):
    m = word_motion(parse_word(word), 2, surface)
    paths = lift_motion(m, cover).paths
    turned = tuple(paths[:1]) + (paths[1] @ np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                                       [0.0, 0.0, 1.0]]),) + tuple(paths[2:])
    with pytest.raises(ValueError, match="does not project"):
        LiftScene(m, cover, turned)
    with pytest.raises(ValueError, match="sample grid mismatch"):
        LiftScene(m, cover, tuple(paths[:-1]) + (paths[-1][:-1],))
    with pytest.raises(ValueError, match="does not project"):
        LiftScene(m, cover, turned[:-1] + (paths[-1][:-1],))
    # sheet 2 repeats sheet 0: it projects to strand 1's path, but two
    # lifted strands coincide
    with pytest.raises(ValueError, match="not disjoint"):
        LiftScene(m, cover, tuple(paths[:2]) + (paths[0],) + tuple(paths[3:]))
    last = paths[-1].copy()
    last[3, 1] = math.nan
    with pytest.raises(ValueError, match="must be finite"):
        LiftScene(m, cover, tuple(paths[:-1]) + (last,))


@pytest.mark.parametrize("cover, surface, word", [(ANTIPODAL, "rp2", "s1 r2"),
                                                  (annulus_dfold(2), "annulus", "s1 t1")])
def test_lift_reads_the_validated_samples(cover, surface, word):
    # a word motion's paths stay writable; an edit after validation must
    # not reach the lift
    m = word_motion(parse_word(word), 2, surface)
    expected = lift_motion(m, cover)
    m.paths[0][5] = m.paths[0][5][[1, 0, 2]]
    scene = lift_motion(m, cover)
    assert np.array_equal(scene.coords, expected.coords)
    assert extract_word(scene) == extract_word(expected)


def _construction_words(surface: str):
    """Seeded words for the by-construction builders: on rp2 for n = 1..6
    the empty word, random sigma/rho words of up to 24 letters and
    rho-only words; on the band for n = 1..5 random sigma/tau words."""
    rng = random.Random(f"by construction {surface}")
    for n in range(1, 7) if surface == "rp2" else range(1, 6):
        yield n, EMPTY
        gens = _rp2_generators(n) if surface == "rp2" else _annulus_generators(n)
        pools = [gens, [rho(j) for j in range(1, n + 1)]] if surface == "rp2" else [gens]
        for pool in pools:
            for length in (1, 3, 8, 16, 24):
                yield n, BraidWord(tuple((rng.choice(pool), rng.choice((1, -1)))
                                         for _ in range(length)))


def _annulus_generators(n: int) -> list[Generator]:
    return [sigma(i) for i in range(1, n)] + [tau()]


@pytest.mark.parametrize("surface, cover", [("rp2", ANTIPODAL), ("annulus", annulus_dfold(2)),
                                            ("annulus", annulus_dfold(3))])
def test_by_construction_builders_match_the_checks(monkeypatch, surface, cover):
    # word_motion and the antipodal lift set their samples and separation
    # without the constructors' checks; the constructors, handed copies of
    # the same paths, measure the same values bit for bit
    calls = []
    measure = geometry._pairwise_min_sq_distance
    monkeypatch.setattr(geometry, "_pairwise_min_sq_distance",
                        lambda *args: calls.append(args) or measure(*args))
    for n, w in _construction_words(surface):
        word_motion(w, n, surface)  # the generator segments, once
        del calls[:]
        m = word_motion(w, n, surface)
        scene = lift_motion(m, cover)
        # none on the whole word; the band lift is measured whole
        assert len(calls) == (cover != ANTIPODAL), (n, str(w))
        measured = StrandMotion(n, surface, tuple(p.copy() for p in m.paths))
        assert np.array_equal(m.coords, measured.coords), (n, str(w))
        assert m.sq_separation == measured.sq_separation, (n, str(w))
        lifted = LiftScene(m, cover, tuple(p.copy() for p in scene.paths))
        assert np.array_equal(scene.coords, lifted.coords), (n, str(w))
        assert scene.sq_separation == lifted.sq_separation, (n, str(w))
        assert m.coords.flags.c_contiguous and not m.coords.flags.writeable
        assert scene.coords.flags.c_contiguous and not scene.coords.flags.writeable


def test_hand_built_antipodal_scene_is_measured(monkeypatch):
    # an exact (p, -p) scene handed to the constructor is checked whole
    calls = []
    for name in ("_pairwise_min_sq_distance", "_projection_error"):
        measure = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *args, measure=measure, name=name:
                            calls.append(name) or measure(*args))
    m = word_motion(parse_word("s1 r2 s2^-1 r1"), 3)
    scene = LiftScene(m, ANTIPODAL, (*m.paths, *(-p for p in m.paths)))
    assert calls == ["_projection_error", "_projection_error", "_pairwise_min_sq_distance"]
    assert np.array_equal(scene.coords, lift_motion(m, ANTIPODAL).coords)


def test_endpoint_return_allows_the_antipode_only_on_rp2():
    # half the equator ends at its start's antipode: a loop of RP^2, not
    # of the band
    half = np.stack([[math.cos(a), math.sin(a), 0.0] for a in np.linspace(0.0, math.pi, 9)])
    assert StrandMotion(1, "rp2", (half,)).n == 1
    with pytest.raises(ValueError, match="endpoint does not return"):
        StrandMotion(1, "annulus", (half,))
    # two strands may end at each other's starts
    swap = generator_motion(sigma(1), 2, "annulus")
    assert StrandMotion(2, "annulus", tuple(p.copy() for p in swap.paths)).n == 2


def test_antipodal_lift_inherits_its_source_checks(monkeypatch):
    # the separation an exact lift takes from its source is, bit for bit,
    # the one measured on its 2n paths; one ulp off, the scene is measured
    calls = []
    measure = geometry._pairwise_min_sq_distance
    monkeypatch.setattr(geometry, "_pairwise_min_sq_distance",
                        lambda *args: calls.append(args) or measure(*args))
    for n, w in _seeded_rp2_words():
        m = word_motion(w, n)
        del calls[:]
        scene = lift_motion(m, ANTIPODAL)
        assert not calls, (n, str(w))
        assert math.sqrt(scene.sq_separation) == _pairwise_min_distance_per_pair(scene.paths,
                                                                                  False)
        paths = list(scene.paths)
        paths[n] = paths[n].copy()
        paths[n][len(w), 0] = np.nextafter(paths[n][len(w), 0], math.inf)
        moved = LiftScene(m, ANTIPODAL, tuple(paths))
        assert len(calls) == 1, (n, str(w))
        assert math.sqrt(moved.sq_separation) == _pairwise_min_distance_per_pair(paths, False)


def test_antipodal_shortcut_needs_an_rp2_source():
    # (p, -p) is two points of the band; its antipodal "lift" repeats p
    p = np.stack([np.array([0.0, 0.0, 1.0])] * 4)
    m = StrandMotion(2, "annulus", (p, -p))
    with pytest.raises(ValueError, match="not disjoint"):
        LiftScene(m, ANTIPODAL, (*m.paths, *(-q for q in m.paths)))


def test_psi_generator_images_regression():
    # the antipodal deck transformation reverses orientation, so the two
    # blocks cross with opposite signs
    assert psi(2, parse_word("s1")) == parse_word("s3 s1^-1")
    assert psi(2, parse_word("r1")) == parse_word("s1^-1 s2^-1 s1^-1")
    # a tie of the two chains: the mirrored half keeps each pair's order
    indices = (3, 7, 4, 6, 5, 4, 6, 3, 7)
    assert psi(5, parse_word("r3")) == BraidWord(tuple((sigma(i), -1) for i in indices))


def _rp2_generators(n: int) -> list[Generator]:
    return [sigma(i) for i in range(1, n)] + [rho(j) for j in range(1, n + 1)]


@pytest.mark.parametrize("n", range(1, 33))
def test_psi_formula_matches_the_geometry(n):
    # letter for letter where the diagram reader meets the commuting
    # letters of the two chains in the formula's order (every n <= 19),
    # and as sphere braids everywhere
    for g in _rp2_generators(n):
        formula, lifted = psi(n, gen_word(g)), generator_lift(g, n, ANTIPODAL)
        if n <= 19:
            assert formula == lifted, (n, str(g))
        elif formula != lifted:
            diff = (formula * lifted.inverse()).free_reduce()
            assert sphere_word_problem(2 * n, diff).verdict == "Trivial", (n, str(g))


def test_psi_generator_images_are_fast():
    # closed form: every generator image of B_64(RP^2), both signs, built
    # from an empty cache; the best of three runs, so that a garbage
    # collection of the test process's heap is not counted
    def build() -> float:
        covering._psi_generator.cache_clear()
        start = time.perf_counter()
        for g in _rp2_generators(64):
            psi(64, gen_word(g, 1))
            psi(64, gen_word(g, -1))
        return time.perf_counter() - start

    assert min(build() for _ in range(3)) < 0.05


def _seeded_rp2_words() -> list[tuple[int, BraidWord]]:
    """Twelve seeded sigma/rho words of 4..12 letters for each n = 2, 3, 4."""
    rng = random.Random(2009)
    out = []
    for n in (2, 3, 4):
        gens = [sigma(i) for i in range(1, n)] + [rho(i) for i in range(1, n + 1)]
        for _ in range(12):
            out.append((n, BraidWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                                           for _ in range(rng.randint(4, 12))))))
    return out


def test_whole_word_lift_equals_psi():
    # the lift of a whole word's motion and the concatenated generator
    # images are the same sphere braid, decided exactly
    for n, w in _seeded_rp2_words():
        lifted = extract_word(lift_motion(word_motion(w, n), ANTIPODAL))
        diff = (lifted * psi(n, w).inverse()).free_reduce()
        assert sphere_word_problem(2 * n, diff).verdict == "Trivial", (n, str(w))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


_PSI_PINS = [(2, "2eff77244a838b06"), (3, "5862517410e5edcf"), (4, "df5c7517488aabcd"),
             (5, "936ff87c5a6e872d"), (6, "5ebd996834e62aed"), (7, "794d326bdf39f940"),
             (8, "27167b38860130c4")]


@pytest.mark.parametrize("n, digest", _PSI_PINS)
def test_psi_generator_images_are_pinned(n, digest):
    # the extracted words byte for byte: a change to the geometry or the
    # diagram reader that alters any generator image shows here
    lifts = (generator_lift(g, n, ANTIPODAL) for g in _rp2_generators(n))
    assert _digest(map(format_word, lifts)) == digest


@pytest.mark.parametrize("n, digest", _PSI_PINS)
def test_psi_formula_images_are_pinned(n, digest):
    # the closed-form images, against the same digests
    assert _digest(format_word(_psi_generator(n, g, 1)) for g in _rp2_generators(n)) == digest


@pytest.mark.parametrize("n, words, actions", [(2, "5bbd6a42e4fdffa8", "bd3e0db5cd3e8fac"),
                                               (3, "3d976903edc272cd", "c45cd8233812ca76"),
                                               (4, "c86e085f45c9396c", "a539dd7dffadf3b4")])
def test_whole_word_lifts_are_pinned(n, words, actions):
    lifts = [extract_word(lift_motion(word_motion(w, n), ANTIPODAL))
             for k, w in _seeded_rp2_words() if k == n]
    assert _digest(map(format_word, lifts)) == words
    assert _digest(str(sphere_action(2 * n, w).images) for w in lifts) == actions


_ANNULUS_PINS = [
    (2, 1, "6ea920bcfaf211fb", "c725787b15bcdd5a"), (2, 2, "8418cd2445ae57fa", "a482d010969447ad"),
    (2, 3, "6b97024d0fed15ef", "8335c920e964dad5"), (2, 4, "23ed8b2775307aea", "be9c24409aeb2efb"),
    (3, 1, "15ca68c2b75cd203", "967bce14cbd721e1"), (3, 2, "3cc9d03784eaa675", "f17c8a871e19e19d"),
    (3, 3, "eabf651662aa6b60", "e0c479f7bc26e819"), (3, 4, "e0f55cc66552a313", "3bb27c65d7ec50f9")]


def _annulus_pin_words(d: int, n: int) -> list[BraidWord]:
    rng = random.Random(f"annulus pin d={d} n={n}")
    gens = [sigma(i) for i in range(1, n)] + [tau()]
    return [BraidWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                            for _ in range(rng.randint(1, 8))))
            for _ in range(8)]


@pytest.mark.parametrize("d, n, words, actions", _ANNULUS_PINS)
def test_annulus_cover_images_are_pinned(d, n, words, actions):
    # the whole-word geometric lift, byte for byte and as disc braids
    images = [extract_word(lift_motion(word_motion(w, n, "annulus"), annulus_dfold(d)))
              for w in _annulus_pin_words(d, n)]
    assert _digest(map(format_word, images)) == words
    assert _digest(str(disc_action(d * n + 1, w).images) for w in images) == actions


@pytest.mark.parametrize("d, n, _words, actions", _ANNULUS_PINS)
def test_annulus_homomorphic_images_match_the_pinned_actions(d, n, _words, actions):
    # the concatenated generator images are the same disc braids as the
    # pinned whole-word lifts, though not always the same words
    images = [annulus_cover_image(d, n, w) for w in _annulus_pin_words(d, n)]
    assert _digest(str(disc_action(d * n + 1, w).images) for w in images) == actions


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_annulus_whole_word_lift_equals_cover_image(d, n):
    rng = random.Random(f"annulus cross-check d={d} n={n}")
    gens = [sigma(i) for i in range(1, n)] + [tau()]
    for _ in range(20):
        w = BraidWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                            for _ in range(rng.randint(1, 10))))
        lifted = extract_word(lift_motion(word_motion(w, n, "annulus"), annulus_dfold(d)))
        quotient = (lifted * annulus_cover_image(d, n, w).inverse()).free_reduce()
        assert disc_action(d * n + 1, quotient).is_identity(), str(w)


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


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_annulus_relator_images_are_trivial(d, n):
    rep = verify_annulus_relator_images(d, n)
    assert rep.ok and rep.n == n
    assert [e.relator for e in rep.entries] == list(annulus_presentation(n).relators)


@pytest.mark.parametrize("d, n, message", [(1, 1, "cover degree"), (0, 2, "cover degree"),
                                           (2, 0, "strand count")])
def test_annulus_relator_check_rejects_bad_inputs(d, n, message):
    with pytest.raises(ValueError, match=message):
        verify_annulus_relator_images(d, n)


@pytest.mark.parametrize("twist", (-1, 2))
@pytest.mark.parametrize("n, failing", [(2, ["relator 0"]), (3, ["relator 1"])])
def test_annulus_relator_check_fires(monkeypatch, n, failing, twist):
    # tau's image replaced by its inverse or its square: the letter images
    # no longer respect the relators, and the check says so
    real = covering._annulus_generator

    def fake(d, m, g, e):
        return real(d, m, g, e) ** (twist if g.kind == "t" else 1)

    monkeypatch.setattr(covering, "_annulus_generator", fake)
    for d in (2, 3):
        rep = verify_annulus_relator_images.__wrapped__(d, n)
        assert not rep.ok
        assert [e.label for e in rep.entries if not e.ok] == failing


def test_annulus_generators_are_lifted_once(monkeypatch):
    # the inverse image inverts the cached lift instead of lifting again
    calls = []
    real = geometry.extract_word

    def counted(scene):
        calls.append(scene)
        return real(scene)

    monkeypatch.setattr(geometry, "extract_word", counted)
    d, n = 5, 2  # a cover no other test lifts, so nothing is cached yet
    for g in (sigma(1), tau()):
        plus, minus = (covering._annulus_generator(d, n, g, e) for e in (1, -1))
        assert minus == plus.inverse()
    assert len(calls) == 2


def test_annulus_spotcheck_needs_trivial_relator_images(monkeypatch):
    real = verify_annulus_relator_images(2, 2)
    bad = RelatorImageEntry("relator 0", real.entries[0].relator, Verdict("Nontrivial", "action"))
    monkeypatch.setattr(covering, "verify_annulus_relator_images",
                        lambda d, n: RelatorImageReport(n, (bad,)))
    with pytest.raises(AssertionError, match="relator 0"):
        injectivity_spotcheck_annulus(2, 2, 5)


@pytest.mark.parametrize("d, n, message", [(2, 0, "strand count"), (2, -2, "strand count"),
                                           (1, 2, "cover degree"), (0, 0, "strand count")])
def test_annulus_cover_image_checks_the_empty_word(d, n, message):
    with pytest.raises(ValueError, match=message):
        annulus_cover_image(d, n, EMPTY)


@pytest.mark.parametrize("n", (0, -2))
def test_psi_checks_the_strand_count(n):
    for w in (EMPTY, parse_word("s1"), parse_word("r1")):
        with pytest.raises(ValueError, match="strand count must be >= 1"):
            psi(n, w)


def test_annulus_cover_image():
    img = annulus_cover_image(2, 1, parse_word("t1"))
    assert not disc_action(3, img).is_identity()
    # trivial base words lift to trivial cover words
    w = parse_word("s1 t1 t1^-1 s1^-1")
    assert annulus_oracle(2, w).verdict == "Trivial"
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


def test_read_diagram_reads_a_crossing_whose_product_underflows():
    # the two u-differences around the crossing multiply to 0 in floats
    u = np.array([[-1e-200, 1e-200, 0.1], [0.0, 0.0, 0.0]])
    depth = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    assert _read_diagram(u, depth) == parse_word("s1")


def test_read_diagram_rejects_non_adjacent_crossing():
    # a triple point: all three strands cross at t = 1/2, and the pair
    # read second is strands at the two outer positions
    u = np.array([[1.0, 1.0], [0.0, 2.0], [2.0, 0.0]])
    depth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(NonGenericScene, match="non-adjacent"):
        _read_diagram(u, depth)


# Reference copies of the first, one-pair-at-a-time versions of the
# diagram reader and the separation check.  The batched versions must
# give the same words, messages and distances.


def _read_diagram_per_pair(u: np.ndarray, depth: np.ndarray) -> BraidWord:
    K, T = u.shape
    events = []
    for a in range(K):
        for b in range(a + 1, K):
            diff = u[a] - u[b]
            if np.any(diff == 0.0):
                raise NonGenericScene("strands coincide in the order functional")
            hits = np.nonzero(diff[:-1] * diff[1:] < 0)[0]
            for t in hits:
                f = diff[t] / (diff[t] - diff[t + 1])
                da = depth[a, t] + f * (depth[a, t + 1] - depth[a, t])
                db = depth[b, t] + f * (depth[b, t + 1] - depth[b, t])
                ua = u[a, t] + f * (u[a, t + 1] - u[a, t])
                events.append((t + f, ua, a, b, 1 if da > db else -1))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    pos = {s: k for k, s in enumerate(np.argsort(u[:, 0], kind="stable"))}
    letters = []
    for _t, _u, a, b, front_a in events:
        pa, pb = pos[a], pos[b]
        if abs(pa - pb) != 1:
            raise NonGenericScene("non-adjacent crossing; sampling too coarse")
        left = a if pa < pb else b
        letters.append((sigma(min(pa, pb) + 1), front_a if left == a else -front_a))
        pos[a], pos[b] = pb, pa
    return BraidWord(tuple(letters))


def _pairwise_min_distance_per_pair(paths, antipodal: bool) -> float:
    best = math.inf
    for a in range(len(paths)):
        for b in range(a + 1, len(paths)):
            d = np.min(np.linalg.norm(paths[a] - paths[b], axis=1))
            if antipodal:
                d = min(d, np.min(np.linalg.norm(paths[a] + paths[b], axis=1)))
            best = min(best, float(d))
    return best


def _blocked(block: int, fn, *args):
    """fn(*args) with geometry._BLOCK set to block, so that small inputs
    also run in several blocks."""
    saved = geometry._BLOCK
    geometry._BLOCK = block
    try:
        return fn(*args)
    finally:
        geometry._BLOCK = saved


@st.composite
def diagrams(draw):
    """Random (u, depth) of K <= 8 strands and T <= 60 samples.  Strand
    orders are random walks around K levels, the same walks rounded to a
    coarse grid (so that strands coincide), or a random order of the
    levels 0..K-1 at each sample (so that crossings share a point)."""
    k, t = draw(st.integers(2, 8)), draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("walk", "rounded", "levels")))
    if kind == "levels":
        u = np.argsort(rng.random((k, t)), axis=0).astype(float)
    else:
        u = np.arange(k)[:, None] + np.cumsum(rng.normal(0.0, 0.4, (k, t)), axis=1)
    if kind == "rounded":
        u = np.round(u, 1)
    return u, rng.normal(size=(k, t))


def _word_or_message(fn, *args):
    try:
        return fn(*args)
    except NonGenericScene as exc:
        return str(exc)


@given(diagrams(), st.sampled_from((1, 50, geometry._BLOCK)))
@settings(max_examples=200)
def test_read_diagram_matches_per_pair_reader(diagram, block):
    u, depth = diagram
    assert (_blocked(block, _word_or_message, _read_diagram, u, depth)
            == _word_or_message(_read_diagram_per_pair, u, depth))


@given(st.integers(2, 8), st.integers(1, 60), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from((1, 50, geometry._BLOCK)))
@settings(max_examples=100)
def test_pairwise_min_distance_matches_per_pair(k, t, seed, antipodal, block):
    rng = np.random.default_rng(seed)
    paths = tuple(rng.normal(size=(t, 3)) for _ in range(k))
    assert (math.sqrt(_blocked(block, _pairwise_min_sq_distance, _coords(paths), antipodal))
            == _pairwise_min_distance_per_pair(paths, antipodal))
