"""Sampled strand geometry: the independent witness of the covering embeddings.

Projective-plane braids are modelled as strand motions on the unit
sphere with antipodal identification; annulus braids as motions on an
equatorial band of the sphere (the band is an annulus and its d-fold
cover is the band again, via d-fold angle division).  Motions lift
path-wise by continuity.  Braid words are read back off a lifted scene
by a deterministic generic planar projection: stereographic projection
from a point avoided by all strands, strand order given by a slightly
tilted coordinate functional, crossing signs from the depth coordinate.

This is the only module of the package that imports numpy.  The exact
paths never load it: covering writes the double-cover images in closed
form, and loads this module only for a geometric name or an annulus
cover image.  Every motion and scene is checked, in whole-array
operations.  A motion or scene keeps the samples it validated (coords)
and its squared separation, and lifting, the projection check and the
diagram reader read the samples from there instead of stacking the paths
again; the projection check runs one sheet at a time, so that its
temporaries span one sheet, not the lift.  Two builders take their
checks from samples that were validated already, instead of measuring
them again: word_motion joins cached pieces of each letter's validated
generator motion and takes its unit error and separation from their
cached extremes, and the antipodal lift of a projective-plane motion
(p, -p) takes its projection error (0) and separation from its source.
Both give, bit for bit, what the checks would measure, by exact IEEE
identities (see word_motion and _antipodal_lift).  The diagram is still
read from the whole lifted scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .words import BraidWord, Generator, sigma

UNIT_TOL = 1e-9
SEPARATION_TOL = 1e-6
TILT = 1e-3  # deterministic perturbation of the strand-order functional

_CAP_SPREAD = 0.4  # chart diameter of the base disc holding the basepoints
_BAND_HALF = 0.25  # half-height (in z) of the annulus band basepoint range
_SWAP_SAMPLES = 33
_LOOP_SAMPLES = 129
_PUNCTURE = (0.1, 0.07)  # plane position of the annulus puncture strand


# elements (128 kB) in a temporary over a block of strand pairs, so that
# the pairs of a long word are never all held at once
_BLOCK = 16384


def _coords(paths) -> np.ndarray:
    """The (T, 3) paths as one C-contiguous (3, k, T) array: x, y and z by
    strand.  Contiguous, so that a slice of strands combines with another
    such array at full speed; the values are np.stack's."""
    out = np.empty((3, len(paths), paths[0].shape[0]), np.result_type(*paths))
    for i, p in enumerate(paths):
        out[:, i] = p.T
    return out


def _sq_norms(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Squared lengths of the vectors (x, y, z), summed in the order
    np.linalg.norm sums them."""
    s = x * x
    s += y * y
    s += z * z
    return s


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.triu_indices(k, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _pair_blocks(k: int, width: int):
    """The strand pairs a < b of k strands in (a, b) order, as index arrays
    in blocks of _BLOCK // width pairs (at least one), so that a block's
    temporaries of `width` elements per pair hold at most _BLOCK elements
    unless one pair alone is wider."""
    a, b = _pairs(k)
    step = max(1, _BLOCK // width)
    for lo in range(0, len(a), step):
        yield a[lo:lo + step], b[lo:lo + step]


def _pairwise_min_sq_distance(c: np.ndarray, antipodal: bool) -> float:
    """Least squared distance, at a common sample, between two of the paths
    with coordinates c (see _coords), or between one and the other's
    antipode: |p_a - p_b|^2 or |p_a + p_b|^2 over a < b; inf for one path."""
    best = math.inf
    for a, b in _pair_blocks(c.shape[1], c[:, 0].size):
        pa, pb = c[:, a], c[:, b]
        best = min(best, float(np.min(_sq_norms(*(pa - pb)))))
        if antipodal:
            pa += pb  # the block's own copy: the sum, with no new temporary
            best = min(best, float(np.min(_sq_norms(*pa))))
    return best


def _check_return(c: np.ndarray, antipodal: bool) -> None:
    """Raise ValueError unless each path with coordinates c (see _coords)
    ends at a start point, or on rp2 at its antipode: squared gap < 1e-12,
    in one (n, n) comparison of final points against start points."""
    ends, starts = c[:, :, -1, None], c[:, None, :, 0]
    near = _sq_norms(*(ends - starts)) < 1e-12
    if antipodal:
        near |= _sq_norms(*(ends + starts)) < 1e-12
    if not near.any(axis=1).all():
        raise ValueError("endpoint does not return to the basepoint set")


def _check_error(err: float, tol: float, c: np.ndarray, message: str) -> None:
    """Raise ValueError(message) unless err <= tol, the largest error over
    the samples c; NaN and inf fail, and a non-finite sample says so."""
    if not err <= tol:
        raise ValueError(message if np.isfinite(c).all() else "path samples must be finite")


def _grid_prefix(paths, shape: tuple[int, int]) -> int:
    """Number of leading paths of the given shape."""
    return next((i for i, p in enumerate(paths) if p.shape != shape), len(paths))


@dataclass(frozen=True, eq=False)
class StrandMotion:
    """n disjoint strand paths over [0,1], sampled; paths are stored as
    (T, 3) arrays of unit vectors.  surface is "rp2" (antipodal
    semantics) or "annulus" (equatorial band).

    A motion checks whatever paths it is handed: unit norms, disjointness
    (with antipodes on rp2) and that the endpoints return to the start
    points.  word_motion builds its motions without this check, from
    validated generator motions (see there)."""

    n: int
    surface: str
    paths: tuple[np.ndarray, ...]
    # the validated samples in (3, n, T) layout (see _coords), read-only
    coords: np.ndarray = field(init=False, repr=False)
    # the squared separation it measured (see _pairwise_min_sq_distance;
    # with antipodes on rp2), inf for one strand
    sq_separation: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.surface not in ("rp2", "annulus"):
            raise ValueError(f"unknown surface {self.surface!r}")
        if self.n < 1:
            raise ValueError("strand count must be >= 1")
        if len(self.paths) != self.n:
            raise ValueError("need one path per strand")
        # the paths before the first one off the grid are checked first,
        # so that a motion with both faults reports the earlier one
        good = _grid_prefix(self.paths, (self.paths[0].shape[0], 3))
        if good:
            c = _coords(self.paths[:good])
            _check_error(float(np.max(np.abs(np.sqrt(_sq_norms(*c)) - 1.0))), UNIT_TOL, c,
                         "path points must be unit vectors")
        if good < self.n:
            raise ValueError("paths must share the sample grid")
        antip = self.surface == "rp2"
        sq = _pairwise_min_sq_distance(c, antip)
        if math.sqrt(sq) <= SEPARATION_TOL:
            raise ValueError("strand paths are not disjoint")
        _check_return(c, antip)
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "sq_separation", sq)


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
    of the base lifts to sheets i, i+n, ..., i+(d-1)n.

    A scene checks that each lifted path projects to its source and that
    the lifted paths are disjoint, whatever paths it is handed.
    lift_motion builds the antipodal lift of a projective-plane motion
    without this check (see _antipodal_lift).
    """

    source: StrandMotion
    cover: Cover
    paths: tuple[np.ndarray, ...]
    # the validated samples in (3, d*n, T) layout (see _coords), read-only
    coords: np.ndarray = field(init=False, repr=False)
    # the least squared distance between two lifted paths at a sample
    sq_separation: float = field(init=False, repr=False)

    def __post_init__(self):
        d, n = self.cover.degree, self.source.n
        if len(self.paths) != d * n:
            raise ValueError("lift must have d*n paths")
        good = _grid_prefix(self.paths, self.source.paths[0].shape)
        c = _coords(self.paths[:good]) if good else None
        src = self.source.coords
        # sheet by sheet, so that no temporary spans the whole lift
        for lo in range(0, good, n):
            err = _projection_error(c[:, lo:lo + n], src[:, :min(n, good - lo)], self.cover)
            _check_error(err, UNIT_TOL, c, "lifted path does not project to its source")
        if good < d * n:
            raise ValueError("lifted path sample grid mismatch")
        sq = _pairwise_min_sq_distance(c, False)
        if math.sqrt(sq) <= SEPARATION_TOL:
            raise ValueError("lifted paths are not disjoint")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "sq_separation", sq)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls with the given fields, built
    without its __post_init__ check.  Only for values whose check holds
    by construction; the caller gives the argument."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _projection_error(lift: np.ndarray, src: np.ndarray, cover: Cover) -> float:
    """Largest distance from a lifted sample, projected to the base, to
    its source's sample; both in coordinates (see _coords)."""
    if cover.kind == "antipodal_sphere":
        return math.sqrt(np.max(np.minimum(_sq_norms(*(lift - src)), _sq_norms(*(lift + src)))))
    d = cover.degree
    x, y, z = lift
    theta = np.arctan2(y, x)
    r = np.hypot(x, y)
    sx, sy, sz = src
    return math.sqrt(np.max(_sq_norms(r * np.cos(d * theta) - sx, r * np.sin(d * theta) - sy,
                                      z - sz)))


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


_build_generator_motion = generator_motion.__wrapped__  # the same, uncached


class _Segment(NamedTuple):
    """One stretch of samples of every word motion, slot by slot."""

    slot: tuple[int, ...]  # the slot that the strand in slot j moves to
    pieces: tuple[np.ndarray, ...]  # slot j's samples, (3, k), read-only
    flipped: tuple[np.ndarray, ...]  # their negations, read-only
    starts: tuple[tuple[float, ...], ...]  # the first point of slot j's path
    ends: tuple[tuple[float, ...], ...]  # its last point, the piece's last
    flipped_ends: tuple[tuple[float, ...], ...]  # their negations
    error: float  # the largest unit error of the pieces
    sq_separation: float  # theirs, with antipodes on rp2 (see _pairwise_min_sq_distance)


def _piece(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples p, (3, k), and their negation, read-only; a strand that
    stays put (every sample the first, bit for bit) is held as one point,
    broadcast."""
    first = p[:, :1]
    if (p.view(np.uint64) == first.view(np.uint64)).all():
        return np.broadcast_to(first.copy(), p.shape), np.broadcast_to(-first, p.shape)
    p = np.ascontiguousarray(p)
    q = -p
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _segment(c: np.ndarray, slot, starts, ends, antipodal: bool) -> _Segment:
    """The _Segment of the samples c (see _coords) with the given slot map
    and path end points, measured as StrandMotion measures."""
    pieces, flipped = zip(*(_piece(c[:, j]) for j in range(c.shape[1])))
    starts, ends = (tuple(tuple(p.tolist()) for p in ps) for ps in (starts, ends))
    return _Segment(slot, pieces, flipped, starts, ends, tuple(tuple(-v for v in p) for p in ends),
                    float(np.max(np.abs(np.sqrt(_sq_norms(*c)) - 1.0))),
                    _pairwise_min_sq_distance(c, antipodal))


@lru_cache(maxsize=None)
def _basepoint_segment(n: int, surface: str) -> _Segment:
    """The first sample of every word motion: the basepoints."""
    base = basepoints(n, surface)
    return _segment(_coords([b[None] for b in base]), tuple(range(n)), base, base,
                    surface == "rp2")


@lru_cache(maxsize=None)
def _letter_segment(g: Generator, e: int, n: int, surface: str) -> _Segment:
    """The samples that the letter g^e appends to a word motion: each slot's
    path of the validated generator_motion(g, n, surface), reversed for
    e = -1, without its first sample (samples 1..T-1 forward, 0..T-2
    reversed).  Cached per (g, e, n, surface).  The motion is built here
    and not kept, so that these pieces are the one copy of its samples
    that word motions hold on to."""
    gm = _build_generator_motion(g, n, surface)
    swap = {g.index - 1: g.index, g.index: g.index - 1} if g.kind == "s" else {}
    slot = tuple(swap.get(j, j) for j in range(n))
    # the reversed path occupying slot j is the reversal of the forward
    # path that ends at slot j
    paths = gm.paths if e == 1 else [gm.paths[k][::-1] for k in slot]
    return _segment(_coords([p[1:] for p in paths]), slot, [p[0] for p in paths],
                    [p[-1] for p in paths], surface == "rp2")


def word_motion(w: BraidWord, n: int, surface: str = "rp2") -> StrandMotion:
    """Concatenated motion of a braid word, one generator segment per
    letter; strands follow the slot currently holding them, and each
    appended segment is kept continuous on the sphere (segments for
    projective-plane loops may need the antipodal representative).

    The samples are the cached pieces of each letter's validated generator
    motion (see _letter_segment), each negated where a strand needs the
    antipodal representative, and the motion is built without the
    StrandMotion check; its unit error and squared separation are the
    extremes of the basepoints and of the pieces, bit for bit the ones
    the check would measure.  Negation changes no sample's norm: |-p| =
    |p|.  On rp2 it swaps |p_a - p_b|^2 and |p_a + p_b|^2 exactly (see
    _antipodal_lift), and the check measures both; reordering strands
    only permutes the pairs.  The band check measures no |p_a + p_b|^2,
    so a band motion with a negated piece, which the band generators
    never need, is measured whole.  Endpoint return is checked on the
    final points.
    """
    if n < 1:
        raise ValueError("strand count must be >= 1")
    first = _basepoint_segment(n, surface)
    chunks = [[p] for p in first.pieces]  # each strand's pieces so far
    tails = list(first.ends)  # the last point of each strand's path so far
    slot_of = list(range(n))  # strand index -> current slot (0-based)
    err, sq, flips = first.error, first.sq_separation, False
    for g, e in w.letters:
        seg = _letter_segment(g, e, n, surface)
        for s, j in enumerate(slot_of):
            (x, y, z), (tx, ty, tz) = seg.starts[j], tails[s]
            dx, dy, dz = x - tx, y - ty, z - tz
            if dx * dx + dy * dy + dz * dz > 1e-12:
                chunks[s].append(seg.flipped[j])
                tails[s] = seg.flipped_ends[j]
                flips = True
            else:
                chunks[s].append(seg.pieces[j])
                tails[s] = seg.ends[j]
        slot_of = [seg.slot[j] for j in slot_of]
        err, sq = max(err, seg.error), min(sq, seg.sq_separation)
    # strand-major pieces side by side are the (3, n, T) layout of _coords
    c = np.concatenate([p for pieces in chunks for p in pieces], axis=1).reshape(3, n, -1)
    paths = tuple(np.array(c.transpose(1, 2, 0)))  # the caller's copy, writable
    if flips and surface == "annulus":
        return StrandMotion(n, surface, paths)
    _check_error(err, UNIT_TOL, c, "path points must be unit vectors")
    if math.sqrt(sq) <= SEPARATION_TOL:
        raise ValueError("strand paths are not disjoint")
    _check_return(c, surface == "rp2")
    c.flags.writeable = False
    return _trusted(StrandMotion, n=n, surface=surface, paths=paths, coords=c, sq_separation=sq)


def _antipodal_lift(m: StrandMotion) -> LiftScene:
    """The antipodal lift of a projective-plane motion m, built without the
    LiftScene check: the sheet through m's validated samples p, which are
    continuous on the sphere already, and its antipode -p.

    Each lifted path projects to its source with error 0: p - p and -p + p
    are zero.  In IEEE arithmetic x - (-y) = x + y, (-x) - (-y) = -(x - y)
    and addition commutes, so the squared distance of every lifted pair
    is, bit for bit, one m measured with antipodes (|p_a - p_b|^2 within a
    sheet, |p_a + p_b|^2 across), or |p_i + p_i|^2 for the two lifts of
    one strand.  The scene's squared separation is the least of those.
    """
    src = m.coords
    c = np.concatenate((src, -src), axis=1)
    c.flags.writeable = False
    sq = min(m.sq_separation, float(np.min(_sq_norms(*(src + src)))))
    return _trusted(LiftScene, source=m, cover=ANTIPODAL, paths=tuple(c.transpose(1, 2, 0)),
                    coords=c, sq_separation=sq)


def lift_motion(m: StrandMotion, cover: Cover) -> LiftScene:
    """Lift a base motion through the antipodal double cover or the
    d-fold band cover, path-wise by continuity."""
    if cover.kind == "antipodal_sphere":
        if m.surface != "rp2":
            raise ValueError("antipodal cover lifts projective-plane motions")
        return _antipodal_lift(m)
    if cover.kind == "annulus_dfold":
        if m.surface != "annulus":
            raise ValueError("d-fold band cover lifts annulus motions")
        d = cover.degree
        x, y, z = m.coords
        theta = np.unwrap(np.arctan2(y, x))
        r = np.hypot(x, y)
        # sheet i + k*n of strand i turns by 2*pi*k/d
        th = (theta + 2 * math.pi * np.arange(d)[:, None, None]) / d
        lifts = np.stack([r * np.cos(th), r * np.sin(th), np.broadcast_to(z, th.shape)], axis=-1)
        return LiftScene(m, cover, tuple(lifts.reshape(d * m.n, -1, 3)))
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
    x, y, z = scene.coords
    if scene.cover.kind == "antipodal_sphere":
        den = 1.0 + x
        yy = y / den
        u = np.divide(z, den, out=den)  # zz, in den's buffer, then negated
        np.negative(u, out=u)
        u += TILT * yy
        return u, yy
    den = 1.0 + z
    px, py = x / den, y / den
    # puncture strand inside the inner disc, off the origin: lifts of one
    # strand sit at point-symmetric plane positions, so a centered
    # puncture would create structural triple points
    T = x.shape[1]
    u = np.vstack([px + TILT * py, np.full((1, T), _PUNCTURE[0] + TILT * _PUNCTURE[1])])
    return u, np.vstack([py, np.full((1, T), _PUNCTURE[1])])


def _read_diagram(u: np.ndarray, depth: np.ndarray) -> BraidWord:
    """Braid word of the diagram with strand order u and depth `depth`,
    both (K, T): one letter per crossing, in time order."""
    K, T = u.shape
    if K < 2:
        return BraidWord(())
    hits = []
    for a, b in _pair_blocks(K, T):
        diff = u[a] - u[b]
        if not diff.all():
            raise NonGenericScene("strands coincide in the order functional")
        # a sign change; a product of two differences can underflow to 0
        sign = np.signbit(diff)
        pair, t = np.nonzero(sign[:, :-1] != sign[:, 1:])
        hits.append((a[pair], b[pair], t))
    a, b, t = (np.concatenate(col) for col in zip(*hits))
    d0, d1 = u[a, t] - u[b, t], u[a, t + 1] - u[b, t + 1]
    f = d0 / (d0 - d1)
    da = depth[a, t] + f * (depth[a, t + 1] - depth[a, t])
    db = depth[b, t] + f * (depth[b, t + 1] - depth[b, t])
    ua = u[a, t] + f * (u[a, t + 1] - u[a, t])
    # events come in (a, b, t) order; a stable sort by time, then by u,
    # keeps that order among ties
    order = np.lexsort((ua, t + f))
    front = np.where(da > db, 1, -1)[order].tolist()
    pos = np.argsort(np.argsort(u[:, 0], kind="stable")).tolist()
    gens = [sigma(i) for i in range(1, K)]
    letters = []
    for a, b, front_a in zip(a[order].tolist(), b[order].tolist(), front):
        pa, pb = pos[a], pos[b]
        if abs(pa - pb) != 1:
            raise NonGenericScene("non-adjacent crossing; sampling too coarse")
        letters.append((gens[min(pa, pb)], front_a if pa < pb else -front_a))
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


@lru_cache(maxsize=None)
def generator_lift(g: Generator, n: int, cover: Cover) -> BraidWord:
    """The word read off the lift of generator_motion(g, n) through cover,
    extracted once per (g, n, cover) and cached."""
    surface = "rp2" if cover.kind == "antipodal_sphere" else "annulus"
    return extract_word(lift_motion(generator_motion(g, n, surface), cover))


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
