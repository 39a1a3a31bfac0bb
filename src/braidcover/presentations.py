"""Group presentations used throughout the toolkit.

Covers Van Buskirk's presentation of the braid group of the projective
plane, the standard sphere and annulus (type B) braid presentations, and
abstract presentations of the finite groups Dic_4m, Dih_2k, Q8 and the
binary polyhedral groups T*, O*, I*.

Relators are stored as lhs * rhs^-1, free-reduced; a relator r means
r = 1 in the presented group.  Vacuous relation instances at small n are
simply not emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    EMPTY,
    BraidWord,
    Generator,
    format_word,
    gen_word,
    parse_word,
    rho,
    sigma,
    tau,
)


class PresentationFormatError(ValueError):
    """Raised by Presentation.from_text on text that is not a presentation."""


@dataclass(frozen=True)
class Presentation:
    name: str
    generators: tuple[Generator, ...]
    relators: tuple[BraidWord, ...]

    def __post_init__(self):
        gens = set()
        for g in self.generators:
            if g in gens:
                raise ValueError(f"repeated generator {g}")
            gens.add(g)
        for r in self.relators:
            if len(r) == 0:
                raise ValueError("empty relator")
            for g, _e in r:
                if g not in gens:
                    raise ValueError(f"relator letter {g} not among generators")

    def to_text(self) -> str:
        lines = [f"presentation {self.name}"]
        lines.append("generators " + " ".join(str(g) for g in self.generators))
        for r in self.relators:
            lines.append(format_word(r))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Presentation":
        """Parse the format to_text writes; any malformed input raises
        PresentationFormatError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(None, 1) if lines else []
        if len(header) != 2 or header[0] != "presentation":
            raise PresentationFormatError("missing 'presentation NAME' header")
        tokens = lines[1].split() if len(lines) > 1 else []
        if not tokens or tokens[0] != "generators":
            raise PresentationFormatError("missing 'generators' line")
        try:
            gens = []
            for tok in tokens[1:]:
                g, e = parse_word(tok).letters[0]
                if e != 1:
                    raise ValueError(f"inverted generator {tok!r}")
                gens.append(g)
            relators = tuple(parse_word(ln) for ln in lines[2:])
            return Presentation(header[1].strip(), tuple(gens), relators)
        except ValueError as exc:
            raise PresentationFormatError(str(exc)) from None


def _relator(lhs: BraidWord, rhs: BraidWord = EMPTY) -> BraidWord:
    return (lhs * rhs.inverse()).free_reduce()


def _chain_up(gen, lo: int, hi: int, exp: int = 1) -> BraidWord:
    """gen(lo) gen(lo+1) ... gen(hi), all to `exp`; empty if hi < lo."""
    w = EMPTY
    for i in range(lo, hi + 1):
        w = w * gen_word(gen(i), exp)
    return w


def _chain_down(gen, hi: int, lo: int, exp: int = 1) -> BraidWord:
    """gen(hi) gen(hi-1) ... gen(lo), all to `exp`; empty if hi < lo."""
    w = EMPTY
    for i in range(hi, lo - 1, -1):
        w = w * gen_word(gen(i), exp)
    return w


def _van_buskirk_relators(n: int) -> list[tuple[str, BraidWord]]:
    rels: list[tuple[str, BraidWord]] = []
    s = lambda i, e=1: gen_word(sigma(i), e)
    r = lambda j, e=1: gen_word(rho(j), e)
    # sigma commutation
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append((f"comm_s_{i}_{j}", _relator(s(i) * s(j), s(j) * s(i))))
    # braid relations
    for i in range(1, n - 1):
        rels.append((f"braid_{i}", _relator(s(i) * s(i + 1) * s(i), s(i + 1) * s(i) * s(i + 1))))
    # sigma/rho commutation
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                rels.append((f"comm_sr_{i}_{j}", _relator(s(i) * r(j), r(j) * s(i))))
    # rho_{i+1} = sigma_i^-1 rho_i sigma_i^-1
    for i in range(1, n):
        rels.append((f"sirisi_{i}", _relator(r(i + 1), s(i, -1) * r(i) * s(i, -1))))
    # rho_{i+1}^-1 rho_i^-1 rho_{i+1} rho_i = sigma_i^2
    for i in range(1, n):
        rels.append((f"rhocomm_{i}", _relator(r(i + 1, -1) * r(i, -1) * r(i + 1) * r(i), s(i) * s(i))))
    # surface relation
    if n == 1:
        rels.append(("surface", _relator(r(1) * r(1))))
    else:
        mid = _chain_up(sigma, 1, n - 2)
        rhs = mid * s(n - 1) * s(n - 1) * _chain_down(sigma, n - 2, 1)
        rels.append(("surface", _relator(r(1) * r(1), rhs)))
    return rels


def van_buskirk(n: int) -> Presentation:
    """Van Buskirk's presentation of the braid group of RP^2 on n strands.

    Generators sigma_1..sigma_{n-1}, rho_1..rho_n.  Relation families:
    disc braid relations; sigma/rho commutation for j != i, i+1;
    rho_{i+1} = sigma_i^-1 rho_i sigma_i^-1; the commutator relation
    rho_{i+1}^-1 rho_i^-1 rho_{i+1} rho_i = sigma_i^2; and the surface
    relation rho_1^2 = sigma_1 ... sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} ... sigma_1.
    """
    if n < 1:
        raise ValueError("strand count must be >= 1")
    gens = tuple(sigma(i) for i in range(1, n)) + tuple(rho(j) for j in range(1, n + 1))
    rels = tuple(w for _label, w in _van_buskirk_relators(n))
    return Presentation(f"B_{n}(RP2)", gens, rels)


def van_buskirk_relator_labels(n: int) -> dict[str, int]:
    """Map from relator family labels to indices in van_buskirk(n).relators."""
    return {label: i for i, (label, _w) in enumerate(_van_buskirk_relators(n))}


def sphere_presentation(m: int) -> Presentation:
    """Sphere braid group on m strands: Artin relations plus the sphere
    relator sigma_1 ... sigma_{m-2} sigma_{m-1}^2 sigma_{m-2} ... sigma_1."""
    if m < 2:
        raise ValueError("sphere presentation needs m >= 2")
    gens = tuple(sigma(i) for i in range(1, m))
    s = lambda i, e=1: gen_word(sigma(i), e)
    rels: list[BraidWord] = []
    for i in range(1, m):
        for j in range(i + 2, m):
            rels.append(_relator(s(i) * s(j), s(j) * s(i)))
    for i in range(1, m - 1):
        rels.append(_relator(s(i) * s(i + 1) * s(i), s(i + 1) * s(i) * s(i + 1)))
    sphere = _chain_up(sigma, 1, m - 2) * s(m - 1) * s(m - 1) * _chain_down(sigma, m - 2, 1)
    rels.append(_relator(sphere))
    return Presentation(f"B_{m}(S2)", gens, tuple(rels))


def annulus_presentation(n: int) -> Presentation:
    """Annulus (type B) braid group: sigma_1..sigma_{n-1} and the loop tau,
    with tau sigma_1 tau sigma_1 = sigma_1 tau sigma_1 tau and tau central
    past sigma_2.."""
    if n < 1:
        raise ValueError("strand count must be >= 1")
    gens = tuple(sigma(i) for i in range(1, n)) + (tau(),)
    s = lambda i, e=1: gen_word(sigma(i), e)
    t = gen_word(tau())
    rels: list[BraidWord] = []
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(_relator(s(i) * s(j), s(j) * s(i)))
    for i in range(1, n - 1):
        rels.append(_relator(s(i) * s(i + 1) * s(i), s(i + 1) * s(i) * s(i + 1)))
    if n >= 2:
        rels.append(_relator(t * s(1) * t * s(1), s(1) * t * s(1) * t))
    for i in range(2, n):
        rels.append(_relator(t * s(i), s(i) * t))
    return Presentation(f"B_{n}(annulus)", gens, tuple(rels))


def half_twist(n: int) -> BraidWord:
    """Delta = (sigma_1..sigma_{n-1})(sigma_1..sigma_{n-2})...(sigma_1)."""
    w = EMPTY
    for k in range(n - 1, 0, -1):
        w = w * _chain_up(sigma, 1, k)
    return w


def full_twist(n: int) -> BraidWord:
    """Delta^2 = (sigma_1..sigma_{n-1})^n."""
    return _chain_up(sigma, 1, n - 1) ** n


def element_a(n: int) -> BraidWord:
    """a = sigma_{n-1}^-1 ... sigma_1^-1 rho_1, of order 4n in B_n(RP^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _chain_down(sigma, n - 1, 1, -1) * gen_word(rho(1))


def element_b(n: int) -> BraidWord:
    """b = sigma_{n-2}^-1 ... sigma_1^-1 rho_1, of order 4(n-1) in B_n(RP^2)."""
    if n < 2:
        raise ValueError("b requires n >= 2")
    return _chain_down(sigma, n - 2, 1, -1) * gen_word(rho(1))


def rho_expanded(j: int) -> BraidWord:
    """rho_j rewritten over sigma and rho_1:
    rho_j = sigma_{j-1}^-1 ... sigma_1^-1 rho_1 sigma_1^-1 ... sigma_{j-1}^-1."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return _chain_down(sigma, j - 1, 1, -1) * gen_word(rho(1)) * _chain_up(sigma, 1, j - 1, -1)


ABSTRACT_X = Generator("s", 1)  # reused letters for abstract finite groups
ABSTRACT_Y = Generator("s", 2)
ABSTRACT_Z = Generator("s", 3)


def finite_group_presentation(family: str, param: int | None = None) -> Presentation:
    """Presentations of the finite groups in the classification.

    Dic(m):   <x, y | x^m = y^2, y x y^-1 = x^-1>, order 4m (m >= 2).
    Dih(k):   <x, y | x^k, y^2, (yx)^2>, order 2k (k >= 1).
    Q8:       Dic(2).
    Tstar/Ostar/Istar: binary polyhedral <x, y, z | x^2 = y^3 = z^k = xyz>
    with k = 3, 4, 5; orders 24, 48, 120.
    """
    x = gen_word(ABSTRACT_X)
    y = gen_word(ABSTRACT_Y)
    z = gen_word(ABSTRACT_Z)
    if family == "Q8":
        family, param = "Dic", 2
    if family == "Dic":
        if param is None or param < 2:
            raise ValueError("Dic requires m >= 2")
        rels = (
            _relator(x**param, y**2),
            _relator(y * x * y.inverse(), x.inverse()),
        )
        return Presentation(f"Dic_{4 * param}", (ABSTRACT_X, ABSTRACT_Y), rels)
    if family == "Dih":
        if param is None or param < 1:
            raise ValueError("Dih requires k >= 1")
        rels = (
            _relator(x**param),
            _relator(y**2),
            _relator((y * x) ** 2),
        )
        return Presentation(f"Dih_{2 * param}", (ABSTRACT_X, ABSTRACT_Y), rels)
    binary = {"Tstar": 3, "Ostar": 4, "Istar": 5}
    if family in binary:
        k = binary[family]
        rels = (
            _relator(x**2, x * y * z),
            _relator(y**3, x * y * z),
            _relator(z**k, x * y * z),
        )
        return Presentation(family, (ABSTRACT_X, ABSTRACT_Y, ABSTRACT_Z), rels)
    raise ValueError(f"unknown family {family!r}")
