"""The canned identity claims in the braid group of the projective plane,
and a certificate engine that proves them.

Claims are pairs of words (source, target) asserted equal in van_buskirk(n).
The engine proves every claim from a ladder of auxiliary identities (disc
braid shuffles, half twist conjugation, the rho_j expansion) proved once,
in dependency order.  Every lemma of the ladder is proved by a script of
single lemma or relator moves that is checked, not searched: the disc
braid lemmas equate positive sigma-words and follow the braid and
commutation moves of _positive_script, and the rest are inductions on the
strand or generator index, or fixed local cores.  Each auxiliary identity
is banked as its proof in items that use earlier lemmas by reference.  A
claim is certified by one checked move of its own banked lemma; the
certificate is flattened to presentation relators and replays against the
bare presentation.

Every script step and every claim names its move: the label of a lemma or
relator with word L, an inverse flag, a rotation k and a position q.  The
engine inserts rotation k of L (of L^-1 if the flag is set) at q in the
current word, reduces freely and checks the result against the step's
stated word; it keeps no move table and looks nothing up.  The scripts
compute each move from the lengths of their word pieces by one rule.  A
step rewrites x to y in the current word P x Q, where x and y differ in
their first and last letters, and y x^-1 is rotation k0 of L^-1 or of L.
Inserting at |P| + j, for 0 <= j <= |x|, takes rotation k0 - j, so the
step names rotation 0 at |P| + k0 if k0 <= |x|, else rotation k0 - |x| at
|P| + |x|.  Rewriting a lemma's source to its target is thus the inverse
at rotation 0 in front of the source, and a claim's move is its lemma's
inverse at rotation 0, position 0.  Positions count letters of the freely
reduced current word, so where a piece cancels against its neighbour
(Delta begins and ends in s_1, for one) P and x shrink; where L is not
cyclically reduced, two rotations reduce to the same word and the lesser
is named.  The scripts write those cases out.  The rule gives the
insertion that rewriting._hits, the one-move lookup, finds first, and the
one that compiles shortest; a test checks every named move against it, so
the certificates are those the lookup would compile.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

from .presentations import (
    Presentation,
    _chain_down,
    _chain_up,
    _r,
    _s,
    element_a,
    element_b,
    half_twist,
    rho_expanded,
    van_buskirk,
    van_buskirk_relator_labels,
)
from .rewriting import (
    Derivation,
    Lemma,
    _checked_derivation,
    _compile_move,
    _derivation,
    _lemma_from_proof,
)
from .words import EMPTY, BraidWord, _trusted_word, rho, sigma


@dataclass(frozen=True)
class Claim:
    label: str
    source: BraidWord
    target: BraidWord


def claim_builders(n: int) -> dict[str, Callable[[], Claim]]:
    """Label -> builder of each claim of paper_claims(n), in its order.  A
    builder makes only its own claim's words, so looking a label up costs
    nothing: the half twist alone has n(n - 1)/2 letters, and every
    claim together grows as n^3."""
    if n < 2:
        raise ValueError("claims need n >= 2")
    a, b, delta = (cache(lambda: element_a(n)), cache(lambda: element_b(n)),
                   cache(lambda: half_twist(n)))
    sides: dict[str, Callable[[], tuple[BraidWord, BraidWord]]] = {}
    for j in range(1, n + 1):
        sides[f"rjr1_{j}"] = lambda j=j: (_r(j), rho_expanded(j))
    sides["rn2"] = lambda: (_r(n, -1) * _r(n, -1), _chain_down(sigma, n - 1, 2) * _s(1) * _s(1)
                            * _chain_up(sigma, 2, n - 1))
    sides["powerab_a"] = lambda: (a() ** n, _chain_down(rho, n, 1))
    sides["powerab_b"] = lambda: (b() ** (n - 1), _chain_down(rho, n - 1, 1))
    for i in range(1, n + 1):
        sides[f"conjri_{i}"] = lambda i=i: (delta().inverse() * _r(i) * delta(), _r(n + 1 - i, -1))
    for i in range(1, n - 1):
        sides[f"permute_sigma_{i}"] = lambda i=i: (a().inverse() * _s(i) * a(), _s(i + 1))
    sides["permute_sigma_wrap"] = lambda: (a().inverse() * a().inverse() * _s(n - 1) * a() * a(),
                                           _s(1, -1))
    for i in range(1, n):
        sides[f"permute_rho_{i}"] = lambda i=i: (a().inverse() * _r(i) * a(), _r(i + 1))
    sides["permute_rho_wrap"] = lambda: (a().inverse() * _r(n) * a(), _r(1, -1))
    sides["realdic_a"] = lambda: (delta() * a() * delta().inverse() * a(), EMPTY)
    sides["realdic_b"] = lambda: ((delta() * a().inverse()) * b()
                                  * (delta() * a().inverse()).inverse() * b(), EMPTY)
    sides["delta4"] = lambda: (delta() ** 4, EMPTY)
    return {label: (lambda label=label, pair=pair: Claim(label, *pair()))
            for label, pair in sides.items()}


def paper_claims(n: int) -> list[Claim]:
    """The identity corpus for van_buskirk(n): the rho_j expansions, the
    rho_n^-2 identity, the power formulas for a and b, half twist
    conjugation of the rho generators, the cyclic conjugation tables for
    a, the two dicyclic conjugation relations, and Delta^4 = 1."""
    return [build() for build in claim_builders(n).values()]


class ScriptError(ValueError):
    """Raised when a lemma script step does not apply: its label names no
    lemma or relator, its rotation or position is out of range, or its
    named insertion does not turn the current word into the stated one.
    _positive_script raises it for words that are not equal positive
    braids."""

    def __init__(self, lemma: str, step: int, message: str):
        super().__init__(f"lemma {lemma}: script step {step}: {message}")
        self.lemma = lemma
        self.step = step


def _positive_script(name: str, source: BraidWord, target: BraidWord):
    """A script of braid and commutation moves from source to target, two
    positive sigma-words equal in the positive braid monoid.

    Right division: for t = len(target), ..., 1 the first t letters of the
    current word are rearranged until the t-th one is target's t-th.  To
    make a prefix u s_j end in s_k: if j = k nothing moves; if |j - k| >= 2,
    make u end in s_k, then s_k s_j -> s_j s_k (comm_s); if |j - k| = 1,
    make u end in s_k, then the part before that s_k end in s_j, then
    s_j s_k s_j -> s_k s_j s_k (braid).  The right lcm of s_j and s_k is
    s_k s_j (resp. s_j s_k s_j) and the monoid is cancellative, so this
    fails only where s_k does not right-divide the prefix, that is, only on
    words that are not equal; then it raises ScriptError.  Working from the
    right keeps every move left of the suffix that already matches target,
    so no move falls in the part that the script check cancels against
    target^-1, and each move's position is where its letters start in u.

    Each step names its move.  comm_s_a_b is s_a s_b s_a^-1 s_b^-1 and
    braid_a is s_a s_(a+1) s_a (s_(a+1) s_a s_(a+1))^-1, for a < b.
    Rewriting x -> y, where x and y differ in their first and last
    letters, is the insertion of y x^-1 before x: rotation 0 of the
    relator's inverse if x is the relator's left side (its first letter
    has the smaller index), else of the relator itself.
    """
    u, v = [], []
    for word, out in ((source, u), (target, v)):
        for g, e in word:
            if g.kind != "s" or e != 1:
                raise ScriptError(name, 0, f"{word} is not a positive sigma-word")
            out.append(g.index)
    if len(u) != len(v):
        raise ScriptError(name, 0, "positive words of different lengths are not equal")
    script: list[tuple[str, bool, int, int, BraidWord]] = []
    letter = {i: (sigma(i), 1) for i in {*u, *v}}

    def record(label: str, inverse: bool, position: int) -> None:
        script.append((label, inverse, 0, position,
                       _trusted_word(tuple(map(letter.__getitem__, u)))))

    for t in range(len(v), 0, -1):
        # make u[:t] end in s_(v[t-1]).  Tasks: ("pull", end, _, k) makes
        # u[:end] end in s_k; ("swap", end, j, k) and ("braid", end, j, k)
        # run once u[:end] ends in s_k s_j, resp. s_j s_k s_j
        tasks = [("pull", t, v[t - 1], v[t - 1])]
        while tasks:
            kind, end, j, k = tasks.pop()
            if kind == "pull":
                if end == 0:
                    raise ScriptError(name, len(script),
                                      f"s{k} does not right-divide what is left of {source}")
                j = u[end - 1]
                if j != k:
                    tasks += [("swap", end, j, k), ("pull", end - 1, k, k)]
            elif kind == "swap" and abs(j - k) >= 2:
                # s_k s_j -> s_j s_k
                u[end - 2 : end] = [j, k]
                record(f"comm_s_{min(j, k)}_{max(j, k)}", k < j, end - 2)
            elif kind == "swap":
                # u[:end] ends in s_k s_j; make the part before them end in s_j
                tasks += [("braid", end, j, k), ("pull", end - 2, j, j)]
            else:
                # s_j s_k s_j -> s_k s_j s_k
                u[end - 3 : end] = [k, j, k]
                record(f"braid_{min(j, k)}", j < k, end - 3)
    return script


class CertificateEngine:
    """Proves identities in van_buskirk(n) from a ladder of auxiliary lemmas.

    seed_all proves the lemmas once, in dependency order, each by a
    checked script (add_scripted_lemma).  A lemma becomes a single move
    for later scripts and is banked as its proof in items, using earlier
    lemmas by reference.  certify proves a claim by one move of its banked
    lemma; emitted certificates are flattened, so they never reference
    anything but the presentation's own relators.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("engine needs n >= 2")
        self.n = n
        self.presentation: Presentation = van_buskirk(n)
        self.lemmas: dict[str, Lemma] = {}
        self.relator_ids = van_buskirk_relator_labels(n)
        self._seeded = False

    # -- lemma plumbing -----------------------------------------------------

    def add_scripted_lemma(self, name: str, source: BraidWord, target: BraidWord,
                           script) -> Lemma:
        """Prove source = target from a script: steps (label, inverse,
        rotation, position, word) whose words run from source to target.

        A step names its move: it inserts rotation `rotation` of the lemma
        or relator named by label, or of its inverse, at position, and
        reduces freely (_move).  That must turn the current word into the
        stated one.  Words are compared as w target^-1, freely reduced, so
        the proof runs from the lemma relator to the empty word, and a
        position counts letters of that reduced word; a step whose word
        reduces to the current one needs no move.  The steps name the
        insertion that rewriting._hits, the one-move lookup, would find
        first, so certificates do not depend on whether moves are named or
        looked up.  A step that does not apply raises ScriptError.
        """
        tail = target.inverse()
        current = (source * tail).free_reduce()
        body = []
        for index, step in enumerate(script):
            following = (step[-1] * tail).free_reduce()
            body += self._move(name, index, step, current, following)
            current = following
        if current.letters:
            raise ScriptError(name, len(script), "the script does not end at the target")
        # _lemma_from_proof replays the proof items once, as it inverts them
        # into the build
        relator = source * tail
        proof = _derivation(self.presentation, relator, EMPTY, body)
        lemma = _lemma_from_proof(self.presentation, name, relator, proof)
        self.lemmas[name] = lemma
        return lemma

    def _move(self, name: str, index: int, step, current: BraidWord,
              following: BraidWord) -> list:
        """The items of step's named move, which must turn the freely
        reduced word current into following (none if they are equal), or
        ScriptError.  The move is applied once, with no table and no
        lookup.  A rotation outside label's word or a position outside
        current is refused first, before anything is inserted, and also
        where the step needs no move."""
        label, inverse, rotation, position, word = step
        source = self.lemmas.get(label)
        if source is not None:
            length = len(source.relator)
        elif label in self.relator_ids:
            source = self.relator_ids[label]
            length = len(self.presentation.relators[source])
        else:
            raise ScriptError(name, index, f"no lemma or relator {label}")
        if type(rotation) is not int or not 0 <= rotation < length:
            raise ScriptError(name, index, f"rotation {rotation!r} of {label} is outside "
                                           f"its {length} letters")
        if type(position) is not int or not 0 <= position <= len(current):
            raise ScriptError(name, index, f"position {position!r} is outside the current "
                                           f"word of {len(current)} letters")
        if following == current:
            return []
        letters = list(current.letters)
        items = _compile_move(self.presentation, letters, source, inverse, rotation, position)
        if tuple(letters) != following.letters:
            raise ScriptError(name, index, f"the named {label} move does not reach {word}")
        return items

    def _add_disc_lemma(self, name: str, source: BraidWord, target: BraidWord) -> Lemma:
        return self.add_scripted_lemma(name, source, target,
                                       _positive_script(name, source, target))

    # -- the seeding ladder -------------------------------------------------

    def seed(self) -> None:
        """The disc braid lemmas, the rho_j expansion and rho_n^-2.

        The chain shuffles chain_up_(n-1)_i ((s_1..s_(n-1)) s_i = s_(i+1)
        (s_1..s_(n-1))) and twist_conj_n_i (s_i Delta = Delta s_(n-i)) equate
        positive sigma-words and follow _positive_script.  rjr1_j is
        the induction rho_j = s_(j-1)^-1 rho_(j-1) s_(j-1)^-1 (sirisi_(j-1)),
        then the expansion of rho_(j-1) (rjr1_(j-1)).  With c = s_1..s_(n-1),
        rjr1_n reads rho_n^-1 = rev(c) rho_1^-1 c, so rn2 expands both
        rho_n^-1 (rjr1_n twice) and contracts c rev(c) = rho_1^2 (surface).
        """
        n = self.n
        c, d = _chain_up(sigma, 1, n - 1), half_twist(n)
        for i in range(1, n - 1):
            self._add_disc_lemma(f"chain_up_{n - 1}_{i}", c * _s(i), _s(i + 1) * c)
        for i in range(1, n):
            self._add_disc_lemma(f"twist_conj_{n}_{i}", _s(i) * d, d * _s(n - i))
        # rho_j expansion over sigma and rho_1
        for j in range(2, n + 1):
            script = [(f"sirisi_{j - 1}", True, 0, 0, _s(j - 1, -1) * _r(j - 1) * _s(j - 1, -1))]
            if j >= 3:
                script.append((f"rjr1_{j - 1}", True, 0, 1, rho_expanded(j)))
            self.add_scripted_lemma(f"rjr1_{j}", _r(j), rho_expanded(j), script)
        # rho_n^-2 in terms of the sigmas
        rev_c = _chain_down(sigma, n - 1, 1)
        expanded = rev_c * _r(1, -1) * c
        self.add_scripted_lemma("rn2", _r(n, -1) * _r(n, -1), rev_c * c, [
            (f"rjr1_{n}", False, 0, 1, expanded * _r(n, -1)),
            (f"rjr1_{n}", False, 0, 2 * n, expanded * expanded),
            ("surface", False, 0, n, rev_c * c),
        ])

    def seed_conjri(self) -> None:
        """Half twist conjugation of the rho generators, Delta^-1 rho_i Delta
        = rho_(n+1-i)^-1, by induction on i.

        Base: with c = s_1..s_(n-1) and D = Delta_(n-1), Delta = c D as
        words.  c^-1 rho_1 becomes rev(c) rho_1^-1 (surface), rev(c)
        rho_1^-1 c contracts to rho_n^-1 (rjr1_n), and rho_n^-1 commutes
        out through D one letter at a time (comm_sr_i_n), leaving
        D^-1 D rho_n^-1.  Step: with m = n - i, conjri_(i+1) is the script:
        expand rho_(i+1) = s_i^-1 rho_i s_i^-1 (sirisi_i), move the right
        s_i^-1 through Delta, where it becomes s_m^-1 (twist_conj_n_i),
        conjugate rho_i (conjri_i), move the left s_i^-1 through Delta, and
        contract s_m^-1 rho_(m+1)^-1 s_m^-1 = rho_m^-1 (sirisi_m).

        The named moves (see the module docstring) change where pieces
        cancel: s_1^-1 Delta at i = 1, where twist_conj_n_1 is not
        cyclically reduced either (it begins in s_1 and ends in s_1^-1),
        Delta s_1^-1 at m = 1, and the whole of Delta s_1^-1 at n = 2.
        """
        n = self.n
        d = half_twist(n)
        di = d.inverse()
        c, rev_c, dn1 = _chain_up(sigma, 1, n - 1), _chain_down(sigma, n - 1, 1), half_twist(n - 1)
        k = len(dn1)
        base = [("surface", True, 0, k + n - 1, dn1.inverse() * rev_c * _r(1, -1) * c * dn1),
                (f"rjr1_{n}", True, 0, k + 2 * n - 1, dn1.inverse() * _r(n, -1) * dn1)]
        for t, (g, _e) in enumerate(dn1.letters):
            base.append((f"comm_sr_{g.index}_{n}", True, 0, k - t + 1,
                         dn1.inverse() * _trusted_word(dn1.letters[: t + 1]) * _r(n, -1)
                         * _trusted_word(dn1.letters[t + 1 :])))
        self.add_scripted_lemma("conjri_1", di * _r(1) * d, _r(n, -1), base)
        k = len(d)
        for i in range(1, n):
            m = n - i
            self.add_scripted_lemma(f"conjri_{i + 1}", di * _r(i + 1) * d, _r(m, -1), [
                (f"sirisi_{i}", True, 0, k, di * _s(i, -1) * _r(i) * _s(i, -1) * d),
                (f"twist_conj_{n}_{i}", False, int(i == 1), k + 2 + (i > 1),
                 di * _s(i, -1) * _r(i) * d * _s(m, -1)),
                (f"conjri_{i}", True,
                 *((0, 1) if n == 2 else (1 + (m == 1), 2 * k + 2 - (m == 1))),
                 di * _s(i, -1) * d * _r(m + 1, -1) * _s(m, -1)),
                (f"twist_conj_{n}_{i}", False, int(i == 1), k + 1 - (i == 1),
                 _s(m, -1) * _r(m + 1, -1) * _s(m, -1)),
                (f"sirisi_{m}", False, 0, 2, _r(m, -1)),
            ])

    def seed_permute(self) -> None:
        """Cyclic conjugation of the generators by a^-1, where a = c^-1 rho_1
        and c = s_1..s_(n-1).

        permute_sigma_i: c s_i = s_(i+1) c (chain_up_(n-1)_i), then rho_1
        commutes with s_(i+1) (comm_sr_(i+1)_1).  permute_rho_1: in
        rho_1^-1 c rho_1 c^-1 rho_1 the middle rho_1 commutes left past
        s_(n-1), ..., s_2 (comm_sr_j_1), and the rest, rho_1^-1 s_1 rho_1
        s_1^-1 rho_1 = rho_2, is the core permute_rho_core, the same
        script at every n: rho_1^-1 s_1 = s_1^-1 rho_2^-1 and s_1^-1 rho_1 =
        rho_2 s_1 (sirisi_1), rho_2^-1 rho_1 rho_2 s_1 = rho_1 s_1^-1
        (rhocomm_1), and s_1^-1 rho_1 s_1^-1 = rho_2 (sirisi_1).  For
        i >= 2, permute_rho_i, a^-1 rho_i a = rho_(i+1), is the induction:
        expand rho_i = s_(i-1)^-1 rho_(i-1) s_(i-1)^-1 (sirisi_(i-1)), move
        the left s_(i-1)^-1 through a^-1, where it becomes s_i^-1
        (permute_sigma_(i-1)), then rho_(i-1) (permute_rho_(i-1)), then the
        right s_(i-1)^-1, and contract s_i^-1 rho_i s_i^-1 = rho_(i+1)
        (sirisi_i).  permute_rho_wrap expands rho_n (rjr1_n), which leaves
        (c rev(c))^-1 rho_1 = rho_1^-1 (surface).
        """
        n = self.n
        a = element_a(n)
        ai = a.inverse()
        c, ci = _chain_up(sigma, 1, n - 1), _chain_down(sigma, n - 1, 1, -1)
        for i in range(1, n - 1):
            self.add_scripted_lemma(f"permute_sigma_{i}", ai * _s(i) * a, _s(i + 1), [
                (f"chain_up_{n - 1}_{i}", True, 0, 1, _r(1, -1) * _s(i + 1) * c * a),
                (f"comm_sr_{i + 1}_1", True, 0, 1, _s(i + 1)),
            ])
        self.add_scripted_lemma("permute_rho_core", _r(1, -1) * _s(1) * _r(1) * _s(1, -1) * _r(1),
                                _r(2), [
            ("sirisi_1", True, 0, 2, _s(1, -1) * _r(2, -1) * _r(1) * _s(1, -1) * _r(1)),
            ("sirisi_1", False, 0, 3, _s(1, -1) * _r(2, -1) * _r(1) * _r(2) * _s(1)),
            ("rhocomm_1", False, 0, 4, _s(1, -1) * _r(1) * _s(1, -1)),
            ("sirisi_1", False, 0, 0, _r(2)),
        ])
        script = [(f"comm_sr_{j}_1", True, 0, j, _r(1, -1) * _chain_up(sigma, 1, j - 1) * _r(1)
                   * _chain_up(sigma, j, n - 1) * a) for j in range(n - 1, 1, -1)]
        script.append(("permute_rho_core", True, 0, 0, _r(2)))
        self.add_scripted_lemma("permute_rho_1", ai * _r(1) * a, _r(2), script)
        for i in range(2, n):
            self.add_scripted_lemma(f"permute_rho_{i}", ai * _r(i) * a, _r(i + 1), [
                (f"sirisi_{i - 1}", True, 0, n,
                 ai * _s(i - 1, -1) * _r(i - 1) * _s(i - 1, -1) * a),
                (f"permute_sigma_{i - 1}", False, n, n + 1,
                 _s(i, -1) * ai * _r(i - 1) * _s(i - 1, -1) * a),
                (f"permute_rho_{i - 1}", True, 0, 1, _s(i, -1) * _r(i) * ai * _s(i - 1, -1) * a),
                (f"permute_sigma_{i - 1}", False, 0, 2 * n + 3, _s(i, -1) * _r(i) * _s(i, -1)),
                (f"sirisi_{i}", False, 0, 0, _r(i + 1)),
            ])
        self.add_scripted_lemma("permute_rho_wrap", ai * _r(n) * a, _r(1, -1), [
            (f"rjr1_{n}", True, 0, n, ai * rho_expanded(n) * ci * _r(1)),
            ("surface", True, 0, 2 * n - 2, _r(1, -1)),
        ])

    def seed_power(self) -> None:
        """The power formulas a^n = rho_n..rho_1 and b^(n-1) = rho_(n-1)..rho_1.

        Write m = N_0 rho_1 for the generator with k copies (m = a, k = n or
        m = b, k = n - 1), where N_j = (s_(j+1)..s_(k-1))^-1, and block_j =
        N_j s_j..s_1.  powstep_j, (rho_j..rho_1) m = block_j
        (rho_(j+1)..rho_1), is an induction on j: powstep_(j-1) turns
        rho_j (rho_(j-1)..rho_1) m into rho_j block_(j-1) (rho_j..rho_1);
        rho_j commutes right past N_j (comm_sr_i_j), rho_j s_j^-1 becomes
        s_j rho_(j+1) (sirisi_j), and rho_(j+1) commutes right past
        s_(j-1)..s_1 (comm_sr_i_(j+1)).  powerab absorbs one m at a time
        (k - 1 powsteps), leaving block_0..block_(k-1) (rho_k..rho_1).  With
        suffix(j) the product of the ascending runs (s_i..s_(i+k-1-j)) for
        i = j..1, block_(k-1) = suffix(k-1), and the disc lemma jstep_k_j,
        (s_j..s_1) suffix(j+1) = (s_(j+1)..s_(k-1)) suffix(j), peels
        block_j suffix(j+1) to suffix(j) for j = k-2..1; N_0 suffix(1) is
        freely trivial.  The jstep lemmas follow _positive_script.

        At j = 1 the sirisi_j step is the last of powstep_j, and what it
        rewrites runs on into the part cancelled against the target, so
        its move is rotation 0 one letter later than rotation 1 would be.
        """
        n = self.n

        def suffix(k: int, j: int) -> BraidWord:
            # product of ascending runs (s_i .. s_(i+k-1-j)) for i = j..1
            return _trusted_word(tuple((sigma(t), 1) for i in range(j, 0, -1)
                                       for t in range(i, i + k - j)))

        for name, m, k in (("a", element_a(n), n), ("b", element_b(n), n - 1)):
            def block(j: int) -> BraidWord:
                return _chain_down(sigma, k - 1, j + 1, -1) * _chain_down(sigma, j, 1)

            for j in range(1, k - 1):
                # peel step: (s_j..s_1) suffix(j+1) = (s_(j+1)..s_(k-1)) suffix(j)
                self._add_disc_lemma(
                    f"jstep_{k}_{j}",
                    _chain_down(sigma, j, 1) * suffix(k, j + 1),
                    _chain_up(sigma, j + 1, k - 1) * suffix(k, j),
                )
            for j in range(1, k):
                # absorb step: (rho_j..rho_1) m = block_j (rho_(j+1)..rho_1)
                rho_j = _chain_down(rho, j, 1)
                script = []
                if j >= 2:
                    script.append((f"powstep_{name}_{j - 1}", True, 0, 1,
                                   _r(j) * block(j - 1) * rho_j))
                for i in range(k - 1, j, -1):
                    script.append((f"comm_sr_{i}_{j}", True, 1, k + 1 - i,
                                   _chain_down(sigma, k - 1, i, -1) * _r(j)
                                   * _chain_down(sigma, i - 1, j, -1) * _chain_down(sigma, j - 1, 1)
                                   * rho_j))
                script.append((f"sirisi_{j}", False, int(j > 1), k + 1 - j + (j == 1),
                               _chain_down(sigma, k - 1, j + 1, -1) * _s(j)
                               * _r(j + 1) * _chain_down(sigma, j - 1, 1) * rho_j))
                for i in range(j - 1, 0, -1):
                    script.append((f"comm_sr_{i}_{j + 1}", False, 0, k - 1 - i,
                                   _chain_down(sigma, k - 1, j + 1, -1)
                                   * _chain_down(sigma, j, i) * _r(j + 1)
                                   * _chain_down(sigma, i - 1, 1) * rho_j))
                self.add_scripted_lemma(f"powstep_{name}_{j}", rho_j * m,
                                        block(j) * _chain_down(rho, j + 1, 1), script)
            blocks = [EMPTY]  # blocks[j] = block_0..block_(j-1)
            for j in range(k):
                blocks.append(blocks[-1] * block(j))
            power = _chain_down(rho, k, 1)
            script = [(f"powstep_{name}_{j}", True, 0, j * (k - 1),
                       blocks[j + 1] * _chain_down(rho, j + 1, 1) * m ** (k - 1 - j))
                      for j in range(1, k)]
            script += [(f"jstep_{k}_{j}", True, 0, j * (k - 1) + k - 1 - j,
                        blocks[j] * suffix(k, j) * power) for j in range(k - 2, 0, -1)]
            self.add_scripted_lemma(f"powerab_{name}", m**k, power, script)

    def seed_invsig(self) -> None:
        """Conjugation by w = rho_n..rho_1 inverts every sigma generator.

        The local core invsig_mid_j, (rho_(j+1) rho_j)^-1 s_j (rho_(j+1)
        rho_j) = s_j^-1, is the same script at every n: s_j rho_(j+1) =
        rho_j s_j^-1 (sirisi_j), rho_j^-1 rho_(j+1)^-1 rho_j = s_j^-2
        rho_(j+1)^-1 (rhocomm_j), and s_j^-2 rho_(j+1)^-1 s_j^-1 rho_j
        contracts to s_j^-1 (sirisi_j).  invsig_j commutes s_j right past
        rho_n, ..., rho_(j+2) (comm_sr_j_m), applies the core, and commutes
        s_j^-1 right past rho_(j-1), ..., rho_1.
        """
        n = self.n
        w = _chain_down(rho, n, 1)
        for j in range(1, n):
            core = _r(j + 1) * _r(j)
            self.add_scripted_lemma(f"invsig_mid_{j}", core.inverse() * _s(j) * core, _s(j, -1), [
                (f"sirisi_{j}", True, 0, 3, _r(j, -1) * _r(j + 1, -1) * _r(j) * _s(j, -1) * _r(j)),
                (f"rhocomm_{j}", False, 1, 3,
                 _s(j, -1) * _s(j, -1) * _r(j + 1, -1) * _s(j, -1) * _r(j)),
                (f"sirisi_{j}", False, 0, 3, _s(j, -1)),
            ])
            script = [(f"comm_sr_{j}_{m}", True, 0, m, w.inverse() * _chain_down(rho, n, m) * _s(j)
                       * _chain_down(rho, m - 1, 1)) for m in range(n, j + 1, -1)]
            low = _chain_down(rho, j - 1, 1)
            script.append((f"invsig_mid_{j}", True, 0, j - 1, low.inverse() * _s(j, -1) * low))
            script += [(f"comm_sr_{j}_{m}", False, 0, m + 1,
                        low.inverse() * _chain_down(rho, j - 1, m) * _s(j, -1)
                        * _chain_down(rho, m - 1, 1)) for m in range(j - 1, 0, -1)]
            self.add_scripted_lemma(f"invsig_{j}", w.inverse() * _s(j) * w, _s(j, -1), script)

    def seed_delta(self) -> None:
        """Half twist facts: palindromicity, conjugation against w =
        rho_n..rho_1, the order-4 relation, the two dicyclic relations, and
        the sigma wrap-around entry of the cyclic conjugation table.

        pal_n, rev(Delta) = Delta, follows _positive_script.  conjw,
        Delta^-1 w Delta = w^-1, moves Delta^-1 right past rho_n, ..., rho_1,
        each becoming rho_1^-1, ..., rho_n^-1 (conjri_n, ..., conjri_1).
        mirror, w^-1 Delta w = Delta^-1, is a script of |Delta| + 1 steps,
        an induction on the letters of Delta: after k steps the word is
        s_(j1)^-1..s_(jk)^-1 w^-1 s_(j(k+1))..s_(jm) w, and step k + 1 moves
        the next letter out by w^-1 s_j w = s_j^-1 (invsig_j).  That leaves
        rev(Delta)^-1, which is Delta^-1 by pal_n for n >= 4; for n <= 3,
        rev(Delta) is Delta letter for letter and no step is stated.
        delta4, Delta^4 = 1:
        Delta = w Delta w (conjw), Delta w Delta = w (mirror), w Delta =
        Delta w^-1 (conjw) and w Delta w^-1 Delta = 1 (mirror).

        The wrap-around entry a^-2 s_(n-1) a^2 = s_1^-1 comes from a^n = w:
        it is a^(n-2) (w^-1 s_(n-1) w) a^-(n-2) (powerab_a twice), that is
        a^(n-2) s_(n-1)^-1 a^-(n-2) (invsig_(n-1)), and a^m s_(m+1)^-1 a^-m
        = a^(m-1) s_m^-1 a^-(m-1) (permute_sigma_m) for m = n-2, ..., 1.

        realdic_a moves a's sigma letters through Delta (twist_conj_n_i),
        conjugates rho_1 (conjri_n) and contracts the rest (rjr1_n);
        dconj_b does the same for a^-1 b a, which bconj gets letter by
        letter (permute_sigma_i, permute_rho_1), and realdic_b chains
        bconj, dconj_b and rjr1_(n-1).

        The named moves of permute_sigma_wrap allow for the rho_1 rho_1^-1
        that cancels where a^(n-2) meets w^-1, for n >= 3; at n = 2 that
        power is empty.  Those of realdic_a and dconj_b allow for the s_1
        that cancels in (s_1..s_(u-1))^-1 Delta at u = 2 in the current word,
        in Delta s_(n-1-u)^-1 at u = n - 2 in the next word and at u = n - 1
        in the current one, and for twist_conj_n_1, which is not cyclically
        reduced.
        """
        n = self.n
        a = element_a(n)
        ai = a.inverse()
        delta = half_twist(n)
        di = delta.inverse()
        w = _chain_down(rho, n, 1)
        wi = w.inverse()
        half = len(delta)
        self._add_disc_lemma(f"pal_{n}", _trusted_word(tuple(reversed(delta.letters))), delta)
        # conjugation of w = rho_n..rho_1 by the half twist inverts it
        self.add_scripted_lemma("conjw", di * w * delta, wi, [
            (f"conjri_{n + 1 - t}", True, 0, t - 1,
             _chain_up(rho, 1, t, -1) * di * _chain_down(rho, n - t, 1) * delta)
            for t in range(1, n + 1)
        ])
        # w conjugates the half twist to its inverse (see the docstring)
        script = []
        for k, (g, _e) in enumerate(delta.letters):
            inverted = _trusted_word(tuple((h, -e) for h, e in delta.letters[: k + 1]))
            script.append((f"invsig_{g.index}", True, 0, k,
                           inverted * wi * _trusted_word(delta.letters[k + 1 :]) * w))
        if delta.letters[::-1] != delta.letters:  # n >= 4
            script.append((f"pal_{n}", False, 2, half - 2, di))
        self.add_scripted_lemma("mirror", wi * delta * w, di, script)
        self.add_scripted_lemma("delta4", delta**4, EMPTY, [
            ("conjw", False, 0, half, w * delta * w * delta**3),
            ("mirror", True, 0, 2 * half + 2 * n, w * w * delta * delta),
            ("conjw", True, n, half + 2 * n, w * delta * wi * delta),
            ("mirror", True, 0, half + n, EMPTY),
        ])
        # wrap-around entry (see the docstring)
        script = [("powerab_a", False, 0, 2 * n, a ** (n - 2) * wi * _s(n - 1) * a * a),
                  ("powerab_a", True, *((1, 4) if n == 2 else (n * n - n, n * n + n - 3)),
                   a ** (n - 2) * wi * _s(n - 1) * w * ai ** (n - 2)),
                  (f"invsig_{n - 1}", True, *((0, 0) if n == 2 else (2, n * n - 2)),
                   a ** (n - 2) * _s(n - 1, -1) * ai ** (n - 2))]
        script += [(f"permute_sigma_{m}", True, 0, n * m + 1,
                    a ** (m - 1) * _s(m, -1) * ai ** (m - 1)) for m in range(n - 2, 0, -1)]
        self.add_scripted_lemma("permute_sigma_wrap", ai * ai * _s(n - 1) * a * a, _s(1, -1),
                                script)
        script = [(f"twist_conj_{n}_{u}", True,
                   *((1, 0) if u == 1 else
                     (half - (u == n - 2),
                      half + u + (u == n - 2) - 2 * (u == 2) - 2 * (u == n - 1))),
                   _chain_up(sigma, 1, u, -1) * delta * _chain_down(sigma, n - 1 - u, 1, -1)
                   * _r(1) * di * a) for u in range(1, n)]
        script += [(f"conjri_{n}", True, 0, half + n - 2 * (n == 2),
                    _chain_up(sigma, 1, n - 1, -1) * _r(n, -1) * a),
                   (f"rjr1_{n}", False, 0, n, EMPTY)]
        self.add_scripted_lemma("realdic_a", delta * a * di * a, EMPTY, script)
        b = element_b(n)
        da = delta * ai
        shifted_b = _chain_down(sigma, n - 1, 2, -1) * _r(2)
        script = [(f"permute_sigma_{i}", False, n, 2 * n - 1 - i,
                   _chain_down(sigma, n - 1, i + 1, -1) * ai * _chain_down(sigma, i - 1, 1, -1)
                   * _r(1) * a) for i in range(n - 2, 0, -1)]
        script.append(("permute_rho_1", True, 0, n - 2, shifted_b))
        self.add_scripted_lemma("bconj", ai * b * a, shifted_b, script)
        dconj_target = _chain_up(sigma, 1, n - 2, -1) * _r(n - 1, -1)
        script = [(f"twist_conj_{n}_{u}", True,
                   *((1, 0) if u == 1 else (half, half + u - 2 * (u == 2))),
                   _chain_up(sigma, 1, u, -1) * delta * _chain_down(sigma, n - 1 - u, 2, -1)
                   * _r(2) * di) for u in range(1, n - 1)]
        script.append((f"conjri_{n - 1}", True, 0, half + n - 1 - 2 * (n == 3), dconj_target))
        self.add_scripted_lemma("dconj_b", delta * shifted_b * di, dconj_target, script)
        script = [("bconj", True, 0, half, delta * shifted_b * di * b),
                  ("dconj_b", True, 0, 0, dconj_target * b)]
        if n >= 3:
            script.append((f"rjr1_{n - 1}", False, 0, n - 1, EMPTY))
        self.add_scripted_lemma("realdic_b", da * b * da.inverse() * b, EMPTY, script)

    def seed_all(self) -> None:
        """Prove the whole ladder, once: each stage uses the lemmas of the
        stages before it."""
        if self._seeded:
            return
        for stage in (self.seed, self.seed_conjri, self.seed_permute, self.seed_power,
                      self.seed_invsig, self.seed_delta):
            stage()
        self._seeded = True

    # -- claim certification ------------------------------------------------

    def certify(self, claim: Claim) -> Derivation:
        """A certificate for claim: one checked move of its banked lemma
        from the freely reduced source to the freely reduced target, none
        if they are equal, flattened and replayed against the bare
        presentation.  The lemma's relator is the claim's source times its
        target^-1, so the move inserts its inverse, target source^-1, at
        rotation 0 in front of the source."""
        self.seed_all()
        source, target = claim.source.free_reduce(), claim.target.free_reduce()
        body = [] if source == target else \
            self._move(claim.label, 0, (claim.label, True, 0, 0, claim.target), source, target)
        return _checked_derivation(self.presentation, claim.source, claim.target, body)

    def certify_all(self) -> dict[str, Derivation]:
        return {claim.label: self.certify(claim) for claim in paper_claims(self.n)}
