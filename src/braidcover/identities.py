"""The canned identity claims in the braid group of the projective plane,
and a certificate engine that proves them.

Claims are pairs of words (source, target) asserted equal in van_buskirk(n).
The engine proves them with the rewriting search, seeded with a ladder of
auxiliary identities (disc braid shuffles, half twist conjugation, the
rho_j expansion) proved in dependency order.  The ladder is part scripted
and part searched: the inductive steps (conjri_i and permute_rho_i for
i >= 2, and mirror) follow a script of single lemma or relator moves that
is checked, not searched; the bases and the disc braid lemmas are found by
search.  Each auxiliary identity is compiled down to presentation relators
at registration time, so every certificate the engine emits replays
against the bare presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import (
    Presentation,
    _chain_down,
    _chain_up,
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
    NotFound,
    SearchBudget,
    SearchStats,
    _checked_derivation,
    _compile_path,
    _lemma_from_proof,
    _move_cost,
    _MoveTable,
    _splice,
    find_equality,
)
from .words import EMPTY, BraidWord, gen_word, rho, sigma


def _s(i: int, e: int = 1) -> BraidWord:
    return gen_word(sigma(i), e)


def _r(j: int, e: int = 1) -> BraidWord:
    return gen_word(rho(j), e)


@dataclass(frozen=True)
class Claim:
    label: str
    source: BraidWord
    target: BraidWord


def paper_claims(n: int) -> list[Claim]:
    """The identity corpus for van_buskirk(n): the rho_j expansions, the
    rho_n^-2 identity, the power formulas for a and b, half twist
    conjugation of the rho generators, the cyclic conjugation tables for
    a, the two dicyclic conjugation relations, and Delta^4 = 1."""
    if n < 2:
        raise ValueError("claims need n >= 2")
    a = element_a(n)
    b = element_b(n)
    delta = half_twist(n)
    claims: list[Claim] = []
    for j in range(1, n + 1):
        claims.append(Claim(f"rjr1_{j}", _r(j), rho_expanded(j)))
    claims.append(Claim("rn2", _r(n, -1) * _r(n, -1),
                        _chain_down(sigma, n - 1, 2) * _s(1) * _s(1) * _chain_up(sigma, 2, n - 1)))
    claims.append(Claim("powerab_a", a**n, _chain_down(rho, n, 1)))
    claims.append(Claim("powerab_b", b ** (n - 1), _chain_down(rho, n - 1, 1)))
    for i in range(1, n + 1):
        claims.append(Claim(f"conjri_{i}", delta.inverse() * _r(i) * delta, _r(n + 1 - i, -1)))
    ai = a.inverse()
    for i in range(1, n - 1):
        claims.append(Claim(f"permute_sigma_{i}", ai * _s(i) * a, _s(i + 1)))
    claims.append(Claim("permute_sigma_wrap", ai * ai * _s(n - 1) * a * a, _s(1, -1)))
    for i in range(1, n):
        claims.append(Claim(f"permute_rho_{i}", ai * _r(i) * a, _r(i + 1)))
    claims.append(Claim("permute_rho_wrap", ai * _r(n) * a, _r(1, -1)))
    claims.append(Claim("realdic_a", delta * a * delta.inverse() * a, EMPTY))
    da = delta * ai
    claims.append(Claim("realdic_b", da * b * da.inverse() * b, EMPTY))
    claims.append(Claim("delta4", delta**4, EMPTY))
    return claims


class ScriptError(ValueError):
    """Raised when a lemma script step does not apply: no insertion of the
    step's lemma or relator turns the current word into the stated one."""

    def __init__(self, lemma: str, step: int, message: str):
        super().__init__(f"lemma {lemma}: script step {step}: {message}")
        self.lemma = lemma
        self.step = step


@dataclass(frozen=True)
class LemmaRecord:
    """How the engine proved a lemma: "scripted" (no search) or
    "searched", with the search's candidates and expanded nodes."""

    method: str
    candidates: int = 0
    expanded: int = 0


class CertificateEngine:
    """Proves identities in van_buskirk(n) from a ladder of auxiliary lemmas.

    Lemmas are proved in dependency order, the inductive steps by script
    (add_scripted_lemma) and the rest by seeded certificate search
    (add_lemma).  Each becomes a single search move for later proofs but
    is stored compiled to presentation-level steps, so emitted
    certificates never reference anything but the presentation's own
    relators.  records says how each lemma was proved.
    """

    def __init__(self, n: int, budget: SearchBudget | None = None):
        if n < 2:
            raise ValueError("engine needs n >= 2")
        self.n = n
        self.presentation: Presentation = van_buskirk(n)
        self.budget = budget if budget is not None else SearchBudget()
        self.lemmas: dict[str, Lemma] = {}
        self.records: dict[str, LemmaRecord] = {}
        self.relator_ids = van_buskirk_relator_labels(n)
        self._seeded = False

    # -- lemma plumbing -----------------------------------------------------

    def _bank(self, use) -> tuple[Lemma, ...]:
        if use is None:
            return tuple(self.lemmas.values())
        return tuple(self.lemmas[name] for name in use)

    def _relator_subset(self, relators):
        if relators is None:
            return None
        out = set()
        for label in relators:
            # a family may be empty at small n (e.g. no comm_s below n=4)
            out.update(i for key, i in self.relator_ids.items()
                       if key == label or key.startswith(label + "_"))
        return out

    def _store(self, name: str, proof: Derivation, record: LemmaRecord) -> Lemma:
        lemma = _lemma_from_proof(self.presentation, name, proof)
        self.lemmas[name] = lemma
        self.records[name] = record
        return lemma

    def prove(self, source: BraidWord, target: BraidWord, use=None,
              budget: SearchBudget | None = None, relators=None,
              stats: list[SearchStats] | None = None) -> Derivation:
        return find_equality(
            self.presentation,
            source,
            target,
            budget if budget is not None else self.budget,
            self._bank(use),
            self._relator_subset(relators),
            stats,
        )

    def add_lemma(self, name: str, source: BraidWord, target: BraidWord,
                  use=None, budget: SearchBudget | None = None,
                  relators=None) -> Lemma:
        """Prove source = target by search over the lemmas in use and the
        relator families in relators."""
        if name in self.lemmas:
            return self.lemmas[name]
        stats: list[SearchStats] = []
        try:
            proof = self.prove(source * target.inverse(), EMPTY, use, budget, relators, stats)
        except NotFound as exc:
            raise NotFound(exc.stats, name) from None
        return self._store(name, proof, LemmaRecord("searched", stats[0].candidates,
                                                    stats[0].expanded))

    def add_scripted_lemma(self, name: str, source: BraidWord, target: BraidWord,
                           script) -> Lemma:
        """Prove source = target from a script: (label, word) pairs whose
        words run from source to target.

        A step inserts one rotation of the lemma or relator named by label,
        or of its inverse, and reduces freely; it must turn the current word
        into the stated one.  Words are compared as w target^-1, freely
        reduced, so the proof runs from the lemma relator to the empty word.
        Every move of the label is tried at every position: a bounded check,
        not a search.  A step that does not apply raises ScriptError.
        """
        if name in self.lemmas:
            return self.lemmas[name]
        tail = target.inverse()
        current = (source * tail).free_reduce()
        body = []
        for index, (label, word) in enumerate(script):
            if label in self.lemmas:
                table = _MoveTable(self.presentation, (self.lemmas[label],), ())
            elif label in self.relator_ids:
                table = _MoveTable(self.presentation, (), (self.relator_ids[label],))
            else:
                raise ScriptError(name, index, f"no lemma or relator {label}")
            following = (word * tail).free_reduce()
            w, goal = table.encode(current), table.encode(following)
            hits = [(mi, q) for q in range(len(w) + 1)
                    for mi, mv in enumerate(table.reduced) if _splice(w, q, mv) == goal]
            if not hits:
                raise ScriptError(name, index, f"no {label} move reaches {word}")
            # every hit lands on the same word; take the one that compiles shortest
            mi, q = min(hits, key=lambda hit: _move_cost(table, hit[0]))
            body += _compile_path(table, current, [(mi, q, current)])
            current = following
        if current.letters:
            raise ScriptError(name, len(script), "the script does not end at the target")
        proof = _checked_derivation(self.presentation, source * tail, EMPTY, body)
        return self._store(name, proof, LemmaRecord("scripted"))

    # -- the seeding ladder -------------------------------------------------

    def seed(self) -> None:
        """Prove the auxiliary identity ladder, in dependency order."""
        if self._seeded:
            return
        n = self.n
        add = self.add_lemma

        # ascending-chain shuffle: (s1..sk) si = s(i+1) (s1..sk)
        for k in range(2, n):
            for i in range(1, k):
                add(
                    f"chain_up_{k}_{i}",
                    _chain_up(sigma, 1, k) * _s(i),
                    _s(i + 1) * _chain_up(sigma, 1, k),
                    use=[],
                    relators=["comm_s", "braid"],
                )
        # descending-chain shuffle: (s(k-1)..s1) sj = s(j-1) (s(k-1)..s1)
        for k in range(3, n + 1):
            for j in range(2, k):
                add(
                    f"chain_down_{k}_{j}",
                    _chain_down(sigma, k - 1, 1) * _s(j),
                    _s(j - 1) * _chain_down(sigma, k - 1, 1),
                    use=[],
                    relators=["comm_s", "braid"],
                )
        # half twist recursion and conjugation
        for k in range(2, n + 1):
            dk = half_twist(k)
            if k >= 3:
                add(
                    f"twist_split_{k}",
                    dk,
                    half_twist(k - 1) * _chain_down(sigma, k - 1, 1),
                    use=[f"chain_up_{kk}_{i}" for kk in range(2, k) for i in range(1, kk)],
                    relators=["comm_s", "braid"],
                )
            for i in range(1, k):
                deps = [f"twist_split_{k}"] if k >= 3 else []
                deps += [f"twist_conj_{k - 1}_{j}" for j in range(1, k - 1)]
                deps += [f"chain_down_{k}_{j}" for j in range(2, k)]
                deps += [f"chain_up_{kk}_{j}" for kk in range(2, k) for j in range(1, kk)]
                add(
                    f"twist_conj_{k}_{i}",
                    dk.inverse() * _s(i) * dk,
                    _s(k - i),
                    use=deps,
                    relators=["comm_s", "braid"],
                )
        # rho_j expansion over sigma and rho_1
        for j in range(2, n + 1):
            add(
                f"rjr1_{j}",
                _r(j),
                rho_expanded(j),
                use=[f"rjr1_{j - 1}"] if j >= 3 else [],
                relators=["sirisi", "comm_sr", "comm_s"],
            )
        # rho_n^-2 in terms of the sigmas
        add(
            "rn2",
            _r(n, -1) * _r(n, -1),
            _chain_down(sigma, n - 1, 2) * _s(1) * _s(1) * _chain_up(sigma, 2, n - 1),
            use=[f"rjr1_{j}" for j in range(2, n + 1)],
            relators=["surface", "sirisi", "comm_sr", "comm_s"],
        )
        self._seeded = True

    def seed_conjri(self) -> None:
        """Half twist conjugation of the rho generators, Delta^-1 rho_i Delta
        = rho_(n+1-i)^-1, by induction on i.

        The base conjri_1 is searched.  With m = n - i, conjri_(i+1) is the
        script: expand rho_(i+1) = s_i^-1 rho_i s_i^-1 (sirisi_i), move the
        right s_i^-1 through Delta, where it becomes s_m^-1 (twist_conj_n_i),
        conjugate rho_i (conjri_i), move the left s_i^-1 through Delta, and
        contract s_m^-1 rho_(m+1)^-1 s_m^-1 = rho_m^-1 (sirisi_m).
        """
        self.seed()
        n = self.n
        d = half_twist(n)
        di = d.inverse()
        base_deps = [f"rjr1_{j}" for j in range(2, n + 1)] + ["rn2"]
        base_deps += [f"twist_conj_{n}_{i}" for i in range(1, n)]
        if n >= 3:
            base_deps += [f"twist_split_{n}"]
        self.add_lemma(
            "conjri_1",
            di * _r(1) * d,
            _r(n, -1),
            use=base_deps,
            relators=["surface", "sirisi", "comm_sr", "comm_s"],
        )
        for i in range(1, n):
            m = n - i
            self.add_scripted_lemma(f"conjri_{i + 1}", di * _r(i + 1) * d, _r(m, -1), [
                (f"sirisi_{i}", di * _s(i, -1) * _r(i) * _s(i, -1) * d),
                (f"twist_conj_{n}_{i}", di * _s(i, -1) * _r(i) * d * _s(m, -1)),
                (f"conjri_{i}", di * _s(i, -1) * d * _r(m + 1, -1) * _s(m, -1)),
                (f"twist_conj_{n}_{i}", _s(m, -1) * _r(m + 1, -1) * _s(m, -1)),
                (f"sirisi_{m}", _r(m, -1)),
            ])

    def seed_permute(self) -> None:
        """Cyclic conjugation of the generators by a^-1.

        The sigma entries follow from the ascending-chain shuffle in two
        moves, and permute_rho_1 is searched.  For i >= 2, permute_rho_i,
        a^-1 rho_i a = rho_(i+1), is the inductive script: expand rho_i =
        s_(i-1)^-1 rho_(i-1) s_(i-1)^-1 (sirisi_(i-1)), move the left
        s_(i-1)^-1 through a^-1, where it becomes s_i^-1 (permute_sigma_(i-1)),
        then rho_(i-1) (permute_rho_(i-1)), then the right s_(i-1)^-1, and
        contract s_i^-1 rho_i s_i^-1 = rho_(i+1) (sirisi_i).  Both wrap
        entries come down to the surface relation via the rho_j expansion.
        """
        self.seed_conjri()
        n = self.n
        a = element_a(n)
        ai = a.inverse()
        for i in range(1, n - 1):
            self.add_lemma(
                f"permute_sigma_{i}",
                ai * _s(i) * a,
                _s(i + 1),
                use=[f"chain_up_{n - 1}_{i}"],
                relators=[f"comm_sr_{i + 1}_1"],
            )
        self.add_lemma(
            "permute_rho_1",
            ai * _r(1) * a,
            _r(2),
            use=[],
            relators=[f"comm_sr_{j}_1" for j in range(2, n)]
            + ["sirisi_1", "rhocomm_1"],
        )
        for i in range(2, n):
            self.add_scripted_lemma(f"permute_rho_{i}", ai * _r(i) * a, _r(i + 1), [
                (f"sirisi_{i - 1}", ai * _s(i - 1, -1) * _r(i - 1) * _s(i - 1, -1) * a),
                (f"permute_sigma_{i - 1}", _s(i, -1) * ai * _r(i - 1) * _s(i - 1, -1) * a),
                (f"permute_rho_{i - 1}", _s(i, -1) * _r(i) * ai * _s(i - 1, -1) * a),
                (f"permute_sigma_{i - 1}", _s(i, -1) * _r(i) * _s(i, -1)),
                (f"sirisi_{i}", _r(i + 1)),
            ])
        self.add_lemma(
            "permute_rho_wrap",
            ai * _r(n) * a,
            _r(1, -1),
            use=[f"rjr1_{n}"],
            relators=["surface"],
        )

    def seed_power(self) -> None:
        """The power formulas a^n = rho_n..rho_1 and b^(n-1) = rho_(n-1)..rho_1.

        Each power telescopes: rho_j..rho_1 absorbs one copy of the
        generator, emitting a block of sigmas.  The accumulated sigma word
        is trivial in the disc braid group; it peels off block by block,
        each peel resting on "slide" shuffles of ascending runs.
        """
        self.seed_permute()
        n = self.n
        # slide_i_x:  s_i (s_(i+1)..s_x) (s_i..s_(x-1)) = (s_(i+1)..s_x) (s_i..s_x)
        for x in range(2, n):
            for i in range(1, x):
                self.add_lemma(
                    f"slide_{i}_{x}",
                    _s(i) * _chain_up(sigma, i + 1, x) * _chain_up(sigma, i, x - 1),
                    _chain_up(sigma, i + 1, x) * _chain_up(sigma, i, x),
                    use=[f"slide_{i}_{x - 1}"] if x - 1 > i else [],
                    relators=["comm_s", "braid"],
                )

        def suffix(k: int, j: int) -> BraidWord:
            # product of ascending runs (s_i .. s_(i+k-1-j)) for i = j..1
            w = EMPTY
            for i in range(j, 0, -1):
                w = w * _chain_up(sigma, i, i + k - 1 - j)
            return w

        for name, m, k in (("a", element_a(n), n), ("b", element_b(n), n - 1)):
            if k < 2:
                self.add_lemma(f"powerab_{name}", m**k, _chain_down(rho, k, 1), use=[])
                continue
            for j in range(1, k):
                # peel step: (s_j..s_1) suffix(j+1) = (s_(j+1)..s_(k-1)) suffix(j)
                self.add_lemma(
                    f"jstep_{k}_{j}",
                    _chain_down(sigma, j, 1) * suffix(k, j + 1),
                    _chain_up(sigma, j + 1, k - 1) * suffix(k, j),
                    use=[f"slide_{i}_{i + k - 1 - j}" for i in range(1, j + 1)
                         if i + 1 <= i + k - 1 - j],
                    relators=["comm_s", "braid"],
                )
            for j in range(1, k):
                # absorb step: (rho_j..rho_1) m = block_j (rho_(j+1)..rho_1)
                block = _chain_down(sigma, k - 1, j + 1, -1) * _chain_down(sigma, j, 1)
                rels = [f"comm_sr_{i}_{mm}" for i in range(1, n) for mm in (1, j, j + 1)
                        if mm not in (i, i + 1)]
                rels.append(f"sirisi_{j}")
                self.add_lemma(
                    f"powstep_{name}_{j}",
                    _chain_down(rho, j, 1) * m,
                    block * _chain_down(rho, j + 1, 1),
                    use=[f"powstep_{name}_{j - 1}"] if j >= 2 else [],
                    relators=rels,
                )
            self.add_lemma(
                f"powerab_{name}",
                m**k,
                _chain_down(rho, k, 1),
                use=[f"powstep_{name}_{j}" for j in range(1, k)]
                + [f"jstep_{k}_{j}" for j in range(1, k)],
                relators=["comm_s"],
            )

    def seed_invsig(self) -> None:
        """Conjugation by rho_n..rho_1 inverts every sigma generator."""
        self.seed_power()
        n = self.n
        w = _chain_down(rho, n, 1)
        for j in range(1, n):
            # local core: (rho_(j+1) rho_j)^-1 s_j (rho_(j+1) rho_j) = s_j^-1
            core = _r(j + 1) * _r(j)
            self.add_lemma(
                f"invsig_mid_{j}",
                core.inverse() * _s(j) * core,
                _s(j, -1),
                use=[],
                relators=[f"sirisi_{j}", f"rhocomm_{j}"],
            )
            self.add_lemma(
                f"invsig_{j}",
                w.inverse() * _s(j) * w,
                _s(j, -1),
                use=[f"invsig_mid_{j}"],
                relators=[f"comm_sr_{j}_{m}" for m in range(1, n + 1)
                          if m not in (j, j + 1)],
            )

    def seed_delta(self) -> None:
        """Half twist facts: palindromicity, conjugation against rho_n..rho_1,
        the order-4 relation, the two dicyclic relations, and the sigma
        wrap-around entry of the cyclic conjugation table.

        mirror, w^-1 Delta w = Delta^-1 for w = rho_n..rho_1, is a script of
        |Delta| + 1 steps, an induction on the letters of Delta: after k
        steps the word is s_(j1)^-1..s_(jk)^-1 w^-1 s_(j(k+1))..s_(jm) w,
        and step k + 1 moves the next letter out by w^-1 s_j w = s_j^-1
        (invsig_j).  That leaves rev(Delta)^-1, which is Delta^-1 by
        pal_n.  With conjw it gives delta4, Delta^4 = 1."""
        self.seed_invsig()
        n = self.n
        a = element_a(n)
        delta = half_twist(n)
        w = _chain_down(rho, n, 1)
        # rev(Delta_k) = Delta_k, by induction on k
        for k in range(2, n + 1):
            dk = half_twist(k)
            rev = BraidWord(tuple(reversed(dk.letters)))
            self.add_lemma(
                f"pal_{k}",
                rev,
                dk,
                use=([f"pal_{k - 1}", f"twist_split_{k}"] if k >= 3 else []),
                relators=[],
            )
        # conjugation of w = rho_n..rho_1 by the half twist inverts it
        self.add_lemma(
            "conjw",
            delta.inverse() * w * delta,
            w.inverse(),
            use=[f"conjri_{i}" for i in range(1, n + 1)],
            relators=[],
        )
        # w conjugates the half twist to its inverse (see the docstring)
        wi = w.inverse()
        script = []
        for k, (g, _e) in enumerate(delta.letters):
            inverted = BraidWord(tuple((h, -e) for h, e in delta.letters[: k + 1]))
            script.append((f"invsig_{g.index}",
                           inverted * wi * BraidWord(delta.letters[k + 1 :]) * w))
        script.append((f"pal_{n}", delta.inverse()))
        self.add_scripted_lemma("mirror", wi * delta * w, delta.inverse(), script)
        self.add_lemma("delta4", delta**4, EMPTY, use=["conjw", "mirror"], relators=[])
        # wrap-around entry: descend from conjugation by a^n = rho_n..rho_1
        for m in range(n - 1, 0, -1):
            name = "permute_sigma_wrap" if m == 1 else f"wrapchain_{m}"
            if m == n - 1:
                deps = ["powerab_a", f"invsig_{n - 1}"]
            else:
                prev = "permute_sigma_wrap" if m + 1 == 1 else f"wrapchain_{m + 1}"
                deps = [prev, f"permute_sigma_{m}"]
            self.add_lemma(
                name,
                a.inverse() ** (m + 1) * _s(n - 1) * a ** (m + 1),
                _s(m, -1),
                use=deps,
                relators=[],
            )
        self.add_lemma(
            "realdic_a",
            delta * a * delta.inverse() * a,
            EMPTY,
            use=[f"twist_conj_{n}_{i}" for i in range(1, n)]
            + [f"conjri_{n}", f"rjr1_{n}"],
            relators=[],
        )
        b = element_b(n)
        da = delta * a.inverse()
        shifted_b = _chain_down(sigma, n - 1, 2, -1) * _r(2)
        self.add_lemma(
            "bconj",
            a.inverse() * b * a,
            shifted_b,
            use=[f"permute_sigma_{i}" for i in range(1, n - 1)] + ["permute_rho_1"],
            relators=[],
        )
        self.add_lemma(
            "dconj_b",
            delta * shifted_b * delta.inverse(),
            _chain_up(sigma, 1, n - 2, -1) * _r(n - 1, -1),
            use=[f"twist_conj_{n}_{i}" for i in range(1, n)] + [f"conjri_{n - 1}"],
            relators=[],
        )
        self.add_lemma(
            "realdic_b",
            da * b * da.inverse() * b,
            EMPTY,
            use=["bconj", "dconj_b"] + ([f"rjr1_{n - 1}"] if n >= 3 else []),
            relators=[],
        )

    def seed_all(self) -> None:
        self.seed_delta()

    # -- claim certification ------------------------------------------------

    def certify(self, claim: Claim, budget: SearchBudget | None = None) -> Derivation:
        self.seed_all()
        use = [claim.label] if claim.label in self.lemmas else []
        return self.prove(claim.source, claim.target, use=use, relators=[], budget=budget)

    def certify_all(self, budget: SearchBudget | None = None) -> dict[str, Derivation]:
        out = {}
        for claim in paper_claims(self.n):
            out[claim.label] = self.certify(claim, budget)
        return out
