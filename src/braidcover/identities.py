"""The canned identity claims in the braid group of the projective plane,
and a certificate engine that proves them.

Claims are pairs of words (source, target) asserted equal in van_buskirk(n).
The engine proves them with the rewriting search, seeded with a ladder of
auxiliary identities (disc braid shuffles, half twist conjugation, the
rho_j expansion) proved in dependency order.  Each auxiliary identity is
compiled down to presentation relators at registration time, so every
certificate the engine emits replays against the bare presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import (
    Presentation,
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
    _lemma_from_proof,
    find_equality,
)
from .words import EMPTY, BraidWord, gen_word, rho, sigma


def _chain(gen, indices, exp: int = 1) -> BraidWord:
    w = EMPTY
    for i in indices:
        w = w * gen_word(gen(i), exp)
    return w


def _up(gen, lo, hi, exp=1):
    return _chain(gen, range(lo, hi + 1), exp)


def _down(gen, hi, lo, exp=1):
    return _chain(gen, range(hi, lo - 1, -1), exp)


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
    s, r = sigma, rho
    a = element_a(n)
    b = element_b(n)
    delta = half_twist(n)
    claims: list[Claim] = []
    for j in range(1, n + 1):
        claims.append(Claim(f"rjr1_{j}", gen_word(r(j)), rho_expanded(j)))
    claims.append(
        Claim(
            "rn2",
            gen_word(r(n), -1) * gen_word(r(n), -1),
            _down(s, n - 1, 2) * gen_word(s(1)) * gen_word(s(1)) * _up(s, 2, n - 1),
        )
    )
    claims.append(Claim("powerab_a", a**n, _down(r, n, 1)))
    claims.append(Claim("powerab_b", b ** (n - 1), _down(r, n - 1, 1)))
    for i in range(1, n + 1):
        claims.append(
            Claim(
                f"conjri_{i}",
                delta.inverse() * gen_word(r(i)) * delta,
                gen_word(r(n + 1 - i), -1),
            )
        )
    ai = a.inverse()
    for i in range(1, n - 1):
        claims.append(
            Claim(f"permute_sigma_{i}", ai * gen_word(s(i)) * a, gen_word(s(i + 1)))
        )
    claims.append(
        Claim(
            "permute_sigma_wrap",
            ai * ai * gen_word(s(n - 1)) * a * a,
            gen_word(s(1), -1),
        )
    )
    for i in range(1, n):
        claims.append(
            Claim(f"permute_rho_{i}", ai * gen_word(r(i)) * a, gen_word(r(i + 1)))
        )
    claims.append(Claim("permute_rho_wrap", ai * gen_word(r(n)) * a, gen_word(r(1), -1)))
    claims.append(Claim("realdic_a", delta * a * delta.inverse() * a, EMPTY))
    da = delta * ai
    claims.append(Claim("realdic_b", da * b * da.inverse() * b, EMPTY))
    claims.append(Claim("delta4", delta**4, EMPTY))
    return claims


class CertificateEngine:
    """Proves identities in van_buskirk(n) by seeded certificate search.

    Auxiliary identities are proved in dependency order; each becomes a
    single search move for later proofs but is stored compiled to
    presentation-level steps, so emitted certificates never reference
    anything but the presentation's own relators.
    """

    def __init__(self, n: int, budget: SearchBudget | None = None):
        if n < 2:
            raise ValueError("engine needs n >= 2")
        self.n = n
        self.presentation: Presentation = van_buskirk(n)
        self.budget = budget if budget is not None else SearchBudget()
        self.lemmas: dict[str, Lemma] = {}
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

    def prove(self, source: BraidWord, target: BraidWord, use=None,
              budget: SearchBudget | None = None, relators=None) -> Derivation:
        return find_equality(
            self.presentation,
            source,
            target,
            budget if budget is not None else self.budget,
            self._bank(use),
            self._relator_subset(relators),
        )

    def add_lemma(self, name: str, source: BraidWord, target: BraidWord,
                  use=None, budget: SearchBudget | None = None,
                  relators=None) -> Lemma:
        if name in self.lemmas:
            return self.lemmas[name]
        try:
            proof = self.prove(source * target.inverse(), EMPTY, use, budget, relators)
        except NotFound as exc:
            raise NotFound(exc.stats, name) from None
        lemma = _lemma_from_proof(self.presentation, name, proof)
        self.lemmas[name] = lemma
        return lemma

    # -- the seeding ladder -------------------------------------------------

    def seed(self) -> None:
        """Prove the auxiliary identity ladder, in dependency order."""
        if self._seeded:
            return
        n, s, r = self.n, sigma, rho
        add = self.add_lemma

        # ascending-chain shuffle: (s1..sk) si = s(i+1) (s1..sk)
        for k in range(2, n):
            for i in range(1, k):
                add(
                    f"chain_up_{k}_{i}",
                    _up(s, 1, k) * gen_word(s(i)),
                    gen_word(s(i + 1)) * _up(s, 1, k),
                    use=[],
                    relators=["comm_s", "braid"],
                )
        # descending-chain shuffle: (s(k-1)..s1) sj = s(j-1) (s(k-1)..s1)
        for k in range(3, n + 1):
            for j in range(2, k):
                add(
                    f"chain_down_{k}_{j}",
                    _down(s, k - 1, 1) * gen_word(s(j)),
                    gen_word(s(j - 1)) * _down(s, k - 1, 1),
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
                    half_twist(k - 1) * _down(s, k - 1, 1),
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
                    dk.inverse() * gen_word(s(i)) * dk,
                    gen_word(s(k - i)),
                    use=deps,
                    relators=["comm_s", "braid"],
                )
        # rho_j expansion over sigma and rho_1
        for j in range(2, n + 1):
            add(
                f"rjr1_{j}",
                gen_word(r(j)),
                rho_expanded(j),
                use=[f"rjr1_{j - 1}"] if j >= 3 else [],
                relators=["sirisi", "comm_sr", "comm_s"],
            )
        # rho_n^-2 in terms of the sigmas
        add(
            "rn2",
            gen_word(r(n), -1) * gen_word(r(n), -1),
            _down(s, n - 1, 2) * gen_word(s(1)) * gen_word(s(1)) * _up(s, 2, n - 1),
            use=[f"rjr1_{j}" for j in range(2, n + 1)],
            relators=["surface", "sirisi", "comm_sr", "comm_s"],
        )
        self._seeded = True

    def seed_conjri(self) -> None:
        """Half twist conjugation of the rho generators, by induction on i."""
        self.seed()
        n, r = self.n, rho
        delta = half_twist(n)
        base_deps = [f"rjr1_{j}" for j in range(2, n + 1)] + ["rn2"]
        base_deps += [f"twist_conj_{n}_{i}" for i in range(1, n)]
        if n >= 3:
            base_deps += [f"twist_split_{n}"]
        self.add_lemma(
            "conjri_1",
            delta.inverse() * gen_word(r(1)) * delta,
            gen_word(r(n), -1),
            use=base_deps,
            relators=["surface", "sirisi", "comm_sr", "comm_s"],
        )
        for i in range(1, n):
            self.add_lemma(
                f"conjri_{i + 1}",
                delta.inverse() * gen_word(r(i + 1)) * delta,
                gen_word(r(n - i), -1),
                use=[f"conjri_{i}", f"twist_conj_{n}_{i}"],
                relators=["sirisi"],
            )

    def seed_permute(self) -> None:
        """Cyclic conjugation of the generators by a^-1.

        The sigma entries follow from the ascending-chain shuffle in two
        moves; the rho entries go by induction using sirisi; both wrap
        entries come down to the surface relation via the rho_j expansion.
        """
        self.seed_conjri()
        n, s, r = self.n, sigma, rho
        a = element_a(n)
        ai = a.inverse()
        for i in range(1, n - 1):
            self.add_lemma(
                f"permute_sigma_{i}",
                ai * gen_word(s(i)) * a,
                gen_word(s(i + 1)),
                use=[f"chain_up_{n - 1}_{i}"],
                relators=[f"comm_sr_{i + 1}_1"],
            )
        self.add_lemma(
            "permute_rho_1",
            ai * gen_word(r(1)) * a,
            gen_word(r(2)),
            use=[],
            relators=[f"comm_sr_{j}_1" for j in range(2, n)]
            + ["sirisi_1", "rhocomm_1"],
        )
        for i in range(2, n):
            self.add_lemma(
                f"permute_rho_{i}",
                ai * gen_word(r(i)) * a,
                gen_word(r(i + 1)),
                use=[f"permute_sigma_{i - 1}", f"permute_rho_{i - 1}"],
                relators=["sirisi"],
            )
        self.add_lemma(
            "permute_rho_wrap",
            ai * gen_word(r(n)) * a,
            gen_word(r(1), -1),
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
        n, s, r = self.n, sigma, rho
        # slide_i_x:  s_i (s_(i+1)..s_x) (s_i..s_(x-1)) = (s_(i+1)..s_x) (s_i..s_x)
        for x in range(2, n):
            for i in range(1, x):
                self.add_lemma(
                    f"slide_{i}_{x}",
                    gen_word(s(i)) * _up(s, i + 1, x) * _up(s, i, x - 1),
                    _up(s, i + 1, x) * _up(s, i, x),
                    use=[f"slide_{i}_{x - 1}"] if x - 1 > i else [],
                    relators=["comm_s", "braid"],
                )

        def suffix(k: int, j: int) -> BraidWord:
            # product of ascending runs (s_i .. s_(i+k-1-j)) for i = j..1
            w = EMPTY
            for i in range(j, 0, -1):
                w = w * _up(s, i, i + k - 1 - j)
            return w

        for name, m, k in (("a", element_a(n), n), ("b", element_b(n), n - 1)):
            if k < 2:
                self.add_lemma(f"powerab_{name}", m**k, _down(r, k, 1), use=[])
                continue
            for j in range(1, k):
                # peel step: (s_j..s_1) suffix(j+1) = (s_(j+1)..s_(k-1)) suffix(j)
                self.add_lemma(
                    f"jstep_{k}_{j}",
                    _down(s, j, 1) * suffix(k, j + 1),
                    _up(s, j + 1, k - 1) * suffix(k, j),
                    use=[f"slide_{i}_{i + k - 1 - j}" for i in range(1, j + 1)
                         if i + 1 <= i + k - 1 - j],
                    relators=["comm_s", "braid"],
                )
            for j in range(1, k):
                # absorb step: (rho_j..rho_1) m = block_j (rho_(j+1)..rho_1)
                block = _down(s, k - 1, j + 1, -1) * _down(s, j, 1)
                rels = [f"comm_sr_{i}_{mm}" for i in range(1, n) for mm in (1, j, j + 1)
                        if mm not in (i, i + 1)]
                rels.append(f"sirisi_{j}")
                self.add_lemma(
                    f"powstep_{name}_{j}",
                    _down(r, j, 1) * m,
                    block * _down(r, j + 1, 1),
                    use=[f"powstep_{name}_{j - 1}"] if j >= 2 else [],
                    relators=rels,
                )
            self.add_lemma(
                f"powerab_{name}",
                m**k,
                _down(r, k, 1),
                use=[f"powstep_{name}_{j}" for j in range(1, k)]
                + [f"jstep_{k}_{j}" for j in range(1, k)],
                relators=["comm_s"],
            )

    def seed_invsig(self) -> None:
        """Conjugation by rho_n..rho_1 inverts every sigma generator."""
        self.seed_power()
        n, s, r = self.n, sigma, rho
        w = _down(r, n, 1)
        for j in range(1, n):
            # local core: (rho_(j+1) rho_j)^-1 s_j (rho_(j+1) rho_j) = s_j^-1
            core = gen_word(r(j + 1)) * gen_word(r(j))
            self.add_lemma(
                f"invsig_mid_{j}",
                core.inverse() * gen_word(s(j)) * core,
                gen_word(s(j), -1),
                use=[],
                relators=[f"sirisi_{j}", f"rhocomm_{j}"],
            )
            self.add_lemma(
                f"invsig_{j}",
                w.inverse() * gen_word(s(j)) * w,
                gen_word(s(j), -1),
                use=[f"invsig_mid_{j}"],
                relators=[f"comm_sr_{j}_{m}" for m in range(1, n + 1)
                          if m not in (j, j + 1)],
            )

    def seed_delta(self) -> None:
        """Half twist facts: palindromicity, conjugation against rho_n..rho_1,
        the order-4 relation, the two dicyclic relations, and the sigma
        wrap-around entry of the cyclic conjugation table."""
        self.seed_invsig()
        n, s, r = self.n, sigma, rho
        a = element_a(n)
        delta = half_twist(n)
        w = _down(r, n, 1)
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
        # w conjugates the half twist to its inverse
        self.add_lemma(
            "mirror",
            w.inverse() * delta * w,
            delta.inverse(),
            use=[f"invsig_{j}" for j in range(1, n)] + [f"pal_{n}"],
            relators=[],
        )
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
                a.inverse() ** (m + 1) * gen_word(s(n - 1)) * a ** (m + 1),
                gen_word(s(m), -1),
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
        shifted_b = _down(s, n - 1, 2, -1) * gen_word(r(2))
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
            _up(s, 1, n - 2, -1) * gen_word(r(n - 1), -1),
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
