"""The three workloads: their inputs, operations and checks.

A workload's set-up builds its inputs from the seed and returns the
operations of one round.  An operation is (label, call, check): call()
is the timed part and returns the program's output; check(output) runs
untimed and returns True (answered), False (failed: fault F1 or F2, see
the README) or raises checks.WrongAnswer.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from braidcover import atlas, covering, identities, oracles, presentations, rewriting
from braidcover.words import BraidWord, rho, sigma

import checks

# The budgets verify_suite passes for the relator-image check today:
# 500 000 candidates at n = 2 (sphere group on 4 strands), 20 000 above.
WIDE_BUDGET = 500_000
NARROW_BUDGET = 20_000


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    ops: list[Op]
    min_rounds: int
    max_rounds: int | None = None
    tail_percentile: int = 100  # op_tail_ms; 100 is the slowest operation
    extra: dict[str, float] = field(default_factory=dict)
    once_checks: list[Callable[[], None]] = field(default_factory=list)


def budget_kwargs(fn, candidates: int) -> dict:
    """The search budget for fn, while fn still takes one."""
    if "budget" in inspect.signature(fn).parameters and hasattr(rewriting, "SearchBudget"):
        return {"budget": rewriting.SearchBudget(max_candidates=candidates)}
    return {}


# ---------------------------------------------------------------------------
# verify-ladder


def _verify_op(n: int) -> Op:
    def call():
        report = atlas.verify_suite(n)
        return report, report.to_json(), report.to_markdown()

    def check(out) -> bool:
        report, text, markdown = out
        checks.check_report(report, n)
        if json.loads(text)["n"] != n or f"n={n}" not in markdown.splitlines()[0]:
            raise checks.WrongAnswer(f"n={n}: serialised report does not describe n={n}")
        return True

    return Op(f"verify_suite({n})", call, check)


def _certify_six_op() -> Op:
    claims = identities.paper_claims(6)

    def call():
        try:
            return identities.CertificateEngine(6).certify_all()
        except rewriting.NotFound as exc:  # fault F1
            return exc

    def check(out) -> bool:
        if isinstance(out, rewriting.NotFound):
            return False
        if sorted(out) != sorted(c.label for c in claims):
            raise checks.WrongAnswer("certify_all(6) returned other claims")
        for claim in claims:
            d = out[claim.label]
            if checks.letters(d.source) != checks.letters(claim.source) or \
                    checks.letters(d.target) != checks.letters(claim.target):
                raise checks.WrongAnswer(f"certificate for {claim.label} proves another claim")
            checks.check_claim_invariants(claim.source, claim.target, 6, claim.label)
        return True

    return Op("CertificateEngine(6).certify_all()", call, check)


def verify_ladder(seed: int) -> Workload:
    # verify_suite caches the finite group tables for the process, so a
    # second round would measure other work: one round per process.  The
    # seed does not enter; the ladder has no random input.  With five
    # operations no percentile has ten samples beyond it: op_tail_ms is the
    # slowest.
    ops = [_verify_op(n) for n in (2, 3, 4, 5)] + [_certify_six_op()]
    return Workload(ops, min_rounds=1, max_rounds=1)


# ---------------------------------------------------------------------------
# recheck-certs


def _recheck_op(n: int, claim, text: str, presentation) -> Op:
    Derivation = rewriting.Derivation

    def call():
        d = Derivation.from_json(text)
        ok = rewriting.verify_derivation(presentation, d)
        return d, ok, d.to_json()

    def check(out) -> bool:
        d, ok, again = out
        if not ok:
            raise checks.WrongAnswer(f"n={n} {claim.label}: shipped certificate rejected")
        if again != text:
            raise checks.WrongAnswer(f"n={n} {claim.label}: to_json differs from the shipped text")
        if checks.letters(d.source) != checks.letters(claim.source) or \
                checks.letters(d.target) != checks.letters(claim.target):
            raise checks.WrongAnswer(f"n={n} {claim.label}: certificate proves another claim")
        return True

    return Op(f"recheck n={n} {claim.label}", call, check)


def recheck_certs(seed: int) -> Workload:
    shipped = []  # (n, claim, json text)
    steps = 0
    for n in (2, 3, 4):
        engine = identities.CertificateEngine(n)
        for claim in identities.paper_claims(n):
            d = engine.certify(claim)
            steps += len(d.steps)
            shipped.append((n, claim, d.to_json()))
    presentation = {n: presentations.van_buskirk(n) for n in (2, 3, 4)}
    # the certificates are the same for every seed, and so is their order:
    # which operation follows a large one (and pays for its garbage) would
    # otherwise move the median from seed to seed
    rng = random.Random(seed)
    ops = [_recheck_op(n, claim, text, presentation[n]) for n, claim, text in shipped]

    def claim_invariants():
        for n, claim, _text in shipped:
            checks.check_claim_invariants(claim.source, claim.target, n, claim.label)

    def altered_rejected():
        candidates = []  # (n, certificate, indices of its relator insertions)
        for n, _claim, text in shipped:
            d = rewriting.Derivation.from_json(text)
            inserts = [i for i, s in enumerate(d.steps) if s.action == "InsertRelatorConjugate"]
            if inserts:
                candidates.append((n, d, inserts))
        n, d, inserts = rng.choice(candidates)
        checks.check_altered_certificate_rejected(
            presentation[n], d, rng.choice(inserts), rewriting.verify_derivation)

    # 51 operations a round: the 95th percentile falls inside the third
    # slowest certificate's band, and four rounds put 10 samples beyond it
    return Workload(ops, min_rounds=4, tail_percentile=95,
                    extra={"rewriting.cert_steps": steps},
                    once_checks=[claim_invariants, altered_rejected])


# ---------------------------------------------------------------------------
# lift-decide


def _random_word(rng: random.Random, gens, length: int) -> BraidWord:
    """Freely reduced word of exactly `length` letters over gens."""
    letters: list = []
    while len(letters) < length:
        g, e = rng.choice(gens), rng.choice((1, -1))
        if letters and letters[-1] == (g, -e):
            continue
        letters.append((g, e))
    return BraidWord(tuple(letters))


def _lift_word(rng: random.Random, n: int, length: int) -> BraidWord:
    """Freely reduced sigma/rho word of exactly `length` letters, half of
    them rho.  A lift's time grows with its rho letters, so a fixed share
    keeps the median operation from moving with the seed; which letters
    are rho, and every index and exponent, come from the seed."""
    rhos = set(rng.sample(range(length), length // 2))
    pools = ([sigma(i) for i in range(1, n)], [rho(j) for j in range(1, n + 1)])
    letters: list = []
    for k in range(length):
        while True:
            g, e = rng.choice(pools[k in rhos]), rng.choice((1, -1))
            if not letters or letters[-1] != (g, -e):
                break
        letters.append((g, e))
    return BraidWord(tuple(letters))


def _relator_op(n: int, label: str, relator: BraidWord) -> Op:
    wp = oracles.sphere_word_problem
    kwargs = budget_kwargs(wp, WIDE_BUDGET if n == 2 else NARROW_BUDGET)

    def call():
        image = covering.psi(n, relator)
        return image, oracles.sphere_word_problem(2 * n, image.free_reduce(), **kwargs)

    def check(out) -> bool:
        image, verdict = out
        checks.check_lift_pairing(relator, image, n, f"psi({label})")
        # psi is a homomorphism, so every relator maps to the identity
        return checks.sphere_outcome(verdict.verdict, "Trivial", f"n={n} psi({label})")

    return Op(f"relator image n={n} {label}", call, check)


def _lift_op(n: int, w: BraidWord) -> Op:
    # The lift and psi(n, w) are compared by the sphere action, exact up
    # to the central full twist.  sphere_word_problem would go on to a
    # search on these 2n strands, and whether that search finds a
    # certificate within budget varies with the word (F2): a failure count
    # that must not depend on the seed cannot include it.
    def call():
        motion = covering.word_motion(w, n)
        lifted = covering.extract_word(covering.lift_motion(motion, covering.ANTIPODAL))
        image = covering.psi(n, w)
        quotient = (lifted * image.inverse()).free_reduce()
        return lifted, image, oracles.sphere_action(2 * n, quotient)

    def check(out) -> bool:
        lifted, image, action = out
        checks.check_lift_pairing(w, lifted, n, f"lift of {w}")
        checks.check_lift_pairing(w, image, n, f"psi({w})")
        if not action.is_identity():
            raise checks.WrongAnswer(f"n={n}: lift of {w} and psi({w}) act differently")
        return True

    return Op(f"lift n={n} |w|={len(w)}", call, check)


def _conjugate_op(m: int, c: BraidWord, power: int) -> Op:
    word = c * presentations.full_twist(m) ** power * c.inverse()
    # Delta^2 is the central element of order 2, Delta^4 is trivial
    expected = "FullTwist" if power == 1 else "Trivial"
    kwargs = budget_kwargs(oracles.sphere_word_problem, NARROW_BUDGET)

    def call():
        return oracles.sphere_word_problem(m, word, **kwargs)

    def check(verdict) -> bool:
        return checks.sphere_outcome(verdict.verdict, expected, f"m={m} c.Delta^{2 * power}.c^-1")

    return Op(f"conjugate m={m} Delta^{2 * power}", call, check)


def _spotcheck_op(d: int, n: int, seed: int) -> Op:
    def call():
        return covering.injectivity_spotcheck_annulus(d, n, 10, seed=seed)

    def check(report) -> bool:
        checks.check_spotcheck(report, f"annulus d={d} n={n}")
        return True

    return Op(f"spotcheck d={d} n={n}", call, check)


def lift_decide(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    # fixed inputs: every relator of van_buskirk(n), n = 2..4 (27 images)
    for n in (2, 3, 4):
        labels = sorted(presentations.van_buskirk_relator_labels(n).items(), key=lambda kv: kv[1])
        relators = presentations.van_buskirk(n).relators
        ops += [_relator_op(n, label, relators[i]) for label, i in labels]
    # seeded whole-word lifts, six words per strand count and length: the
    # median operation is a lift, and fewer words move it from seed to seed
    for n in (2, 3, 4, 5):
        for length in (4, 8, 12, 16):
            ops += [_lift_op(n, _lift_word(rng, n, length)) for _ in range(6)]
    # conjugates of Delta^2 and Delta^4.  Odd m: two seeded conjugators.
    # Even m: one conjugator that does not depend on the seed, because the
    # oracle leaves these undecided (F2) and failures must not vary with
    # the seed.
    for m in range(3, 9):
        gens = [sigma(i) for i in range(1, m)]
        if m % 2:
            conjugators = [_random_word(rng, gens, 6) for _ in range(2)]
        else:
            conjugators = [_random_word(random.Random(f"fixed conjugator {m}"), gens, 6)]
        ops += [_conjugate_op(m, c, power) for c in conjugators for power in (1, 2)]
    for d in (2, 3):
        ops += [_spotcheck_op(d, n, rng.randrange(2**31)) for n in (1, 2, 3, 4)]
    # 149 operations a round: the 90th percentile leaves 14.9 a round
    # beyond it, so one round would do; two rounds give a median round
    return Workload(ops, min_rounds=2, tail_percentile=90)


WORKLOADS = {
    "verify-ladder": verify_ladder,
    "recheck-certs": recheck_certs,
    "lift-decide": lift_decide,
}
