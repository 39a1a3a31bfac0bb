"""Correctness checks for the benchmark, computed apart from braidcover.

Each check raises WrongAnswer when a program output contradicts what is
known independently: the paper's classification list, the Z2 + Z2
abelianization of B_n(RP^2), the strand permutation of a braid word, or
the sphere verdict that theory predicts.  A wrong answer fails the run; it
is never counted as a failed (or slow) operation.  The only outcome
counted as failed is the sphere oracle's honest "TrivialOrFullTwist"
where theory knows the answer (fault F2 in the README).

Words are handled as sequences of (kind, index, exponent) triples read
off braidcover's BraidWord letters, so the checks share no code with the
program beyond that data format.
"""

from __future__ import annotations

UNDECIDED = "TrivialOrFullTwist"


class WrongAnswer(AssertionError):
    """A program output contradicts an independently known answer."""


def letters(word) -> list[tuple[str, int, int]]:
    """(kind, index, exponent) triples of a braidcover BraidWord."""
    return [(g.kind, g.index, e) for g, e in word.letters]


# ---------------------------------------------------------------------------
# classification


def paper_classification(n: int) -> list[tuple[str, int]]:
    """Maximal finite subgroups of B_n(RP^2), re-encoded from the paper:
    Dic_{8n}; Dic_{8(n-1)} for n >= 3; O* iff n = 0, 1 mod 3; I* iff
    n = 0, 1, 6, 10 mod 15."""
    out = [("Dic", 8 * n)]
    if n >= 3:
        out.append(("Dic", 8 * (n - 1)))
    if n % 3 in (0, 1):
        out.append(("Ostar", 48))
    if n % 15 in (0, 1, 6, 10):
        out.append(("Istar", 120))
    return sorted(out)


def check_report(report, n: int) -> None:
    """A verify_suite(n) report lists the paper's classification and, for
    n <= 5, certifies every claim and verifies the abelianization."""
    got = sorted((e.family, e.order) for e in report.entries)
    want = paper_classification(n)
    if got != want:
        raise WrongAnswer(f"n={n}: classification {got} != paper {want}")
    if n <= 5:
        status = {c.name: c.status for c in report.claims}
        for name in ("identity-certificates", "abelianization"):
            if status.get(name) != "verified":
                raise WrongAnswer(f"n={n}: {name} is {status.get(name)!r}, not verified")


# ---------------------------------------------------------------------------
# permutations and abelianization


def strand_endpoints(word, m: int) -> tuple[int, ...]:
    """Final position (1-based) of each strand 1..m; sigma_i swaps the
    strands at positions i and i+1, rho and tau leave positions alone."""
    at = list(range(1, m + 1))  # at[p-1] = strand at position p
    for kind, i, _e in letters(word):
        if kind == "s":
            if not 1 <= i < m:
                raise WrongAnswer(f"sigma_{i} outside {m} strands")
            at[i - 1], at[i] = at[i], at[i - 1]
    end = [0] * m
    for pos, strand in enumerate(at, start=1):
        end[strand - 1] = pos
    return tuple(end)


def parity_class(word) -> tuple[int, int]:
    """Image in the Z2 + Z2 abelianization of B_n(RP^2): the sigma- and
    rho-exponent sums mod 2."""
    s = r = 0
    for kind, _i, e in letters(word):
        if kind == "s":
            s += e
        elif kind == "r":
            r += e
    return s % 2, r % 2


def check_claim_invariants(source, target, n: int, label: str = "") -> None:
    """Both sides of a claimed identity have the same permutation and the
    same class in the abelianization."""
    if strand_endpoints(source, n) != strand_endpoints(target, n):
        raise WrongAnswer(f"claim {label}: sides have different permutations")
    if parity_class(source) != parity_class(target):
        raise WrongAnswer(f"claim {label}: sides differ in the abelianization")


def check_lift_pairing(base_word, lift_word, n: int, what: str = "lift") -> None:
    """A word on 2n sphere strands lifting a word on n RP^2 strands
    projects to the base permutation and keeps antipodal partners i and
    i + n paired."""
    base = strand_endpoints(base_word, n)
    up = strand_endpoints(lift_word, 2 * n)
    for i in range(1, n + 1):
        j = base[i - 1]
        if {up[i - 1], up[i + n - 1]} != {j, j + n}:
            raise WrongAnswer(
                f"{what}: strands {i}, {i + n} end at {up[i - 1]}, "
                f"{up[i + n - 1]}, not at the partners {j}, {j + n}"
            )


# ---------------------------------------------------------------------------
# certificates


def check_altered_certificate_rejected(presentation, derivation, step_index: int,
                                       verify) -> None:
    """Flip the relator orientation of one InsertRelatorConjugate step; the
    verifier must reject the altered certificate."""
    step = derivation.steps[step_index]
    if step.action != "InsertRelatorConjugate":
        raise ValueError("alter an InsertRelatorConjugate step")
    altered_step = type(step)(step.action, step.position, step.relator_index,
                              not step.inverse_flag, step.conjugator)
    steps = list(derivation.steps)
    steps[step_index] = altered_step
    altered = type(derivation)(derivation.source, derivation.target, tuple(steps))
    if verify(presentation, altered):
        raise WrongAnswer(f"certificate with step {step_index} altered was accepted")


# ---------------------------------------------------------------------------
# sphere verdicts and spot checks


def sphere_outcome(verdict: str, expected: str, what: str) -> bool:
    """True if the sphere oracle gave the known answer, False if it gave
    the undecided verdict (a failed operation); raises on a wrong one."""
    if verdict == expected:
        return True
    if verdict == UNDECIDED and expected in ("Trivial", "FullTwist"):
        return False
    raise WrongAnswer(f"{what}: verdict {verdict}, theory says {expected}")


def check_spotcheck(report, what: str) -> None:
    if report.failures:
        raise WrongAnswer(f"{what}: {len(report.failures)} injectivity failures")
    if report.checked <= 0:
        raise WrongAnswer(f"{what}: no nontrivial word was checked")
