"""Each correctness check of the benchmark fires on a wrong input.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from checks import WrongAnswer  # noqa: E402
from braidcover.identities import CertificateEngine, paper_claims  # noqa: E402
from braidcover.presentations import van_buskirk  # noqa: E402
from braidcover.rewriting import verify_derivation  # noqa: E402
from braidcover.words import parse_word as w  # noqa: E402


def _report(n, entries=None, statuses=None):
    if entries is None:
        entries = checks.paper_classification(n)
    claims = {"identity-certificates": "verified", "abelianization": "verified"}
    claims.update(statuses or {})
    return SimpleNamespace(
        entries=[SimpleNamespace(family=f, order=o) for f, o in entries],
        claims=[SimpleNamespace(name=k, status=v) for k, v in claims.items()],
    )


def test_paper_classification():
    assert checks.paper_classification(2) == [("Dic", 16)]
    assert checks.paper_classification(3) == [("Dic", 16), ("Dic", 24), ("Ostar", 48)]
    assert checks.paper_classification(6) == [
        ("Dic", 40), ("Dic", 48), ("Istar", 120), ("Ostar", 48)]


def test_report_check_fires():
    checks.check_report(_report(4), 4)
    with pytest.raises(WrongAnswer):
        checks.check_report(_report(4, entries=[("Dic", 32), ("Dic", 24)]), 4)
    with pytest.raises(WrongAnswer):
        checks.check_report(_report(4, statuses={"identity-certificates": "partially-verified"}), 4)
    with pytest.raises(WrongAnswer):
        checks.check_report(_report(5, statuses={"abelianization": "statement-only"}), 5)


def test_claim_invariants_fire():
    for claim in paper_claims(3):
        checks.check_claim_invariants(claim.source, claim.target, 3, claim.label)
    with pytest.raises(WrongAnswer, match="permutation"):
        checks.check_claim_invariants(w("s1 s2"), w("s2 s1"), 3)
    with pytest.raises(WrongAnswer, match="abelianization"):
        checks.check_claim_invariants(w("r1"), w("r1 r2"), 3)


def test_lift_pairing_fires():
    checks.check_lift_pairing(w("s1"), w("s3 s1^-1"), 2)
    checks.check_lift_pairing(w("r1"), w("s1^-1 s2^-1 s1^-1"), 2)
    with pytest.raises(WrongAnswer):
        checks.check_lift_pairing(w("s1"), w("s1"), 2)
    with pytest.raises(WrongAnswer):
        checks.check_lift_pairing(w("s1"), w("s1^-1 s2^-1 s1^-1"), 2)


def test_altered_certificate_check_fires():
    p = van_buskirk(2)
    d = CertificateEngine(2).certify(paper_claims(2)[-1])  # delta4
    step = next(i for i, s in enumerate(d.steps) if s.action == "InsertRelatorConjugate")
    checks.check_altered_certificate_rejected(p, d, step, verify_derivation)
    with pytest.raises(WrongAnswer):
        checks.check_altered_certificate_rejected(p, d, step, lambda _p, _d: True)


def test_sphere_outcome():
    assert checks.sphere_outcome("Trivial", "Trivial", "x") is True
    assert checks.sphere_outcome("FullTwist", "FullTwist", "x") is True
    assert checks.sphere_outcome("TrivialOrFullTwist", "Trivial", "x") is False
    assert checks.sphere_outcome("TrivialOrFullTwist", "FullTwist", "x") is False
    for verdict, expected in (("FullTwist", "Trivial"), ("Nontrivial", "Trivial"),
                              ("Trivial", "FullTwist")):
        with pytest.raises(WrongAnswer):
            checks.sphere_outcome(verdict, expected, "x")


def test_spotcheck_check_fires():
    checks.check_spotcheck(SimpleNamespace(failures=(), checked=3), "x")
    with pytest.raises(WrongAnswer):
        checks.check_spotcheck(SimpleNamespace(failures=(w("t1"),), checked=3), "x")
    with pytest.raises(WrongAnswer):
        checks.check_spotcheck(SimpleNamespace(failures=(), checked=0), "x")
