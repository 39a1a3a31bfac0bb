import hashlib
import json

import pytest

from braidcover import atlas
from braidcover.atlas import (
    REPORT_SCHEMA,
    ClassificationEntry,
    _check_relator_images,
    center_quotient_entry,
    classify,
    eliminate_candidates,
    verify_suite,
)


def keys(entries):
    return sorted(e.key for e in entries)


def test_classify_rp2_examples():
    assert keys(classify("rp2", 7)) == [("Dic", 48), ("Dic", 56), ("Ostar", 48)]
    assert keys(classify("rp2", 6)) == [
        ("Dic", 40), ("Dic", 48), ("Istar", 120), ("Ostar", 48)
    ]
    assert keys(classify("rp2", 2)) == [("Dic", 16)]
    assert keys(classify("rp2", 5)) == [("Dic", 32), ("Dic", 40)]


def test_classify_s2_examples():
    assert keys(classify("s2", 6)) == [("Dic", 24), ("Ostar", 48), ("Z", 10)]
    assert keys(classify("s2", 4)) == [("Dic", 16), ("Tstar", 24)]
    assert keys(classify("s2", 3)) == [("Dic", 12)]
    assert keys(classify("s2", 5)) == [("Dic", 12), ("Dic", 20), ("Z", 8)]


def test_classify_mcg_examples():
    assert keys(classify("mcg_rp2", 3)) == [("Dih", 8), ("Dih", 12), ("S4", 24)]
    assert keys(classify("mcg_rp2", 6)) == [
        ("A5", 60), ("Dih", 20), ("Dih", 24), ("S4", 24)
    ]


def test_classify_validation():
    with pytest.raises(ValueError):
        classify("s2", 2)
    with pytest.raises(ValueError):
        classify("rp2", 1)
    with pytest.raises(ValueError):
        classify("mcg_rp2", 1)
    with pytest.raises(ValueError):
        classify("torus", 3)


def test_entry_describe():
    assert ClassificationEntry("Dic", 24, "", "x").describe() == "Dic_24"
    assert ClassificationEntry("Ostar", 48, "", "x").describe() == "Ostar"


def test_center_quotient_entry():
    e = ClassificationEntry("Dic", 24, "all n", "projective-plane-maximal-list")
    q = center_quotient_entry(e)
    assert (q.family, q.order) == ("Dih", 12)
    assert center_quotient_entry(
        ClassificationEntry("Ostar", 48, "", "x")).key == ("S4", 24)
    assert center_quotient_entry(
        ClassificationEntry("Istar", 120, "", "x")).key == ("A5", 60)
    with pytest.raises(ValueError):
        center_quotient_entry(ClassificationEntry("Z", 8, "", "x"))


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 16, 31, 150))
def test_elimination_matches_classification(n):
    trace = eliminate_candidates(n)
    assert keys(trace.survivors) == keys(classify("rp2", n))
    eliminated = [s for s in trace.steps if s.action == "eliminated"]
    assert any(s.entry.family == "Z" for s in eliminated)
    assert all(s.reason for s in trace.steps)


def test_elimination_added_step_at_n3():
    trace = eliminate_candidates(3)
    added = [s for s in trace.steps if s.action == "added"]
    assert len(added) == 1 and added[0].entry.key == ("Dic", 16)
    assert not any(s.action == "added" for s in eliminate_candidates(4).steps)
    with pytest.raises(ValueError):
        eliminate_candidates(2)


def test_elimination_traces_are_pinned():
    # every step of every trace for n = 3..60, byte for byte.  A change
    # that alters a trace on purpose updates the pin
    h = hashlib.sha256()
    for n in range(3, 61):
        for s in eliminate_candidates(n).steps:
            h.update(json.dumps([s.entry.describe(), list(s.entry.key), s.action,
                                 s.reason]).encode() + b"\n")
    assert h.hexdigest()[:16] == "3a0c61bbc50ea1a4"


def test_elimination_reads_the_sphere_list(monkeypatch):
    # the trace is derived from the sphere list at 2n, not typed beside it
    def classify_without_ostar(surface, n):
        out = classify(surface, n)
        if (surface, n) == ("s2", 8):
            out = [e for e in out if e.family != "Ostar"]
        return out

    monkeypatch.setattr(atlas, "classify", classify_without_ostar)
    steps = eliminate_candidates(4).steps
    assert steps and not any(s.entry.family == "Ostar" for s in steps)


def test_verify_suite_n2_all_verified():
    report = verify_suite(2)
    assert report.surface == "rp2" and report.n == 2
    assert report.all_verified
    assert report.elimination is None
    names = {c.name for c in report.claims}
    assert {"identity-certificates", "order-ledger", "quotient-structure",
            "covering-relator-images", "classification-consistency",
            "abelianization", "maximality"} <= names
    statuses = {c.name: c.status for c in report.claims}
    assert statuses["maximality"] == "statement-only"
    assert statuses["identity-certificates"] == "verified"
    assert statuses["covering-relator-images"] == "verified"


def test_verify_suite_n6_certifies_identities():
    # the scripted lemma ladder certifies every claim at six strands; the
    # order ledger keeps its gap.  The relator images are decided exactly
    # at every n.
    report = verify_suite(6)
    statuses = {c.name: c.status for c in report.claims}
    assert statuses["identity-certificates"] == "verified"
    identities = next(c for c in report.claims if c.name == "identity-certificates")
    assert not identities.gaps and identities.detail.startswith("29/29 ")
    assert statuses["covering-relator-images"] == "verified"
    assert statuses["classification-consistency"] == "verified"
    assert statuses["abelianization"] == "verified"
    assert statuses["order-ledger"] == "partially-verified"
    assert report.elimination is not None
    assert not report.all_verified
    with pytest.raises(ValueError):
        verify_suite(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_relator_images_verified_exactly(n):
    claim = _check_relator_images(n)
    assert claim.status == "verified" and not claim.gaps
    # the status rests on the exact oracle, not on a certificate
    assert "certif" not in claim.detail
    assert "{1, full twist}" in claim.detail and "B_3(S^2)" in claim.detail


def test_report_serialization():
    report = verify_suite(2)
    doc = json.loads(report.to_json())
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["surface"] == "rp2" and doc["n"] == 2
    assert {e["family"] for e in doc["entries"]} == {"Dic"}
    assert all({"name", "status", "detail", "gaps"} <= set(c) for c in doc["claims"])
    md = report.to_markdown()
    assert md.startswith("# Finite subgroups")
    assert "## Verification" in md


@pytest.mark.parametrize("n, digest", [(2, "863242d1947db707"), (3, "755688e76a8007c9"),
                                       (4, "933dd92f70c4a2ab"), (5, "29bd27bb60100716")])
def test_report_json_is_pinned(n, digest):
    # the whole report, byte for byte; the same under every hash seed.  A
    # change that alters a report on purpose updates the pin
    text = verify_suite(n).to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
