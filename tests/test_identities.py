import hashlib

import pytest

from braidcover.identities import CertificateEngine, paper_claims
from braidcover.presentations import van_buskirk
from braidcover.rewriting import verify_derivation
from braidcover.words import permutation_image


def test_claim_labels_unique():
    for n in (2, 3, 4, 5):
        labels = [c.label for c in paper_claims(n)]
        assert len(labels) == len(set(labels))
    with pytest.raises(ValueError):
        paper_claims(1)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_claims_are_permutation_consistent(n):
    # both sides of every claim must induce the same strand permutation
    for c in paper_claims(n):
        assert permutation_image(c.source, n) == permutation_image(c.target, n)


def test_engine_certifies_and_replays(engine_factory):
    for n in (2, 3):
        engine = engine_factory(n)
        p = van_buskirk(n)
        for claim in paper_claims(n):
            d = engine.certify(claim)
            assert d.source == claim.source
            assert d.target == claim.target
            assert verify_derivation(p, d)


@pytest.mark.parametrize("n, digest, steps", [(2, "9d9cd65a9a88a431", 868),
                                              (3, "5e3208cfa828bd4f", 3514)])
def test_certificates_are_pinned(engine_factory, n, digest, steps):
    # a change to the search or the compiler that alters any certificate
    # shows here; one that does so on purpose updates the pin
    certs = engine_factory(n).certify_all()
    text = "".join(certs[k].to_json() for k in sorted(certs))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert sum(len(d.steps) for d in certs.values()) == steps


def test_certificates_use_only_presentation_relators(engine_factory):
    engine = engine_factory(2)
    p = van_buskirk(2)
    claim = next(c for c in paper_claims(2) if c.label == "rn2")
    d = engine.certify(claim)
    for s in d.steps:
        if s.action in ("InsertRelatorConjugate", "DeleteRelatorConjugate"):
            assert 0 <= s.relator_index < len(p.relators)


def test_engine_validation():
    with pytest.raises(ValueError):
        CertificateEngine(1)
