import hashlib

import pytest

from braidcover import identities
from braidcover.identities import CertificateEngine, ScriptError, paper_claims
from braidcover.presentations import half_twist, van_buskirk
from braidcover.rewriting import Derivation, verify_derivation
from braidcover.words import EMPTY, gen_word, permutation_image, rho, sigma


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


@pytest.mark.parametrize("n, digest, steps", [(2, "4aca164a219e4941", 896),
                                              (3, "c26a6b605e85368e", 3167)])
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


def _scripted(engine):
    return {name for name, rec in engine.records.items() if rec.method == "scripted"}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_scripted_lemmas_replay(engine_factory, n):
    # build and build_inverse take the empty word to L and to L^-1 against
    # the bare presentation
    engine = engine_factory(n)
    p = van_buskirk(n)
    scripted = _scripted(engine)
    assert scripted == ({f"conjri_{i}" for i in range(2, n + 1)}
                        | {f"permute_rho_{i}" for i in range(2, n)} | {"mirror"})
    for name in scripted:
        lemma = engine.lemmas[name]
        assert verify_derivation(p, Derivation(EMPTY, lemma.relator, lemma.build))
        assert verify_derivation(p, Derivation(EMPTY, lemma.relator.inverse(),
                                               lemma.build_inverse))


def test_scripted_lemmas_never_search(monkeypatch):
    # every find_equality call of the seeding belongs to a searched lemma
    calls = []
    real = identities.find_equality

    def counting(p, source, *args):
        calls.append(source)
        return real(p, source, *args)

    monkeypatch.setattr(identities, "find_equality", counting)
    engine = CertificateEngine(4)
    engine.seed_all()
    searched = [name for name, rec in engine.records.items() if rec.method == "searched"]
    assert len(calls) == len(searched)
    assert [engine.lemmas[name].relator for name in searched] == calls
    for name in _scripted(engine):
        assert engine.records[name].candidates == engine.records[name].expanded == 0
    assert sum(engine.records[name].candidates for name in searched) > 0


def test_script_step_that_does_not_apply():
    engine = CertificateEngine(3)
    engine.seed()
    d = half_twist(3)
    r2, r1 = gen_word(rho(2)), gen_word(rho(1))
    s1i = gen_word(sigma(1), -1)
    # sirisi_1 rewrites rho_2 to s1^-1 rho_1 s1^-1, never to rho_1
    with pytest.raises(ScriptError) as err:
        engine.add_scripted_lemma("bad", d.inverse() * r2 * d, r1, [
            ("sirisi_1", d.inverse() * s1i * r1 * s1i * d),
            ("sirisi_1", d.inverse() * r1 * d),
        ])
    assert err.value.lemma == "bad" and err.value.step == 1
    with pytest.raises(ScriptError) as err:
        engine.add_scripted_lemma("bad", r2, r1, [("no_such_lemma", r1)])
    assert err.value.step == 0
    with pytest.raises(ScriptError) as err:  # stops short of the target
        engine.add_scripted_lemma("bad", r2, r1, [("sirisi_1", s1i * r1 * s1i)])
    assert err.value.step == 1
    assert "bad" not in engine.lemmas and "bad" not in engine.records
