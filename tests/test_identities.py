import dataclasses
import gc
import hashlib
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidcover import identities, rewriting
from braidcover.identities import CertificateEngine, ScriptError, _positive_script, paper_claims
from braidcover.presentations import half_twist, van_buskirk
from braidcover.rewriting import Derivation, verify_derivation
from braidcover.words import EMPTY, BraidWord, gen_word, permutation_image, rho, sigma

from .moves import move_hits


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


@pytest.mark.parametrize("n, digest, steps", [(2, "f17ebc69a4598a1c", 487),
                                              (3, "0910654ba7097445", 1750),
                                              (4, "9feb6698f3e22599", 4454),
                                              (5, "87be5ab5192a91f4", 9635),
                                              (6, "31b8bb1814bd038c", 18590),
                                              (7, "3a4bf4aab26b57c2", 32880),
                                              (8, "15439fd4b8c74e73", 54343)])
def test_certificates_are_pinned(engine_factory, n, digest, steps):
    # a change to the scripts or the compiler that alters any certificate
    # shows here; one that does so on purpose updates the pin
    certs = engine_factory(n).certify_all()
    text = "".join(certs[k].to_json() for k in sorted(certs))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert sum(len(d.steps) for d in certs.values()) == steps


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_certificate_steps_pass_the_step_check(engine_factory, n):
    # flatten shifts lemma steps, and the compiler inverts and reduces,
    # without the constructor's checks: every step must be one it accepts,
    # over a conjugator BraidWord's constructor accepts
    for d in engine_factory(n).certify_all().values():
        for step in d.steps:
            assert type(step) is rewriting.DerivationStep
            assert step == rewriting.DerivationStep(*step)
            assert step.conjugator == BraidWord(step.conjugator.letters)


def test_lemma_use_checks_its_fields(engine_factory):
    lemma = engine_factory(2).lemmas["rn2"]
    assert rewriting.LemmaUse(lemma, rewriting.PROOF, 3).offset == 3
    for args in ((lemma, "bogus"), (lemma, rewriting.BUILD, True), (lemma, rewriting.BUILD, -1),
                 (lemma, rewriting.BUILD, 1.0)):
        with pytest.raises(ValueError):
            rewriting.LemmaUse(*args)
    use = rewriting.LemmaUse(lemma, rewriting.BUILD)
    with pytest.raises(ValueError):
        dataclasses.replace(use, kind="bogus")
    for offset in (-1, True, 0.5):
        with pytest.raises(ValueError):
            dataclasses.replace(use, offset=offset)
    assert list(dataclasses.replace(use, offset=2)) == [
        rewriting.DerivationStep(s.action, s.position + 2, s.relator_index, s.inverse_flag,
                                 s.conjugator) for s in use]


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


def _inverse_build(lemma) -> tuple:
    # what an inverse lemma move runs at offset 0: one free insert of
    # L^-1 L, then the lemma's proof deletes the L, leaving L^-1
    k = len(lemma.relator)
    return tuple(rewriting.flatten([
        rewriting.DerivationStep("FreeInsert", 0, conjugator=lemma.relator.inverse()),
        rewriting.LemmaUse(lemma, rewriting.PROOF, k)]))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_scripted_lemmas_replay(engine_factory, n):
    # every lemma is scripted, the two fixed-size cores included.  Flattened,
    # every banked lemma's build takes the empty word to L, and the inverse
    # move's free insert and proof take it to L^-1, against the bare
    # presentation, in as many steps as the lemma's stored counts say
    engine = engine_factory(n)
    p = van_buskirk(n)
    assert {"permute_rho_core", *(f"invsig_mid_{j}" for j in range(1, n)),
            *(f"conjri_{i}" for i in range(1, n + 1)),
            *(f"twist_conj_{n}_{i}" for i in range(1, n)),
            "realdic_a", "realdic_b", "rn2", "conjw", "dconj_b", "powerab_a", "powerab_b",
            "mirror", "delta4", "permute_rho_1", f"pal_{n}"} <= set(engine.lemmas)
    for lemma in engine.lemmas.values():
        build, build_inverse = tuple(lemma.build), _inverse_build(lemma)
        assert len(build) == lemma.build_steps
        assert len(build_inverse) == lemma.proof_steps + 1
        assert verify_derivation(p, Derivation(EMPTY, lemma.relator, build))
        assert verify_derivation(p, Derivation(EMPTY, lemma.relator.inverse(), build_inverse))


def test_lemma_bank_is_pinned(engine_factory):
    # the flattened builds of L and of L^-1 over the n = 3 bank; a change
    # to the compiler or the ladder that alters a lemma body on purpose
    # updates the pin
    engine = engine_factory(3)
    text = "".join(Derivation(EMPTY, lemma.relator, tuple(lemma.build)).to_json()
                   + Derivation(EMPTY, lemma.relator.inverse(), _inverse_build(lemma)).to_json()
                   for _name, lemma in sorted(engine.lemmas.items()))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "b8d6f78c935886a1"
    assert len(engine.lemmas) == 33
    assert sum(len(lem.build) + len(_inverse_build(lem))
               for lem in engine.lemmas.values()) == 4324


def test_lemma_bank_frees_without_the_cycle_collector():
    # a banked lemma holds no use of itself, so reference counting alone
    # frees an engine's bank once the engine and its certificates go
    enabled = gc.isenabled()
    gc.disable()
    try:
        engine = CertificateEngine(4)
        certs = engine.certify_all()
        refs = [weakref.ref(lemma) for lemma in engine.lemmas.values()]
        del engine, certs
        assert refs
        assert [ref().name for ref in refs if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_no_banked_lemma_is_dead(engine_factory, n):
    # every lemma proves a claim or is used by another lemma's proof.  A
    # lemma whose two sides are the same word is exempt: a script step that
    # applies it changes nothing and is skipped
    engine = engine_factory(n)
    claims = {c.label for c in paper_claims(n)}
    used = {item.lemma.name for lem in engine.lemmas.values() for item in lem.proof_items
            if type(item) is rewriting.LemmaUse}
    unused = set(engine.lemmas) - claims - used
    assert unused == {2: {"pal_2", "twist_conj_2_1"}, 3: {"pal_3"}}.get(n, set())
    assert not any(engine.lemmas[name].relator.free_reduce().letters for name in unused)


def test_certify_all_six_replays():
    p = van_buskirk(6)
    claims = paper_claims(6)
    certs = CertificateEngine(6).certify_all()
    assert sorted(certs) == sorted(c.label for c in claims)
    for claim in claims:
        d = certs[claim.label]
        assert (d.source, d.target) == (claim.source, claim.target)
        assert verify_derivation(p, d)


def test_scripted_lemmas_never_search(monkeypatch):
    # seeding and certifying name every move: each step compiles its one
    # named move, once, where its stated word differs from the current
    # one, and not at all where it does not, so no step tries candidates.
    # The ladder is proved once: a second certify_all proves no lemma again
    compiles = [0]
    real_compile = identities._compile_move

    def counting_compile(*args):
        compiles[0] += 1
        return real_compile(*args)

    steps = []
    real_move = CertificateEngine._move

    def counting_move(self, name, index, step, current, following):
        before = compiles[0]
        items = real_move(self, name, index, step, current, following)
        steps.append((self.n, name, index, following != current, compiles[0] - before))
        return items

    monkeypatch.setattr(identities, "_compile_move", counting_compile)
    monkeypatch.setattr(CertificateEngine, "_move", counting_move)
    proved = []
    real = CertificateEngine.add_scripted_lemma

    def counting(self, name, *args):
        proved.append(name)
        return real(self, name, *args)

    monkeypatch.setattr(CertificateEngine, "add_scripted_lemma", counting)
    for n in range(2, 7):
        engine = CertificateEngine(n)
        first = engine.certify_all()
        assert sorted(proved) == sorted(engine.lemmas)
        proved.clear()
        second = engine.certify_all()
        assert proved == []
        assert {k: d.to_json() for k, d in first.items()} == \
            {k: d.to_json() for k, d in second.items()}
    assert {n for n, *_rest in steps} == set(range(2, 7))
    assert any(moves for *_rest, moves, _compiled in steps)
    assert not all(moves for *_rest, moves, _compiled in steps)
    for n, name, index, moves, compiled in steps:
        assert compiled == moves, (n, name, index)
    # every compile is some step's own
    assert compiles[0] == sum(compiled for *_rest, compiled in steps)


def test_a_step_that_needs_no_move_is_range_checked():
    # a step whose word is the current one compiles nothing, but its
    # rotation and position must still lie in range
    engine = CertificateEngine(2)
    w = gen_word(sigma(1))
    for rotation, position in ((0, 1), (0, -1), (99, 0), (-1, 0), (0, True)):
        with pytest.raises(ScriptError, match="outside"):
            engine.add_scripted_lemma("noop", w, w, [("surface", False, rotation, position, w)])
    engine.add_scripted_lemma("noop", w, w, [("surface", False, 0, 0, w)])


def test_every_script_step_is_in_range(monkeypatch):
    # every step the scripts state, the ones that need no move included,
    # names a rotation of its lemma or relator and a position of the
    # current word
    steps = []
    real = CertificateEngine._move

    def recording(self, name, index, step, current, following):
        label, _inverse, rotation, position, _word = step
        lemma = self.lemmas.get(label)
        word = lemma.relator if lemma is not None else \
            self.presentation.relators[self.relator_ids[label]]
        steps.append((self.n, name, index, rotation, len(word), position, len(current)))
        return real(self, name, index, step, current, following)

    monkeypatch.setattr(CertificateEngine, "_move", recording)
    for n in range(2, 9):
        CertificateEngine(n).certify_all()
    assert {n for n, *_rest in steps} == set(range(2, 9))
    for n, name, index, rotation, length, position, current in steps:
        assert type(rotation) is int and 0 <= rotation < length, (n, name, index)
        assert type(position) is int and 0 <= position <= current, (n, name, index)


def _reference_move_cost(source, inverse: bool, rotation: int) -> int:
    """The flat steps the compiler spends on a move, up to a constant
    shared by all moves that turn one word into the same next word.  A
    rotation by k adds a conjugator of k letters on each side, which costs
    k more FreeCancels.  A lemma move also spends one FreeInsert on its
    conjugator c, if it has one, or on c L^-1 for the inverse move, and
    runs one of the lemma's bodies: the build forward, build_steps flat
    steps, the proof for the inverse, proof_steps."""
    if type(source) is int:
        return rotation
    body = source.proof_steps if inverse else source.build_steps
    return rotation + (rotation > 0 or inverse) + body


def test_named_moves_are_the_first_hits(monkeypatch):
    # every script and claim move names the first insertion of its one
    # lemma or relator that the tests' reference (tests/moves.py) finds, so
    # certificates do not depend on whether moves are named or found; that
    # hit is one a cost model would pick.  A claim move is its lemma's
    # inverse at rotation 0, position 0
    moves = []
    real = identities._compile_move

    def recording(p, letters, source, inverse, rotation, position):
        before = tuple(letters)
        items = real(p, letters, source, inverse, rotation, position)
        moves.append((p, source, before, tuple(letters), (inverse, rotation, position)))
        return items

    monkeypatch.setattr(identities, "_compile_move", recording)
    for n in range(2, 9):
        engine = CertificateEngine(n)
        engine.seed_all()
        scripted = len(moves)
        engine.certify_all()
        for k, (p, source, before, after, named) in enumerate(moves):
            word = p.relators[source] if type(source) is int else source.relator
            hits = move_hits(BraidWord(before), BraidWord(after), word)
            assert hits and hits[0] == named, (n, k)
            costs = [_reference_move_cost(source, inv, rot) for inv, rot, _q in hits]
            assert costs[0] == min(costs), (n, k)
            if k >= scripted:
                assert type(source) is rewriting.Lemma and named == (True, 0, 0)
        assert len(moves) - scripted == sum(c.source.free_reduce() != c.target.free_reduce()
                                            for c in paper_claims(n))
        moves.clear()


@pytest.mark.parametrize("n", range(2, 9))
def test_claims_agree_with_the_ladder(engine_factory, n):
    # a claim whose label names a banked lemma is that lemma, letter for
    # letter; rjr1_1 alone has none and needs no move
    engine = engine_factory(n)
    unbanked = []
    for claim in paper_claims(n):
        lemma = engine.lemmas.get(claim.label)
        if lemma is None:
            unbanked.append(claim.label)
            assert engine.certify(claim).steps == ()
        else:
            assert (claim.source * claim.target.inverse()).letters == lemma.relator.letters
    assert unbanked == ["rjr1_1"]


def test_claim_through_tampered_lemma_fails_replay():
    # compiling a lemma move writes down a use of the lemma's banked body
    # without applying it, so a broken body must be caught by the flat
    # replay of the certificate it ends up in
    engine = CertificateEngine(2)
    engine.seed_all()
    lemma = engine.lemmas["rn2"]
    engine.lemmas["rn2"] = dataclasses.replace(lemma, proof_items=lemma.proof_items[:-1],
                                               build_items=lemma.build_items[:-1])
    claim = next(c for c in paper_claims(2) if c.label == "rn2")
    with pytest.raises(AssertionError, match="failed replay"):
        engine.certify(claim)


@pytest.mark.parametrize("corrupt", [slice(None, -1), slice(1, None)])
def test_corrupted_lemma_proof_is_not_banked(monkeypatch, corrupt):
    # a scripted proof is replayed once, as it is banked: a compiled body
    # that misses its last step ends off the empty word, one that misses its
    # first step stops at a step that does not apply; neither is banked
    real = identities._compile_move
    monkeypatch.setattr(identities, "_compile_move", lambda *args: real(*args)[corrupt])
    engine = CertificateEngine(3)
    s1, s2 = gen_word(sigma(1)), gen_word(sigma(2))
    with pytest.raises(AssertionError, match="failed replay"):
        engine.add_scripted_lemma("braid", s1 * s2 * s1, s2 * s1 * s2,
                                  [("braid_1", True, 0, 0, s2 * s1 * s2)])
    assert "braid" not in engine.lemmas


def test_item_replay_checks_each_use(engine_factory):
    # a build replays item by item from the empty word to L and inverts back
    # to the proof, each use to the use of the opposite body; a use whose
    # lemma word is not at its offset fails the replay
    p = van_buskirk(3)
    lemma = engine_factory(3).lemmas["rn2"]
    proof, end = rewriting._replay_inverted(p, (), lemma.build_items)
    assert end == lemma.relator.letters and tuple(proof) == lemma.proof_items
    k, use = next((k, item) for k, item in enumerate(lemma.build_items)
                  if type(item) is rewriting.LemmaUse and item.kind.startswith("proof"))
    moved = list(lemma.build_items)
    moved[k] = dataclasses.replace(use, offset=use.offset + 1)
    with pytest.raises(rewriting.DerivationError, match="not present"):
        rewriting._replay_inverted(p, (), moved)


def test_each_certificate_step_is_applied_once(monkeypatch):
    # compiling applies only relator moves; a lemma move compiles to a use
    # of the lemma's banked body.  Seeding replays each lemma proof once at
    # the item level, where a use applies no step of the body it runs.
    # Every claim certificate is replayed once, flat, before it is returned
    applied, relator_moves = [0], [0]
    real_apply, real_compile = rewriting._apply, rewriting._compile_move

    def counting_apply(*args):
        applied[0] += 1
        return real_apply(*args)

    def counting_compile(p, letters, source, *move):
        relator_moves[0] += type(source) is int
        return real_compile(p, letters, source, *move)

    monkeypatch.setattr(rewriting, "_apply", counting_apply)
    monkeypatch.setattr(rewriting, "_compile_move", counting_compile)
    monkeypatch.setattr(identities, "_compile_move", counting_compile)
    engine = CertificateEngine(4)
    engine.seed_all()
    lemmas = engine.lemmas.values()
    own = sum(type(item) is rewriting.DerivationStep for lem in lemmas for item in lem.proof_items)
    assert applied[0] == own + relator_moves[0]
    applied[0] = relator_moves[0] = 0
    certs = engine.certify_all()
    assert applied[0] == sum(len(d.steps) for d in certs.values()) + relator_moves[0]


def test_script_step_that_does_not_apply():
    engine = CertificateEngine(3)
    engine.seed()
    d = half_twist(3)
    r2, r1 = gen_word(rho(2)), gen_word(rho(1))
    s1i = gen_word(sigma(1), -1)
    # sirisi_1 rewrites rho_2 to s1^-1 rho_1 s1^-1, never to rho_1
    with pytest.raises(ScriptError) as err:
        engine.add_scripted_lemma("bad", d.inverse() * r2 * d, r1, [
            ("sirisi_1", True, 0, 3, d.inverse() * s1i * r1 * s1i * d),
            ("sirisi_1", True, 0, 3, d.inverse() * r1 * d),
        ])
    assert err.value.lemma == "bad" and err.value.step == 1
    with pytest.raises(ScriptError) as err:
        engine.add_scripted_lemma("bad", r2, r1, [("no_such_lemma", True, 0, 0, r1)])
    assert err.value.step == 0
    with pytest.raises(ScriptError) as err:  # stops short of the target
        engine.add_scripted_lemma("bad", r2, r1, [("sirisi_1", True, 0, 0, s1i * r1 * s1i)])
    assert err.value.step == 1
    # the move that applies, named at the wrong place, does not
    with pytest.raises(ScriptError, match="does not reach") as err:
        engine.add_scripted_lemma("bad", r2, s1i * r1 * s1i, [
            ("sirisi_1", True, 0, 1, s1i * r1 * s1i)])
    assert err.value.step == 0
    assert "bad" not in engine.lemmas


@pytest.mark.parametrize("label", ["sirisi_1", "rjr1_2"])
@pytest.mark.parametrize("field, value, message", [
    ("position", 5, "position 5 is outside"), ("position", -1, "position -1 is outside"),
    ("rotation", 4, "rotation 4 of"), ("rotation", -1, "rotation -1 of")])
def test_named_move_out_of_range(label, field, value, message):
    # a lemma move would otherwise insert at a clamped position and fail
    # only at the replay; both kinds of move are refused up front, naming
    # the lemma and the step.  Both words of the labels have 4 letters, and
    # the current word rho_3 s2 r2^-1 s2 has 4
    engine = CertificateEngine(3)
    engine.seed()
    r3, s2 = gen_word(rho(3)), gen_word(sigma(2))
    target = s2.inverse() * gen_word(rho(2)) * s2.inverse()
    move = {"position": 0, "rotation": 0, field: value}
    with pytest.raises(ScriptError, match=message) as err:
        engine.add_scripted_lemma("bad", r3, target, [
            (label, True, move["rotation"], move["position"], target)])
    assert (err.value.lemma, err.value.step) == ("bad", 0)
    assert "bad" not in engine.lemmas


def _positive(indices) -> BraidWord:
    return BraidWord(tuple((sigma(i), 1) for i in indices))


def _legal_move(label: str, before: list[int], after: list[int]) -> bool:
    """after is before with one comm_s or braid move, named by label."""
    if len(before) != len(after):
        return False
    diff = [p for p, (x, y) in enumerate(zip(before, after)) if x != y]
    if not diff:
        return False
    lo, hi = diff[0], diff[-1] + 1
    old, new = before[lo:hi], after[lo:hi]
    if len(old) == 2:
        j, k = old
        return (abs(j - k) >= 2 and new == [k, j]
                and label == f"comm_s_{min(j, k)}_{max(j, k)}")
    if len(old) == 3:
        j, k, _ = old
        return (abs(j - k) == 1 and old == [j, k, j] and new == [k, j, k]
                and label == f"braid_{min(j, k)}")
    return False


@st.composite
def equal_positive_words(draw):
    """A random positive word on m strands and the word that random braid
    and commutation moves take it to."""
    m = draw(st.integers(3, 6))
    # letters and braid triples s_j s_(j+1) s_j, so that braid moves apply
    pieces = draw(st.lists(st.one_of(st.tuples(st.integers(1, m - 1)),
                                     st.integers(1, m - 2).map(lambda j: (j, j + 1, j))),
                           max_size=6))
    u = [i for piece in pieces for i in piece]
    v = list(u)
    for q in draw(st.lists(st.integers(0, 11), max_size=25)):
        if q + 2 < len(v) and v[q] == v[q + 2] and abs(v[q] - v[q + 1]) == 1:
            v[q : q + 3] = [v[q + 1], v[q], v[q + 1]]
        elif q + 1 < len(v) and abs(v[q] - v[q + 1]) >= 2:
            v[q], v[q + 1] = v[q + 1], v[q]
    return u, v


@given(equal_positive_words())
def test_positive_script_reaches_target_by_legal_moves(words):
    u, v = words
    script = _positive_script("w", _positive(u), _positive(v))
    current = u
    for label, inverse, rotation, position, word in script:
        nxt = [g.index for g, _e in word]
        assert _legal_move(label, current, nxt)
        # the named move inserts the relator at the moved letters
        lo = next(q for q, (x, y) in enumerate(zip(current, nxt)) if x != y)
        assert (inverse, rotation, position) == (current[lo] < current[lo + 1], 0, lo)
        current = nxt
    assert current == v


@given(st.lists(st.integers(1, 4), max_size=10), st.lists(st.integers(1, 4), max_size=10))
def test_positive_script_rejects_unequal_words(u, v):
    # length and permutation are invariants of the positive braid monoid
    if len(u) == len(v) and \
            permutation_image(_positive(u), 5) == permutation_image(_positive(v), 5):
        return
    with pytest.raises(ScriptError):
        _positive_script("w", _positive(u), _positive(v))


@given(st.lists(st.integers(1, 4), min_size=1, max_size=10), st.data())
def test_positive_script_rejects_inverse_and_rho_letters(u, data):
    w = _positive(u)
    p = data.draw(st.integers(0, len(u) - 1))
    letter = data.draw(st.sampled_from([(sigma(u[p]), -1), (rho(1), 1)]))
    bad = BraidWord(w.letters[:p] + (letter,) + w.letters[p + 1 :])
    for source, target in ((bad, w), (w, bad)):
        with pytest.raises(ScriptError):
            _positive_script("w", source, target)


def test_positive_script_rejects_unequal_pure_words():
    # same length and permutation, different braids; the long pair would
    # overflow a recursive pull
    for u, v in (([1, 1], [2, 2]), ([1, 2, 2, 1], [2, 1, 1, 2]), ([2] * 1500, [3] * 1500)):
        with pytest.raises(ScriptError):
            _positive_script("w", _positive(u), _positive(v))


# sha256 of every certificate of certify_all(4), in order, then of the
# verify_suite(3) report
HASH_SEED_PROBE = """
import hashlib
from braidcover.atlas import verify_suite
from braidcover.identities import CertificateEngine
for label, d in CertificateEngine(4).certify_all().items():
    print(label, hashlib.sha256(d.to_json().encode()).hexdigest())
print(hashlib.sha256(verify_suite(3).to_json().encode()).hexdigest())
"""


def test_output_does_not_depend_on_the_hash_seed():
    # a set or dict whose order followed string hashes would show here
    src = os.path.dirname(os.path.dirname(identities.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE], capture_output=True,
                             text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(paper_claims(4)) + 1
