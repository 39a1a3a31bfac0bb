import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidcover.presentations import Presentation, sphere_presentation, van_buskirk
from braidcover.rewriting import (
    CertificateFormatError,
    Derivation,
    DerivationError,
    DerivationStep,
    NotFound,
    SearchBudget,
    _hits,
    _MoveTable,
    _reduce_enc,
    _splice,
    apply_step,
    find_equality,
    invert_steps,
    reduction_steps,
    replay,
    verify_derivation,
)
from braidcover.words import EMPTY, BraidWord, parse_word


@pytest.fixture(scope="module")
def vb3():
    return van_buskirk(3)


def test_find_equality_braid_relation(vb3):
    d = find_equality(vb3, parse_word("s1 s2 s1"), parse_word("s2 s1 s2"))
    assert verify_derivation(vb3, d)
    assert replay(vb3, d).letters == d.target.letters


def test_find_equality_on_relator_conjugate(vb3):
    rel = vb3.relators[0]
    c = parse_word("r1 s2^-1")
    d = find_equality(vb3, c * rel * c.inverse(), EMPTY)
    assert verify_derivation(vb3, d)
    assert d.target == EMPTY


def test_json_roundtrip(vb3):
    d = find_equality(vb3, parse_word("s1 s2 s1"), parse_word("s2 s1 s2"))
    d2 = Derivation.from_json(d.to_json())
    assert d2 == d
    assert verify_derivation(vb3, d2)
    with pytest.raises(ValueError):
        Derivation.from_json('{"format": "other"}')


def test_corrupted_certificate_rejected(vb3):
    d = find_equality(vb3, parse_word("s1 s2 s1"), parse_word("s2 s1 s2"))
    # drop a step: replay must no longer land on the target
    broken = Derivation(d.source, d.target, d.steps[:-1])
    assert not verify_derivation(vb3, broken)
    # change the target
    assert not verify_derivation(
        vb3, Derivation(d.source, parse_word("s1 s2 s1"), d.steps)
    )


def test_inverted_and_chained_derivations(vb3):
    d = find_equality(vb3, parse_word("s1 s2 s1"), parse_word("s2 s1 s2"))
    inv = Derivation(d.target, d.source, tuple(invert_steps(vb3, d.source, d.steps)))
    assert verify_derivation(vb3, inv)
    loop = Derivation(d.source, d.source, d.steps + inv.steps)
    assert verify_derivation(vb3, loop)
    assert not verify_derivation(vb3, Derivation(d.source, d.source, d.steps + d.steps))


def test_step_errors(vb3):
    w = parse_word("s1 s2")
    with pytest.raises(DerivationError):
        apply_step(vb3, w, DerivationStep("FreeCancel", 0))
    with pytest.raises(DerivationError):
        apply_step(vb3, w, DerivationStep("FreeCancel", 5))
    with pytest.raises(DerivationError):
        apply_step(vb3, w, DerivationStep("InsertRelatorConjugate", 9))
    with pytest.raises(DerivationError):
        apply_step(vb3, w, DerivationStep("FreeInsert", 0))
    with pytest.raises(ValueError):
        DerivationStep("Teleport", 0)


def test_budget_exhaustion_reports_stats():
    p = sphere_presentation(4)
    hard = parse_word("s1 s2 s3 s1 s2 s3") ** 4  # the full twist: not trivial
    with pytest.raises(NotFound) as err:
        find_equality(p, hard, EMPTY, SearchBudget(max_candidates=200))
    assert err.value.stats.candidates > 0
    assert not err.value.stats.found


def test_trivial_equality_is_empty_certificate(vb3):
    d = find_equality(vb3, parse_word("s1"), parse_word("s1"))
    assert verify_derivation(vb3, d)
    assert len(d.steps) == 0


# ---------------------------------------------------------------------------
# junction-only splice


# codes over four generators: code ^ 1 is the inverse letter
codes = st.integers(0, 7)


@st.composite
def reduced_codes(draw, max_size=10):
    return _reduce_enc(draw(st.lists(codes, max_size=max_size)))


@st.composite
def splice_cases(draw):
    """A reduced word w and a raw move: reduced, unreduced, or one that
    cancels completely or against w around a splice point."""
    w = draw(reduced_codes())
    kind = draw(st.sampled_from(("any", "reduced", "trivial", "against_w")))
    if kind == "any":
        mv = tuple(draw(st.lists(codes, max_size=8)))
    elif kind == "reduced":
        mv = draw(reduced_codes(8))
    elif kind == "trivial":
        half = draw(st.lists(codes, max_size=4))
        mv = tuple(half) + tuple(c ^ 1 for c in reversed(half))
    else:
        # the inverse of a subword of w: it cancels across both junctions
        # when spliced where that subword starts or ends
        a = draw(st.integers(0, len(w)))
        b = draw(st.integers(a, len(w)))
        middle = tuple(draw(st.lists(codes, max_size=3)))
        inv = tuple(c ^ 1 for c in reversed(w[a:b]))
        mv = inv[: len(inv) // 2] + middle + inv[len(inv) // 2 :]
    return w, mv


@given(splice_cases())
def test_splice_matches_full_reduction(case):
    w, mv = case
    red = _reduce_enc(mv)
    for q in range(len(w) + 1):
        assert _splice(w, q, red) == _reduce_enc(w[:q] + mv + w[q:])


def test_splice_cancels_through_both_junctions():
    a, A, b, B, c, C, d = 0, 1, 2, 3, 4, 5, 6
    # the move cancels at the left junction, is used up, and w closes over it
    assert _splice((a, b, A), 2, (B,)) == ()
    # the same from the right junction
    assert _splice((a, b, A), 1, (B,)) == ()
    # both junctions cancel and part of the move survives
    assert _splice((a, b, c), 1, (A, d, B)) == (d, c)
    assert _splice((a, b, c), 3, ()) == (a, b, c)


@st.composite
def hit_cases(draw):
    """A move table over random relators (some not cyclically or freely
    reduced, so that moves share reduced forms), a reduced word w and a
    goal: one splice of a move into w, or a random reduced word."""
    gens = VB3.generators
    letters = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letters, min_size=1, max_size=5), min_size=1, max_size=3))
    table = _MoveTable(Presentation("random", gens, tuple(BraidWord(tuple(r)) for r in relators)),
                       ())
    word_codes = st.lists(st.integers(0, 2 * len(gens) - 1), max_size=10).map(_reduce_enc)
    w = draw(word_codes)
    if draw(st.booleans()):
        goal = draw(word_codes)
    else:
        mv = draw(st.sampled_from(table.reduced))
        goal = _splice(w, draw(st.integers(0, len(w))), mv)
    return table, w, goal


@given(hit_cases())
def test_hits_match_splice_scan(case):
    # one lookup per position finds exactly the splices that reach goal,
    # at any position, in (move, position) order
    table, w, goal = case
    scan = [(mi, q) for mi, mv in enumerate(table.reduced) for q in range(len(w) + 1)
            if _splice(w, q, mv) == goal]
    assert _hits(table, w, goal) == scan


def test_reduction_steps_match_leftmost_pair_scan():
    def quadratic(w):
        steps, letters = [], list(w.letters)
        while True:
            for i in range(len(letters) - 1):
                (g1, e1), (g2, e2) = letters[i], letters[i + 1]
                if g1 == g2 and e1 == -e2:
                    steps.append(i)
                    del letters[i : i + 2]
                    break
            else:
                return steps, tuple(letters)

    for text in ("s1 s2 s2^-1 s1^-1 r1", "r1 s1 s1^-1 r1^-1 s2 s2^-1 s2", "s1 s1^-1 s1 s1^-1", ""):
        w = parse_word(text)
        steps, red = reduction_steps(w)
        assert ([s.position for s in steps], red.letters) == quadratic(w)
        assert all(s.action == "FreeCancel" for s in steps)


# ---------------------------------------------------------------------------
# replay on letter tuples


VB3 = van_buskirk(3)
letters3 = st.tuples(st.sampled_from(VB3.generators), st.sampled_from((1, -1)))
words3 = st.lists(letters3, max_size=4).map(lambda ls: BraidWord(tuple(ls)))


@st.composite
def valid_derivations(draw):
    """A source word and up to eight steps that all apply, drawn by
    looking at the current word (inserting relator conjugates and free
    pairs, deleting and cancelling what is present)."""
    w = draw(words3)
    source, steps = w, []
    for _ in range(draw(st.integers(0, 8))):
        pairs = [i for i in range(len(w) - 1)
                 if w.letters[i][0] == w.letters[i + 1][0]
                 and w.letters[i][1] == -w.letters[i + 1][1]]
        action = draw(st.sampled_from(("InsertRelatorConjugate", "FreeInsert", "FreeCancel",
                                       "DeleteRelatorConjugate")))
        if action == "FreeCancel" and pairs:
            step = DerivationStep(action, draw(st.sampled_from(pairs)))
        elif action == "DeleteRelatorConjugate" and steps and \
                steps[-1].action == "InsertRelatorConjugate":
            last = steps[-1]
            step = DerivationStep(action, last.position, last.relator_index,
                                  last.inverse_flag, last.conjugator)
        elif action == "FreeInsert":
            step = DerivationStep(action, draw(st.integers(0, len(w))),
                                  conjugator=draw(words3.filter(len)))
        else:
            step = DerivationStep("InsertRelatorConjugate", draw(st.integers(0, len(w))),
                                  draw(st.integers(0, len(VB3.relators) - 1)),
                                  draw(st.booleans()), draw(words3))
        w = apply_step(VB3, w, step)
        steps.append(step)
    return Derivation(source, w, tuple(steps))


def corrupt(step: DerivationStep, how: str) -> DerivationStep:
    if how == "position":
        return DerivationStep(step.action, step.position + 1000, step.relator_index,
                              step.inverse_flag, step.conjugator)
    if how == "relator":
        return DerivationStep(step.action, step.position, step.relator_index + 99,
                              step.inverse_flag, step.conjugator)
    if how == "flip":
        return DerivationStep(step.action, step.position, step.relator_index,
                              not step.inverse_flag, step.conjugator)
    return DerivationStep("FreeCancel", step.position)


def stepwise(d: Derivation):
    """Reference: one validated BraidWord per step via apply_step."""
    w = d.source
    try:
        for i, step in enumerate(d.steps):
            w = apply_step(VB3, w, step, i)
    except DerivationError as exc:
        return ("error", exc.step_index)
    return ("word", w)


def replayed(d: Derivation):
    try:
        return ("word", replay(VB3, d))
    except DerivationError as exc:
        return ("error", exc.step_index)


@given(valid_derivations(), st.data())
def test_replay_matches_stepwise_apply(d, data):
    assert replayed(d) == stepwise(d) == ("word", d.target)
    assert verify_derivation(VB3, Derivation(d.target, d.source,
                                             tuple(invert_steps(VB3, d.source, d.steps))))
    if d.steps:
        k = data.draw(st.integers(0, len(d.steps) - 1))
        how = data.draw(st.sampled_from(("position", "relator", "flip", "cancel")))
        steps = list(d.steps)
        steps[k] = corrupt(steps[k], how)
        bad = Derivation(d.source, d.target, tuple(steps))
        outcome = replayed(bad)
        assert outcome == stepwise(bad)
        # steps before k still apply, and step k cannot
        if how == "position" or (how == "relator" and "Relator" in steps[k].action):
            assert outcome == ("error", k)


# ---------------------------------------------------------------------------
# certificate parsing is total


def test_from_json_rejects_malformed_certificates(vb3):
    d = find_equality(vb3, parse_word("s1 s2 s1"), parse_word("s2 s1 s2"))
    payload = json.loads(d.to_json())
    del payload["steps"][0]["action"]
    with pytest.raises(CertificateFormatError, match="step 0"):
        Derivation.from_json(json.dumps(payload))
    for text in ("[1]", "", "{", "null", '{"format": "derivation-v1"}',
                 '{"format": "derivation-v1", "from": "s1", "to": "s1", "steps": [1]}',
                 '{"format": "derivation-v1", "from": "q1", "to": "", "steps": []}',
                 '{"format": "derivation-v1", "from": 3, "to": "", "steps": []}'):
        with pytest.raises(CertificateFormatError):
            Derivation.from_json(text)
    for bad in ({"position": "0"}, {"position": True}, {"relator_index": 1.5},
                {"inverse_flag": "yes"}, {"inverse_flag": 1}, {"conjugator": "q2"}):
        payload = json.loads(d.to_json())
        payload["steps"][0].update(bad)
        text = json.dumps(payload)
        with pytest.raises(CertificateFormatError):
            Derivation.from_json(text)


def _step_values():
    return st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=6),
                     st.sampled_from(("FreeCancel", "InsertRelatorConjugate", "s1 r2^-1")),
                     st.lists(st.integers(), max_size=2))


@given(st.dictionaries(st.sampled_from(("action", "position", "relator_index",
                                        "inverse_flag", "conjugator")),
                       _step_values()))
def test_from_json_is_total_on_steps(step):
    text = json.dumps({"format": "derivation-v1", "from": "s1", "to": "s1", "steps": [step]})
    try:
        d = Derivation.from_json(text)
    except CertificateFormatError:
        return
    (s,) = d.steps
    assert type(s.position) is int and type(s.relator_index) is int
    assert type(s.inverse_flag) is bool
    assert Derivation.from_json(d.to_json()) == d
    verify_derivation(VB3, d)  # replay either lands somewhere or rejects
