import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from braidcover import rewriting
from braidcover.presentations import Presentation, sphere_presentation, van_buskirk
from braidcover.rewriting import (
    ACTIONS,
    CertificateFormatError,
    Derivation,
    DerivationError,
    DerivationStep,
    NotFound,
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
from braidcover.words import EMPTY, BraidWord, format_word, parse_word, rho, sigma, tau


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
    # every way a step can fail raises DerivationError with the step's
    # index and its own message, through apply_step, replay and _apply;
    # _apply leaves the letter list as it was, and no caller's word changes
    w = parse_word("s1 s2")
    cases = [
        (DerivationStep("FreeCancel", 1), "cancel position beyond word end"),
        (DerivationStep("FreeCancel", 5), "cancel position beyond word end"),
        (DerivationStep("FreeCancel", 0), "letters at position are not an inverse pair"),
        (DerivationStep("DeleteRelatorConjugate", 0), "relator conjugate not present at position"),
        (DerivationStep("DeleteRelatorConjugate", 0, 0, True), "relator conjugate not present at position"),
        (DerivationStep("InsertRelatorConjugate", 9), "position 9 beyond word of length 2"),
        (DerivationStep("FreeInsert", 3, conjugator=parse_word("s1")), "position 3 beyond word of length 2"),
        (DerivationStep("FreeInsert", 0), "free insert needs a nonempty word"),
        (DerivationStep("InsertRelatorConjugate", 0, len(vb3.relators)),
         f"relator index {len(vb3.relators)} out of range"),
        (DerivationStep("DeleteRelatorConjugate", 0, -1), "relator index -1 out of range"),
    ]
    for step, message in cases:
        with pytest.raises(DerivationError) as err:
            apply_step(vb3, w, step, 4)
        assert (err.value.step_index, str(err.value)) == (4, f"step 4: {message}")
        # the same step after a cancel that gives w fails at index 1
        d = Derivation(parse_word("s1 s2 s2 s2^-1"), w, (DerivationStep("FreeCancel", 2), step))
        with pytest.raises(DerivationError) as err:
            replay(vb3, d)
        assert (err.value.step_index, str(err.value)) == (1, f"step 1: {message}")
        letters = list(w.letters)
        with pytest.raises(DerivationError):
            rewriting._apply(vb3, letters, step, 0)
        assert letters == list(w.letters)
    assert w == parse_word("s1 s2")
    with pytest.raises(ValueError):
        DerivationStep("Teleport", 0)


def test_apply_step_and_replay_leave_their_input(vb3):
    # the kernel edits a list in place; the words handed in stay as they were
    w = parse_word("s1 s2 r1")
    insert = DerivationStep("InsertRelatorConjugate", 1, 0, False, parse_word("s2"))
    after = apply_step(vb3, w, insert)
    assert w == parse_word("s1 s2 r1")
    assert len(after) == len(w) + len(vb3.relators[0]) + 2
    delete = DerivationStep("DeleteRelatorConjugate", 1, 0, False, parse_word("s2"))
    d = Derivation(w, w, (insert, delete))
    assert replay(vb3, d) == w and apply_step(vb3, after, delete) == w
    assert d.source == parse_word("s1 s2 r1") and after == replay(vb3, Derivation(w, w, (insert,)))


def test_verify_derivation_checks_the_alphabet():
    p = van_buskirk(2)
    s9 = parse_word("s9")
    assert not verify_derivation(p, Derivation(s9, s9, ()))
    assert not verify_derivation(p, Derivation(parse_word("s1"), parse_word("s1 s9 s9^-1"),
                                               (DerivationStep("FreeInsert", 1, conjugator=s9),)))
    # steps may pass through letters outside p: G is a retract of G * F
    s1 = parse_word("s1")
    through = (DerivationStep("FreeInsert", 1, conjugator=parse_word("s9 r7")),
               DerivationStep("InsertRelatorConjugate", 2, 0, True, parse_word("t1")),
               DerivationStep("DeleteRelatorConjugate", 2, 0, True, parse_word("t1")),
               DerivationStep("FreeCancel", 2), DerivationStep("FreeCancel", 1))
    assert verify_derivation(p, Derivation(s1, s1, through))


def test_find_equality_rejects_a_foreign_letter():
    p = van_buskirk(2)
    for source, target in (("s5", "s5"), ("s1", "s1 r9")):
        with pytest.raises(ValueError, match="letter (s5|r9) is not a generator"):
            find_equality(p, parse_word(source), parse_word(target))


def test_budget_exhaustion_reports_stats(monkeypatch):
    monkeypatch.setattr(rewriting, "MAX_CANDIDATES", 200)
    p = sphere_presentation(4)
    hard = parse_word("s1 s2 s3 s1 s2 s3") ** 4  # the full twist: not trivial
    with pytest.raises(NotFound, match=r"within budget \(201 candidates\)") as err:
        find_equality(p, hard, EMPTY)
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


# ---------------------------------------------------------------------------
# the v1 text is json.dumps(payload, indent=1), byte for byte


def json_dumps_reference(d: Derivation) -> str:
    """The encoder to_json replaces, kept as its oracle."""
    payload = {
        "format": "derivation-v1",
        "from": format_word(d.source),
        "to": format_word(d.target),
        "steps": [
            {
                "action": s.action,
                "position": s.position,
                "relator_index": s.relator_index,
                "inverse_flag": s.inverse_flag,
                "conjugator": format_word(s.conjugator),
            }
            for s in d.steps
        ],
    }
    return json.dumps(payload, indent=1)


any_generators = st.one_of(st.builds(sigma, st.integers(1, 12)), st.builds(rho, st.integers(1, 12)),
                           st.just(tau()))
any_words = st.lists(st.tuples(any_generators, st.sampled_from((1, -1))),
                     max_size=5).map(lambda ls: BraidWord(tuple(ls)))
any_steps = st.builds(DerivationStep, st.sampled_from(ACTIONS),
                      st.one_of(st.just(0), st.integers(0, 10**6)), st.integers(-3, 40),
                      st.booleans(), any_words)


@example(Derivation(EMPTY, EMPTY, ()))
@given(st.builds(Derivation, any_words, any_words, st.lists(any_steps, max_size=6).map(tuple)))
def test_to_json_matches_json_dumps(d):
    text = d.to_json()
    assert text == json_dumps_reference(d)
    assert Derivation.from_json(text) == d
