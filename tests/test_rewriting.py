import copy
import functools
import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from braidcover import rewriting
from braidcover.identities import CertificateEngine, paper_claims
from braidcover.presentations import (
    Presentation,
    finite_group_presentation,
    sphere_presentation,
    van_buskirk,
)
from braidcover.rewriting import (
    ACTIONS,
    CertificateFormatError,
    Derivation,
    DerivationError,
    DerivationStep,
    NotFound,
    find_equality,
    invert_steps,
    reduction_steps,
    replay,
    verify_derivation,
)
from braidcover.words import EMPTY, BraidWord, format_word, parse_word, rho, sigma, tau

from .moves import move_hits


# the directory braidcover is imported from, for subprocesses
SRC = os.path.dirname(os.path.dirname(rewriting.__file__))


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


@pytest.fixture(scope="module")
def rn2(engine_factory):
    """The engine's certificate of r3^-1 r3^-1 = s2 s1 s1 s2 at 3 strands
    (claim rn2), 34 steps."""
    (claim,) = [c for c in paper_claims(3) if c.label == "rn2"]
    return engine_factory(3).certify(claim)


def apply_one(p, w: BraidWord, step: DerivationStep) -> BraidWord:
    """w after one step: the replay of a one-step derivation."""
    return replay(p, Derivation(w, w, (step,)))


def test_json_roundtrip(vb3, rn2):
    d = rn2
    d2 = Derivation.from_json(d.to_json())
    assert d2 == d
    assert verify_derivation(vb3, d2)
    with pytest.raises(ValueError):
        Derivation.from_json('{"format": "other"}')


def test_corrupted_certificate_rejected(vb3, rn2):
    d = rn2
    # drop a step: replay must no longer land on the target
    broken = Derivation(d.source, d.target, d.steps[:-1])
    assert not verify_derivation(vb3, broken)
    # change the target
    assert not verify_derivation(
        vb3, Derivation(d.source, d.target * parse_word("s1"), d.steps)
    )


def test_inverted_and_chained_derivations(vb3, rn2):
    d = rn2
    inv = Derivation(d.target, d.source, tuple(invert_steps(vb3, d.source, d.steps)))
    assert verify_derivation(vb3, inv)
    loop = Derivation(d.source, d.source, d.steps + inv.steps)
    assert verify_derivation(vb3, loop)
    assert not verify_derivation(vb3, Derivation(d.source, d.source, d.steps + d.steps))


def test_step_errors(vb3):
    # every way a step can fail raises DerivationError with the step's
    # index and its own message, through replay and _apply;
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
    # four steps that give w back: insert s1 s1^-1 and cancel it, twice
    restore = (DerivationStep("FreeInsert", 0, conjugator=parse_word("s1")),
               DerivationStep("FreeCancel", 0)) * 2
    for step, message in cases:
        with pytest.raises(DerivationError) as err:
            replay(vb3, Derivation(w, w, restore + (step,)))
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
    # the kernel edits a list in place; the words handed in stay as they
    # were, whether a step is replayed alone or in a derivation
    w = parse_word("s1 s2 r1")
    insert = DerivationStep("InsertRelatorConjugate", 1, 0, False, parse_word("s2"))
    after = apply_one(vb3, w, insert)
    assert w == parse_word("s1 s2 r1")
    assert len(after) == len(w) + len(vb3.relators[0]) + 2
    delete = DerivationStep("DeleteRelatorConjugate", 1, 0, False, parse_word("s2"))
    d = Derivation(w, w, (insert, delete))
    assert replay(vb3, d) == w and apply_one(vb3, after, delete) == w
    assert d.source == parse_word("s1 s2 r1") and after == replay(vb3, Derivation(w, w, (insert,)))


# ---------------------------------------------------------------------------
# a step is a checked tuple

INSERT, CANCEL = "InsertRelatorConjugate", "FreeCancel"


def test_step_checks_its_field_types():
    # a field of the wrong type; before the constructor checked types, a
    # str relator index or conjugator made verify_derivation raise, and a
    # bool position was accepted
    p = van_buskirk(2)
    for bad in ((INSERT, 0, "0"), (INSERT, 0, True), (INSERT, 0, 1.0), (CANCEL, True),
                (CANCEL, 1.0), (CANCEL, "1"), (CANCEL, None), (INSERT, 0, 0, 1),
                (INSERT, 0, 0, None), (INSERT, 0, 0, False, "s1"), (INSERT, 0, 0, False, None),
                (INSERT, 0, 0, False, parse_word("s1").letters)):
        with pytest.raises(ValueError, match="must be"):
            DerivationStep(*bad)
    with pytest.raises(ValueError, match="negative position"):
        DerivationStep(CANCEL, -1)
    with pytest.raises(ValueError, match="unknown action 'Teleport'"):
        DerivationStep("Teleport", 0)
    # a plain tuple with a step's fields is not a step: replay refuses it
    # and verify_derivation answers False
    fields = (INSERT, 0, 0, False, EMPTY)
    d = Derivation(parse_word("s1 s1^-1"), EMPTY, (fields,))
    assert not verify_derivation(p, d)
    with pytest.raises(DerivationError, match="step 0: not a DerivationStep"):
        replay(p, d)
    assert verify_derivation(p, Derivation(parse_word("s1 s1^-1"), EMPTY,
                                           (DerivationStep(CANCEL, 0),)))


# repr and hash of a few steps, read from the frozen-dataclass step that
# the tuple step replaced; the hashes under PYTHONHASHSEED=0
STEP_SAMPLES = (
    ("DerivationStep('InsertRelatorConjugate', 3, 2, True, parse_word('s1 r2^-1'))",
     "DerivationStep(action='InsertRelatorConjugate', position=3, relator_index=2, "
     "inverse_flag=True, conjugator=BraidWord(letters=((Generator(kind='s', index=1), 1), "
     "(Generator(kind='r', index=2), -1))))",
     6887629685203067884),
    ("DerivationStep('FreeCancel', 0)",
     "DerivationStep(action='FreeCancel', position=0, relator_index=0, inverse_flag=False, "
     "conjugator=BraidWord(letters=()))",
     3024324604826104143),
    ("DerivationStep('FreeInsert', 7, conjugator=parse_word('t1'))",
     "DerivationStep(action='FreeInsert', position=7, relator_index=0, inverse_flag=False, "
     "conjugator=BraidWord(letters=((Generator(kind='t', index=1), 1),)))",
     6419244626033027230),
)


def test_step_is_an_immutable_tuple_with_the_dataclass_repr_and_hash():
    step = DerivationStep(INSERT, 3, 2, True, parse_word("s1 r2^-1"))
    assert (step.action, step.position, step.relator_index, step.inverse_flag,
            step.conjugator) == (INSERT, 3, 2, True, parse_word("s1 r2^-1"))
    assert step == DerivationStep(action=INSERT, position=3, relator_index=2,
                                  inverse_flag=True, conjugator=parse_word("s1 r2^-1"))
    assert DerivationStep(CANCEL, 4) == DerivationStep(CANCEL, 4, 0, False, EMPTY)
    # equal to, and hashed as, the plain tuple of its fields, as the
    # dataclass hashed
    assert step == tuple(step) and hash(step) == hash(tuple(step)) and len(step) == 5
    assert step != DerivationStep(INSERT, 3, 2, False, parse_word("s1 r2^-1"))
    for text, expected, _hash in STEP_SAMPLES:
        assert repr(eval(text)) == expected
    with pytest.raises(AttributeError):
        step.position = 4
    with pytest.raises(AttributeError):
        step.note = "x"
    assert not hasattr(step, "__dict__")
    # no namedtuple door around the constructor's checks
    assert not hasattr(DerivationStep, "_replace") and not hasattr(DerivationStep, "_make")
    for clone in (copy.copy(step), copy.deepcopy(step), pickle.loads(pickle.dumps(step))):
        assert type(clone) is DerivationStep and clone == step


def test_step_hashes_match_the_dataclass_step():
    texts = [text for text, _repr, _hash in STEP_SAMPLES]
    code = ("from braidcover.rewriting import DerivationStep\n"
            "from braidcover.words import parse_word\n"
            f"print([hash(eval(text)) for text in {texts!r}])")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [h for _t, _r, h in STEP_SAMPLES]


def test_to_json_formats_equal_conjugators_apart():
    # the conjugator cache is keyed by object: equal words that are
    # distinct objects are each formatted, to the same bytes as before
    a, b = parse_word("s1 r2^-1"), parse_word("s1 r2^-1")
    assert a is not b and a == b
    d = Derivation(parse_word("s1 s2"), EMPTY, (
        DerivationStep("FreeInsert", 0, conjugator=a),
        DerivationStep(INSERT, 3, 1, True, b),
        DerivationStep("FreeInsert", 2, conjugator=b),
        DerivationStep("DeleteRelatorConjugate", 1, 0, False, a),
        DerivationStep(CANCEL, 0)))
    text = d.to_json()
    assert text == json_dumps_reference(d)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "090a2fbec52fe7ea"


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


def test_find_equality_needs_one_move():
    # the full twist is not trivial in B_4(S^2), and no single relator
    # move reaches the empty word from it
    p = sphere_presentation(4)
    hard = parse_word("s1 s2 s3 s1 s2 s3") ** 4
    with pytest.raises(NotFound, match=r"no single relator move of B_4\(S2\) reaches the target"):
        find_equality(p, hard, EMPTY)


def test_trivial_equality_is_empty_certificate(vb3):
    d = find_equality(vb3, parse_word("s1"), parse_word("s1"))
    assert verify_derivation(vb3, d)
    assert len(d.steps) == 0


# ---------------------------------------------------------------------------
# one-move checks against the tests' reference (tests/moves.py)


def _reduced(letters) -> BraidWord:
    return BraidWord(tuple(letters)).free_reduce()


def _insert(w: BraidWord, p: Presentation, ref: int, inverse: bool, k: int, q: int) -> BraidWord:
    """Rotation k of relator ref of p, or of its inverse, inserted at
    position q of w, freely reduced."""
    base = p.relators[ref]
    base = (base.inverse() if inverse else base).letters
    return _reduced(w.letters[:q] + base[k:] + base[:k] + w.letters[q:])


def _first_hit(p: Presentation, w: BraidWord, goal: BraidWord):
    """(relator index, inverse, rotation, position) of the reference's
    first hit over the relators of p in index order, or None."""
    for ref, relator in enumerate(p.relators):
        hits = move_hits(w, goal, relator)
        if hits:
            return (ref, *hits[0])
    return None


@st.composite
def one_source_hits(draw):
    """A relator L over VB3's generators, not freely trivial, a reduced
    word u, the class (L or L^-1) of one insertion and the word that
    insertion makes of u."""
    gens = VB3.generators
    letters = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    relator = draw(st.lists(letters, min_size=1, max_size=6)
                   .map(lambda r: BraidWord(tuple(r)))
                   .filter(lambda r: r.free_reduce().letters))
    u = draw(st.lists(letters, max_size=10).map(_reduced))
    p = Presentation("random", gens, (relator,))
    inverse = draw(st.booleans())
    k = draw(st.integers(0, len(relator) - 1))
    return relator, u, inverse, _insert(u, p, 0, inverse, k, draw(st.integers(0, len(u))))


@given(one_source_hits())
def test_one_source_hits_come_from_one_class(case):
    # no nontrivial free group element is conjugate to its inverse, so the
    # hits all rotate L or all rotate L^-1, the first by the least k
    relator, u, inverse, goal = case
    hits = move_hits(u, goal, relator)
    assert {inv for inv, _k, _q in hits} == {inverse}
    assert hits[0][1] == min(k for _inv, k, _q in hits)


# presentations find_equality is tested over, with every relator
ONE_MOVE_PRESENTATIONS = (van_buskirk(3), sphere_presentation(4),
                          finite_group_presentation("Istar"))


@st.composite
def random_insertions(draw, p: Presentation, w: BraidWord) -> BraidWord:
    """A rotation of a relator of p, or of its inverse, inserted into w at
    any position, freely reduced."""
    ref = draw(st.integers(0, len(p.relators) - 1))
    k = draw(st.integers(0, len(p.relators[ref]) - 1))
    return _insert(w, p, ref, draw(st.booleans()), k, draw(st.integers(0, len(w))))


@st.composite
def one_move_cases(draw):
    """A presentation, a random reduced word u over it and a rotation of
    any relator, or of its inverse, inserted into u at any position."""
    p = draw(st.sampled_from(ONE_MOVE_PRESENTATIONS))
    letters = st.tuples(st.sampled_from(p.generators), st.sampled_from((1, -1)))
    u = draw(st.lists(letters, max_size=12).map(_reduced))
    return p, u, draw(random_insertions(p, u))


def _assert_names_first_hit(p: Presentation, d: Derivation) -> None:
    # source and target are reduced, so no free move precedes the one
    # relator step: it sits at the inserted position, with a conjugator as
    # long as the rotation
    (step,) = [s for s in d.steps if s.action == "InsertRelatorConjugate"]
    named = (step.relator_index, step.inverse_flag, len(step.conjugator), step.position)
    assert named == _first_hit(p, d.source, d.target)


@given(one_move_cases())
def test_find_equality_certifies_every_one_move_target(case):
    p, u, goal = case
    d = find_equality(p, u, goal)
    assert verify_derivation(p, d)
    assert (d.source.letters, d.target.letters) == (u.letters, goal.letters)
    _assert_names_first_hit(p, d)


@given(one_move_cases(), st.data())
def test_find_equality_fails_only_without_a_hit(case, data):
    # a second insertion may or may not leave the goal one move from u:
    # the certificate must verify and name the reference's first hit, and
    # NotFound comes exactly when the reference finds no hit and the two
    # words are not freely equal
    p, u, goal = case
    goal = data.draw(random_insertions(p, goal))
    hit = _first_hit(p, u, goal)
    try:
        d = find_equality(p, u, goal)
    except NotFound:
        assert hit is None and u != goal
    else:
        assert verify_derivation(p, d)
        if u == goal:
            assert d.steps == ()
        else:
            _assert_names_first_hit(p, d)


def test_find_equality_on_freely_equal_words(vb3):
    # freely equal but not letter-equal: free moves only, no relator
    d = find_equality(vb3, parse_word("s1 s1^-1 s2"), parse_word("s2"))
    assert verify_derivation(vb3, d)
    assert d.steps and {step.action for step in d.steps} <= {"FreeCancel", "FreeInsert"}


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


letter_lists = st.lists(st.tuples(st.sampled_from((sigma(1), sigma(2), rho(1))),
                                  st.sampled_from((1, -1))), max_size=8)


reduced_words = letter_lists.map(lambda ls: BraidWord(tuple(ls)).free_reduce())


@given(reduced_words, reduced_words.filter(len), reduced_words)
@example(parse_word("s1 r1^-1"), parse_word("s2 r1 s1^-1"), parse_word("s2^-1"))
def test_an_inverted_cascade_is_one_free_insert(u, c, v):
    # the free reduction of u c c^-1 v, with u c, c^-1 v and u v freely
    # reduced, cancels c from its innermost letter outwards; its inverse
    # puts c c^-1 back in one step
    assume(all(x * y == (x * y).free_reduce() for x, y in ((u, c), (c.inverse(), v), (u, v))))
    w = u * c * c.inverse() * v
    assert invert_steps(VB3, w, reduction_steps(w)[0]) == [
        DerivationStep("FreeInsert", len(u), conjugator=c)]


@given(st.lists(st.tuples(st.sampled_from((sigma(1), sigma(2), rho(1))),
                          st.sampled_from((1, -1))), max_size=16))
def test_inverted_reduction_has_one_free_insert_per_cascade(letters):
    # inverting a free reduction gives only FreeInserts, one for each
    # maximal run of cancels at p, p - 1, ..., and replays the reduced
    # word back to the word
    w = BraidWord(tuple(letters))
    steps, reduced = reduction_steps(w)
    inverse = invert_steps(VB3, w, steps)
    runs = sum(1 for i, step in enumerate(steps)
               if i == 0 or step.position != steps[i - 1].position - 1)
    assert {step.action for step in inverse} <= {"FreeInsert"}
    assert len(inverse) == runs
    assert replay(VB3, Derivation(reduced, w, tuple(inverse))) == w


@given(letter_lists, letter_lists, st.integers(0, 8))
def test_reduction_from_the_junction_matches_a_full_scan(w, u, pos):
    # a move inserts u at pos into a freely reduced word: scanning for the
    # leftmost pair from pos - 1 gives the same steps as scanning from 0
    w = list(BraidWord(tuple(w)).free_reduce().letters)
    pos = min(pos, len(w))
    full, junction = w[:pos] + u + w[pos:], w[:pos] + u + w[pos:]
    assert rewriting._reduction_steps(full) == rewriting._reduction_steps(junction,
                                                                          max(pos - 1, 0))
    assert full == junction


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
        w = apply_one(VB3, w, step)
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
    """Reference: one validated BraidWord per step, each from a one-step
    replay."""
    w = d.source
    for i, step in enumerate(d.steps):
        try:
            w = apply_one(VB3, w, step)
        except DerivationError as exc:
            assert exc.step_index == 0
            return ("error", i)
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


def test_from_json_rejects_malformed_certificates(rn2):
    d = rn2
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
# the column reader agrees with the step-by-step reader it replaced


def _oracle_word_field(obj: dict, key: str, where: str, default=None) -> BraidWord:
    text = obj.get(key, default)
    if not isinstance(text, str):
        raise CertificateFormatError(f"{where}: {key!r} must be a word string")
    try:
        return parse_word(text)
    except ValueError as exc:
        raise CertificateFormatError(f"{where}: {key!r}: {exc}") from None


def _oracle_int_field(obj: dict, key: str, index: int, default=None) -> int:
    value = obj.get(key, default)
    if type(value) is not int:
        raise CertificateFormatError(f"step {index}: {key!r} must be an integer")
    return value


def _oracle_step(index: int, s, conjugators: dict) -> DerivationStep:
    if not isinstance(s, dict):
        raise CertificateFormatError(f"step {index}: must be a JSON object")
    action = s.get("action")
    if action not in ACTIONS:
        raise CertificateFormatError(f"step {index}: unknown action {action!r}")
    position = _oracle_int_field(s, "position", index)
    if position < 0:
        raise CertificateFormatError(f"step {index}: negative position")
    inverse_flag = s.get("inverse_flag", False)
    if type(inverse_flag) is not bool:
        raise CertificateFormatError(f"step {index}: 'inverse_flag' must be a boolean")
    relator_index = _oracle_int_field(s, "relator_index", index, 0)
    text = s.get("conjugator", "")
    conjugator = conjugators.get(text) if type(text) is str else None
    if conjugator is None:
        conjugator = conjugators[text] = _oracle_word_field(s, "conjugator", f"step {index}", "")
    return DerivationStep(action, position, relator_index, inverse_flag, conjugator)


def oracle_from_json(text: str) -> Derivation:
    """The step-by-step certificate reader that the column reader
    replaced, kept as its oracle."""
    try:
        payload = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CertificateFormatError(f"not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    if payload.get("format") != "derivation-v1":
        raise CertificateFormatError("unknown certificate format")
    raw_steps = payload.get("steps")
    if not isinstance(raw_steps, list):
        raise CertificateFormatError("steps must be a list")
    conjugators: dict = {}
    steps = tuple([_oracle_step(i, s, conjugators) for i, s in enumerate(raw_steps)])
    return Derivation(_oracle_word_field(payload, "from", "certificate"),
                      _oracle_word_field(payload, "to", "certificate"), steps)


@functools.lru_cache(maxsize=None)
def shipped_certificates() -> tuple[str, ...]:
    """The certificate text of every claim at n = 2..4."""
    return tuple(d.to_json() for n in (2, 3, 4)
                 for d in CertificateEngine(n).certify_all().values())


def _replace_field(key, value):
    def mutate(step):
        return {**step, key: value}
    return mutate


def _drop_field(key):
    def mutate(step):
        return {k: v for k, v in step.items() if k != key}
    return mutate


# every way one step can go wrong, and some ways that are still right: a
# field of the wrong type (a bool or a float for an int among them), a
# negative position or relator index, an unknown or unhashable action, a
# missing or an extra key, a step that is not an object, and an
# unparseable conjugator
STEP_MUTATIONS = (
    *(_replace_field(key, value)
      for key in ("action", "position", "relator_index", "inverse_flag", "conjugator")
      for value in ("3", 3, 0, 1, 2.5, 1.0, True, False, None, [], {}, -1)),
    _replace_field("action", "Teleport"), _replace_field("action", ["FreeCancel"]),
    _replace_field("action", "FreeInsert"), _replace_field("position", 10**20),
    *(_replace_field("conjugator", text) for text in ("q2", "s0", "s1^2", "s1  r2^-1", "")),
    *(_drop_field(key)
      for key in ("action", "position", "relator_index", "inverse_flag", "conjugator")),
    lambda step: {**step, "note": 1},
    *(lambda step, value=value: value for value in (1, "s1", [], None, True)),
)


def read(reader, text: str):
    """What reader makes of text: the derivation with the types of its
    step fields, or the message of its CertificateFormatError."""
    try:
        d = reader(text)
    except CertificateFormatError as exc:
        return ("error", str(exc))
    return ("derivation", d, [tuple(map(type, step)) for step in d.steps])


@settings(max_examples=12)
@given(st.data())
def test_column_reader_matches_the_step_reader(data):
    text = data.draw(st.sampled_from(shipped_certificates()))
    assert read(Derivation.from_json, text) == read(oracle_from_json, text)
    payload = json.loads(text)
    if not payload["steps"]:
        return
    k = data.draw(st.integers(0, len(payload["steps"]) - 1))
    for mutate in STEP_MUTATIONS:
        steps = list(payload["steps"])
        steps[k] = mutate(steps[k])
        mutant = json.dumps({**payload, "steps": steps})
        assert read(Derivation.from_json, mutant) == read(oracle_from_json, mutant)


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
