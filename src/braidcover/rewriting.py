"""Derivation certificates for identities in finitely presented groups.

A Derivation witnesses an equality u = v in the group presented by a
Presentation.  It is a sequence of elementary moves, each of which
preserves the group element represented by the current word:

  InsertRelatorConjugate  insert c r^±1 c^-1 at a position
  DeleteRelatorConjugate  delete an exact occurrence of c r^±1 c^-1
  FreeCancel              delete an adjacent pair g^e g^-e
  FreeInsert              insert c c^-1 at a position

Replay is exact on letter sequences: no implicit free reduction happens
between steps, so certificates are deterministic and positionally stable.
Soundness is immediate: every move multiplies by a relator conjugate or
by a word freely equal to the identity.

A step is a checked 5-tuple (DerivationStep).  A step derived from
checked values (a lemma step shifted by flatten, the inverse of a step
that replayed, a free cancel of a reduction) is built by _unchecked_step,
with no check to make again.  A replay unpacks each step and edits one
list of letters in place (_apply), so a step costs the letters it
inserts, deletes or compares, plus one memmove, rather than a copy of
the whole word.  Derivation.to_json writes the bytes of
json.dumps(payload, indent=1) from a fixed per-step template, escaping
strings with the C encoder.  Derivation.from_json checks each field over
all steps at once (one column at a time), parses each distinct
conjugator once, and builds the steps with no per-step check left to
make; a certificate that fails a column check is read again step by
step, which names the first bad step.

The engine half of the module compiles one named move at a time:
_compile_move inserts one cyclic rotation of a relator or of a certified
auxiliary identity (a lemma), or of its inverse, at a given position of a
freely reduced word, and reduces freely.  A lemma L = 1 is banked with two
bodies in items, its proof (L -> empty) and its build (empty -> L): an
item is a step or a LemmaUse, which runs one of those bodies at an offset,
so a lemma move costs one item however large the lemma's own proof is.  A
move that inserts L^-1 free-inserts L^-1 L and uses the proof.  The
engine writes one FreeInsert for each word it inserts: a lemma move's
conjugator is one step, and the inverse of a cascade of free cancels
(p + k - 1, ..., p + 1, p) is one FreeInsert at p.  Only a certificate
that is returned is flattened into steps that reference presentation
relators alone, and it is replayed flat before it is returned.

find_equality is a one-move check over every relator of a presentation:
it certifies source = target when the two are freely equal or one relator
move apart, and raises NotFound otherwise.  It tries each relator move in
turn with _compile_move, the compiler the engine uses, and keeps the first
that reaches the target.  The certificate engine never tries moves, because
its scripts name theirs, and find_equality decides nothing the engine
needs; it and NotFound stay only because the benchmark harness (perfbench)
wraps the one and catches the other.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .presentations import Presentation
from .words import (
    EMPTY,
    BraidWord,
    Generator,
    Letter,
    _trusted_word,
    format_word,
    parse_word,
)

INSERT_RELATOR = "InsertRelatorConjugate"
DELETE_RELATOR = "DeleteRelatorConjugate"
FREE_CANCEL = "FreeCancel"
FREE_INSERT = "FreeInsert"

ACTIONS = (INSERT_RELATOR, DELETE_RELATOR, FREE_CANCEL, FREE_INSERT)
_ACTION_SET = frozenset(ACTIONS)


class CertificateFormatError(ValueError):
    """Raised by Derivation.from_json on text that is not a derivation-v1
    certificate."""


class DerivationError(ValueError):
    """Raised on a malformed or inapplicable step; carries the step index."""

    def __init__(self, step_index: int, message: str):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


class DerivationStep(tuple):
    """One move of a derivation: the tuple (action, position,
    relator_index, inverse_flag, conjugator), with read-only fields of
    those names.

    The constructor checks what every step must satisfy, and raises
    ValueError otherwise: a known action, int position >= 0 and
    relator_index (bool is not an int here), a bool inverse_flag and a
    BraidWord conjugator.  A replay then unpacks the tuple and checks only
    what depends on the word.  A step equals and hashes as its plain
    5-tuple of fields, so it also equals a plain tuple with the same
    fields; it is never a plain tuple, and replay rejects one."""

    __slots__ = ()

    def __new__(cls, action: str, position: int, relator_index: int = 0,
                inverse_flag: bool = False, conjugator: BraidWord = EMPTY):
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r}")
        if type(position) is not int:
            raise ValueError(f"position must be an int, got {position!r}")
        if position < 0:
            raise ValueError("negative position")
        if type(relator_index) is not int:
            raise ValueError(f"relator index must be an int, got {relator_index!r}")
        if type(inverse_flag) is not bool:
            raise ValueError(f"inverse flag must be a bool, got {inverse_flag!r}")
        if not isinstance(conjugator, BraidWord):
            raise ValueError(f"conjugator must be a BraidWord, got {conjugator!r}")
        return tuple.__new__(cls, (action, position, relator_index, inverse_flag, conjugator))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return ("%s(action=%r, position=%r, relator_index=%r, inverse_flag=%r, conjugator=%r)"
                % (type(self).__qualname__, *self))

    action = property(itemgetter(0))
    position = property(itemgetter(1))
    relator_index = property(itemgetter(2))
    inverse_flag = property(itemgetter(3))
    conjugator = property(itemgetter(4))


# the DerivationStep of a 5-tuple of fields, without the constructor's
# checks: only for fields known to pass them
_unchecked_step = partial(tuple.__new__, DerivationStep)


@dataclass(frozen=True)
class Derivation:
    source: BraidWord
    target: BraidWord
    steps: tuple[DerivationStep, ...]

    def to_json(self) -> str:
        """The derivation-v1 text: byte for byte what
        json.dumps(payload, indent=1) writes for the payload
        {"format", "from", "to", "steps": [{"action", "position",
        "relator_index", "inverse_flag", "conjugator"}, ...]}, with words
        in format_word's spelling.  Each step fills one template, strings
        are escaped by the C function encode_basestring_ascii (what
        ensure_ascii selects), actions come pre-encoded, and each
        conjugator object is formatted once: its text is cached by id(),
        which stays valid while the steps hold the object."""
        conjugators: dict[int, str] = {}
        parts = []
        for action, position, relator_index, inverse_flag, c in self.steps:
            text = conjugators.get(id(c))
            if text is None:
                text = conjugators[id(c)] = _json_string(format_word(c))
            parts.append(_STEP_JSON % (_ACTION_JSON[action], position, relator_index,
                                       _BOOL_JSON[inverse_flag], text))
        steps = "[\n" + ",\n".join(parts) + "\n ]" if parts else "[]"
        return _DERIVATION_JSON % (_json_string(format_word(self.source)),
                                   _json_string(format_word(self.target)), steps)

    @staticmethod
    def from_json(text: str) -> "Derivation":
        """Parse a derivation-v1 certificate; any malformed input raises
        CertificateFormatError, naming the first bad step if a step is
        bad.  The steps are read by _steps_by_columns, and again by
        _step_from_json, step by step, only to report an error."""
        try:
            payload = json.loads(text)
        except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
            raise CertificateFormatError(f"not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise CertificateFormatError("certificate must be a JSON object")
        if payload.get("format") != "derivation-v1":
            raise CertificateFormatError("unknown certificate format")
        raw_steps = payload.get("steps")
        if not isinstance(raw_steps, list):
            raise CertificateFormatError("steps must be a list")
        steps = _steps_by_columns(raw_steps)
        if steps is None:
            conjugators: dict[str, BraidWord] = {}
            steps = tuple([_step_from_json(i, s, conjugators) for i, s in enumerate(raw_steps)])
        return Derivation(_word_field(payload, "from", "certificate"),
                          _word_field(payload, "to", "certificate"), steps)


_json_string = json.encoder.encode_basestring_ascii
_ACTION_JSON = {a: _json_string(a) for a in ACTIONS}
_BOOL_JSON = ("false", "true")  # indexed by a bool

# json.dumps(payload, indent=1) around one step and around the certificate
_STEP_JSON = """  {
   "action": %s,
   "position": %d,
   "relator_index": %d,
   "inverse_flag": %s,
   "conjugator": %s
  }"""
_DERIVATION_JSON = """{
 "format": "derivation-v1",
 "from": %s,
 "to": %s,
 "steps": %s
}"""


def _word_field(obj: dict, key: str, where: str, default: str | None = None) -> BraidWord:
    text = obj.get(key, default)
    if not isinstance(text, str):
        raise CertificateFormatError(f"{where}: {key!r} must be a word string")
    try:
        return parse_word(text)
    except ValueError as exc:
        raise CertificateFormatError(f"{where}: {key!r}: {exc}") from None


def _int_field(obj: dict, key: str, index: int, default: int | None = None) -> int:
    value = obj.get(key, default)
    if type(value) is not int:
        raise CertificateFormatError(f"step {index}: {key!r} must be an integer")
    return value


# each field of a JSON step with its default; None marks a required field
_STEP_DEFAULTS = (("action", None), ("position", None), ("relator_index", 0),
                  ("inverse_flag", False), ("conjugator", ""))
_INT, _BOOL, _STR = {int}, {bool}, {str}


def _steps_by_columns(raw_steps: list) -> tuple[DerivationStep, ...] | None:
    """The steps of a certificate, or None if any step fails a check.

    Each field is read over all steps in one C-level pass (dict.get with
    the field's default), then checked over the whole column: the type
    sets of positions and relator indices are {int} (which rejects bool),
    of flags {bool} and of conjugators {str}, positions are >= 0 and
    actions lie in ACTIONS.  Each distinct conjugator string is parsed
    once.  Those are every check DerivationStep's constructor makes, so
    the steps are built with _unchecked_step and skip it.  A step that is
    not an object, an unhashable action or an unparseable conjugator
    gives None too."""
    try:
        actions, positions, refs, flags, texts = (
            list(map(dict.get, raw_steps, itertools.repeat(key), itertools.repeat(default)))
            for key, default in _STEP_DEFAULTS)
        if not (set(actions) <= _ACTION_SET
                and set(map(type, positions)) <= _INT and min(positions, default=0) >= 0
                and set(map(type, refs)) <= _INT and set(map(type, flags)) <= _BOOL
                and set(map(type, texts)) <= _STR):
            return None
        words = {text: parse_word(text) for text in dict.fromkeys(texts)}
    except (TypeError, ValueError):
        return None
    return tuple(map(_unchecked_step,
                     zip(actions, positions, refs, flags, map(words.__getitem__, texts))))


def _step_from_json(index: int, s, conjugators: dict[str, BraidWord]) -> DerivationStep:
    """One step of a certificate; conjugators maps each conjugator string
    already parsed in this certificate to its word."""
    if not isinstance(s, dict):
        raise CertificateFormatError(f"step {index}: must be a JSON object")
    action = s.get("action")
    if action not in ACTIONS:
        raise CertificateFormatError(f"step {index}: unknown action {action!r}")
    position = _int_field(s, "position", index)
    if position < 0:
        raise CertificateFormatError(f"step {index}: negative position")
    inverse_flag = s.get("inverse_flag", False)
    if type(inverse_flag) is not bool:
        raise CertificateFormatError(f"step {index}: 'inverse_flag' must be a boolean")
    relator_index = _int_field(s, "relator_index", index, 0)
    text = s.get("conjugator", "")
    conjugator = conjugators.get(text) if type(text) is str else None
    if conjugator is None:
        conjugator = conjugators[text] = _word_field(s, "conjugator", f"step {index}", "")
    return DerivationStep(action, position, relator_index, inverse_flag, conjugator)


def _inverse_letters(letters) -> list[Letter]:
    return [(g, -e) for g, e in reversed(letters)]


def _inserted_letters(p: Presentation, relator_index: int, inverse_flag: bool,
                      conjugator: BraidWord, index: int) -> list[Letter]:
    if not (0 <= relator_index < len(p.relators)):
        raise DerivationError(index, f"relator index {relator_index} out of range")
    r = p.relators[relator_index].letters
    if inverse_flag:
        r = _inverse_letters(r)
    c = conjugator.letters
    return [*c, *r, *_inverse_letters(c)]


def _apply(p: Presentation, letters: list[Letter], step: DerivationStep, index: int) -> None:
    """Apply one move to the letter list in place, or raise DerivationError
    (carrying index) and leave the list as it was.  A step deletes with
    del letters[a:b] and inserts with letters[pos:pos] = ..., so it costs
    the letters it handles rather than a copy of the word.  Every letter
    it handles comes from a validated word, so the list needs no
    revalidation, and the step's own fields were checked when it was
    built, so it is unpacked unchecked; anything but a DerivationStep is
    rejected."""
    if type(step) is not DerivationStep:
        raise DerivationError(index, "not a DerivationStep")
    action, pos, ref, inv, c = step
    if action == FREE_CANCEL:
        if pos + 1 >= len(letters):
            raise DerivationError(index, "cancel position beyond word end")
        g, e = letters[pos]
        # letters and Generators are tuples, so this compare runs in C
        if letters[pos + 1] != (g, -e):
            raise DerivationError(index, "letters at position are not an inverse pair")
        del letters[pos : pos + 2]
        return
    if action == DELETE_RELATOR:
        ins = _inserted_letters(p, ref, inv, c, index)
        k = len(ins)
        if letters[pos : pos + k] != ins:
            raise DerivationError(index, "relator conjugate not present at position")
        del letters[pos : pos + k]
        return
    if pos > len(letters):
        raise DerivationError(index, f"position {pos} beyond word of length {len(letters)}")
    if action == INSERT_RELATOR:
        letters[pos:pos] = _inserted_letters(p, ref, inv, c, index)
        return
    # FREE_INSERT
    word = c.letters
    if len(word) == 1:  # a pair, as where a lone FreeCancel is undone
        g, e = letter = word[0]
        letters[pos:pos] = (letter, (g, -e))
        return
    if not word:
        raise DerivationError(index, "free insert needs a nonempty word")
    letters[pos:pos] = [*word, *_inverse_letters(word)]


def replay(p: Presentation, d: Derivation) -> BraidWord:
    """The word d's steps turn d.source into, or DerivationError at the
    first step that does not apply.  All steps edit one copy of the
    source's letters in place, so d is left unchanged."""
    letters = list(d.source.letters)
    for i, step in enumerate(d.steps):
        _apply(p, letters, step, i)
    return BraidWord(tuple(letters))


def _foreign_letter(p: Presentation, *words: BraidWord) -> Generator | None:
    """The first generator in words that p does not have, or None."""
    gens = set(p.generators)
    return next((g for w in words for g, _e in w.letters if g not in gens), None)


def verify_derivation(p: Presentation, d: Derivation) -> bool:
    """True iff source and target are words over p's generators, and
    replay succeeds and lands exactly on the target word.

    Steps may use letters outside p: a FreeInsert or a conjugator can.
    That is sound.  Every move multiplies by a freely trivial word or by a
    conjugate of a relator, so replay proves source = target in G * F(X),
    the group of p with the extra letters X added freely.  G is a retract
    of G * F(X): sending every letter of X to 1 is a homomorphism onto G
    that fixes G's letters, and it carries that equation to source =
    target in G.  The source and target themselves must lie in G, which
    this checks in O(|source| + |target|)."""
    if _foreign_letter(p, d.source, d.target) is not None:
        return False
    try:
        final = replay(p, d)
    except DerivationError:
        return False
    return final.letters == d.target.letters


# ---------------------------------------------------------------------------
# proof algebra: mechanical step-sequence constructors


def _reduction_steps(letters: list[Letter], start: int = 0) -> list[DerivationStep]:
    """reduction_steps on a letter list, which it reduces in place.  No
    inverse pair may lie in letters[:start + 1]: the scan for the leftmost
    pair starts at start."""
    steps: list[DerivationStep] = []
    i = start
    while i < len(letters) - 1:
        g, e = letters[i]
        if letters[i + 1] == (g, -e):
            # i >= start >= 0 is an int, so the step needs no check
            steps.append(_unchecked_step((FREE_CANCEL, i, 0, False, EMPTY)))
            del letters[i : i + 2]
            # no pair lies left of i - 1: the next leftmost pair is there or later
            i = max(i - 1, 0)
        else:
            i += 1
    return steps


def reduction_steps(w: BraidWord) -> tuple[list[DerivationStep], BraidWord]:
    """FreeCancels performing canonical (leftmost-pair) free reduction of w."""
    letters = list(w.letters)
    steps = _reduction_steps(letters)
    return steps, _trusted_word(tuple(letters))


BUILD = "build"
PROOF = "proof"

# the kind of the use that undoes a use of each kind
_INVERSE_KIND = {BUILD: PROOF, PROOF: BUILD}


@dataclass(frozen=True, eq=False)
class Lemma:
    """A certified auxiliary identity L = 1, banked by reference.

    proof_items take the relator word L to the empty word and build_items,
    their inverse item by item (each cascade of FreeCancels inverted to
    one FreeInsert), take the empty word to L.  An item is a
    DerivationStep or a LemmaUse of an earlier lemma, so a body holds one
    item per move of the proof, not the flat steps of the lemmas it uses.
    proof_steps and build_steps count the flat steps of each body.  They
    differ, as a FreeInsert of k letters inverts to k FreeCancels and a
    cascade of FreeCancels to one FreeInsert.  build is the
    flattened body empty -> L: len() reads build_steps, iterating
    flattens.  A lemma holds no use of itself, so a bank is freed by
    reference counting alone."""

    name: str
    relator: BraidWord
    proof_items: tuple
    build_items: tuple
    proof_steps: int
    build_steps: int

    @property
    def build(self) -> "LemmaUse":
        return LemmaUse(self, BUILD)


@dataclass(frozen=True)
class LemmaUse:
    """An item that runs one body of a banked lemma L at offset: build
    (empty -> L) or proof (L -> empty).  L^-1 has no body of its own: it
    is free-inserted as L^-1 L, and the proof then deletes the L.  As a
    step sequence a use is its flattened body: len() reads the lemma's
    stored count of that body, iterating flattens."""

    lemma: Lemma
    kind: str
    offset: int = 0

    def __post_init__(self):
        if self.kind not in _INVERSE_KIND:
            raise ValueError(f"unknown lemma use kind {self.kind!r}")
        if type(self.offset) is not int or self.offset < 0:
            raise ValueError(f"offset must be an int >= 0, got {self.offset!r}")

    def __len__(self) -> int:
        return self.lemma.proof_steps if self.kind == PROOF else self.lemma.build_steps

    def __iter__(self):
        return iter(flatten((self,)))

    def _apply(self, letters: list[Letter], index: int) -> None:
        """The body's net effect on a letter list, in place as _apply's: a
        build places L at offset, a proof checks that L is there and
        deletes it.  The body itself passed its replay when the lemma was
        banked."""
        word = self.lemma.relator.letters
        pos = self.offset
        if self.kind == BUILD:
            if pos > len(letters):
                raise DerivationError(index, f"position {pos} beyond word of length {len(letters)}")
            letters[pos:pos] = word
            return
        k = len(word)
        if letters[pos : pos + k] != [*word]:
            raise DerivationError(index, f"lemma {self.lemma.name} not present at position")
        del letters[pos : pos + k]


def flatten(items) -> list[DerivationStep]:
    """The derivation-v1 steps of items: each use expands, recursively, to
    its lemma's body, shifted right by the use's offset."""
    out: list[DerivationStep] = []
    _flatten_into(items, 0, out)
    return out


def _flatten_into(items, offset: int, out: list[DerivationStep]) -> None:
    """flatten into out, with every step shifted right by offset.  The
    shifted copy of a DerivationStep is built with no check: offset is a
    sum of LemmaUse offsets, each an int >= 0, so only the position
    changes, and it stays an int >= 0.  Any other item goes through the
    checked constructor."""
    for item in items:
        item_type = type(item)
        if item_type is LemmaUse:
            lemma = item.lemma
            body = lemma.proof_items if item.kind == PROOF else lemma.build_items
            _flatten_into(body, offset + item.offset, out)
        elif not offset:
            out.append(item)
        else:
            action, position, relator_index, inverse_flag, conjugator = item
            step = (action, position + offset, relator_index, inverse_flag, conjugator)
            out.append(_unchecked_step(step) if item_type is DerivationStep
                       else DerivationStep(*step))


def _flat_len(items) -> int:
    return sum(len(item) if type(item) is LemmaUse else 1 for item in items)


def invert_steps(p: Presentation, start: BraidWord, steps) -> list[DerivationStep]:
    """Steps transforming replay(start, steps) back to start, by replaying
    forward and emitting each step's exact inverse in reverse order."""
    return _replay_inverted(p, start.letters, steps)[0]


def _run_insert(run: list[Letter], pos: int) -> DerivationStep:
    """The one FreeInsert at pos that undoes a cascade of FreeCancels,
    from the letters they cancelled, innermost first."""
    return _unchecked_step((FREE_INSERT, pos, 0, False, _trusted_word(tuple(reversed(run)))))


def _replay_inverted(p: Presentation, letters, items) -> tuple[list, tuple[Letter, ...]]:
    """invert_steps on items from a letter sequence, together with the
    word the replay ends on.  The replay edits one list in place.  A use is
    inverted to the use of the opposite body at the same offset, with no
    replay of the body.

    A cascade of FreeCancels, at p + k - 1, ..., p + 1, p, inverts to one
    FreeInsert at p of the k cancelled letters, read from left to right.
    For one link: Insert(p, x) then Insert(p + 1, W) place x W W^-1 x^-1,
    which is Insert(p, x W).  The cascade's letters are collected in run,
    innermost first, and its one step is written when it ends."""
    letters = list(letters)
    out: list = []
    run: list[Letter] = []  # the letters cancelled at run_pos + len(run) - 1, ..., run_pos
    run_pos = 0
    for i, step in enumerate(items):
        if type(step) is LemmaUse:
            action = None
        else:
            action, pos, ref, inv, c = step
            # the letter a FreeCancel deletes, read before the step applies
            cancelled = letters[pos : pos + 1] if action == FREE_CANCEL else None
        if run and not (action == FREE_CANCEL and pos == run_pos - 1):
            out.append(_run_insert(run, run_pos))
            run = []
        if action is None:
            step._apply(letters, i)
            out.append(LemmaUse(step.lemma, _INVERSE_KIND[step.kind], step.offset))
            continue
        _apply(p, letters, step, i)
        # step passed _apply, so it is a checked DerivationStep, and its
        # inverse, built from its fields, needs no check
        if action == FREE_CANCEL:
            run += cancelled
            run_pos = pos
        elif action == INSERT_RELATOR:
            out.append(_unchecked_step((DELETE_RELATOR, pos, ref, inv, c)))
        elif action == DELETE_RELATOR:
            out.append(_unchecked_step((INSERT_RELATOR, pos, ref, inv, c)))
        else:  # FREE_INSERT of c c^-1: cancel from the innermost pair outwards
            out.extend(_unchecked_step((FREE_CANCEL, pos + j, 0, False, EMPTY))
                       for j in range(len(c)))
    if run:
        out.append(_run_insert(run, run_pos))
    out.reverse()
    return out, tuple(letters)


# ---------------------------------------------------------------------------
# one-move checks


class NotFound(Exception):
    """Raised by find_equality when no single relator move turns the
    source into the target."""


def _lemma_from_proof(p: Presentation, name: str, relator: BraidWord, proof) -> Lemma:
    """The lemma L = 1 proved by proof, items that take L to the empty
    word.

    The proof is replayed once, at the item level, and inverted item by
    item into the build on the way: a step passes _apply's check, a use
    checks that its lemma's word is present or places it, and inverts to
    the use of the opposite body.  The replay must end on the empty word,
    or AssertionError is raised and nothing is banked."""
    try:
        build, end = _replay_inverted(p, relator.letters, proof)
    except DerivationError as exc:
        raise AssertionError(f"lemma {name}: proof failed replay: {exc}") from None
    if end:
        raise AssertionError(f"lemma {name}: proof failed replay: it does not end on the empty word")
    return Lemma(name, relator, tuple(proof), tuple(build), _flat_len(proof), _flat_len(build))


def _compile_move(p: Presentation, letters: list[Letter], source, inverse: bool,
                  rotation: int, position: int) -> list:
    """The items of one named move on the freely reduced letter list,
    which it edits in place into the move's result: rotation `rotation` of
    source's word, or of its inverse, inserted at position, then canonical
    free reduction.  source is a relator index of p or a banked Lemma;
    rotation k of a word B is B[k:] B[:k] = c B c^-1 with c = B[:k]^-1.
    The caller checks that rotation and position lie in range.

    A relator move is one step, applied with _apply's check.  A lemma move
    inserts c L c^-1 (or c L^-1 c^-1 for the inverse) at position.  The
    forward move free-inserts c, one FreeInsert if c is not empty, and
    uses the lemma's build just past c.  The inverse move free-inserts
    c L^-1 in one FreeInsert, which puts c L^-1 L c^-1 in place, and uses
    the lemma's proof to delete the L.  Either way the lemma's body is one
    use item, whatever its size.  The use is not applied here; its net
    effect is written down, and _lemma_from_proof or, after flattening,
    _checked_derivation replays the result.

    The list must be freely reduced.  That leaves no inverse pair left of
    the junction at position - 1, and the free reduction after the move
    scans from there."""
    lemma = source if type(source) is Lemma else None
    base = p.relators[source] if lemma is None else lemma.relator
    if inverse:
        base = base.inverse()
    prefix = _trusted_word(base.letters[:rotation])
    c = prefix.inverse()
    if lemma is None:
        items = [DerivationStep(INSERT_RELATOR, position, source, inverse, c)]
        _apply(p, letters, items[0], 0)
    else:
        # the caller checked position, an int >= 0: the FreeInsert needs no check
        if inverse:
            items = [_unchecked_step((FREE_INSERT, position, 0, False, c * base)),
                     LemmaUse(lemma, PROOF, position + rotation + len(base))]
        else:
            items = [LemmaUse(lemma, BUILD, position + rotation)]
            if rotation:
                items.insert(0, _unchecked_step((FREE_INSERT, position, 0, False, c)))
        letters[position:position] = c.letters + base.letters + prefix.letters
    return items + _reduction_steps(letters, max(position - 1, 0))


def _derivation(p: Presentation, source: BraidWord, target: BraidWord, body: list) -> list:
    """The items of a derivation source -> target: the free reduction of
    source, then body (which takes the reduced source to the reduced
    target), then the undone free reduction of target.  Not replayed
    here."""
    pre_steps, _ = reduction_steps(source)
    post_steps, _ = reduction_steps(target)
    return pre_steps + body + invert_steps(p, target, post_steps)


def _checked_derivation(p: Presentation, source: BraidWord, target: BraidWord,
                        body: list) -> Derivation:
    """_derivation flattened into a v1 Derivation, replayed step by step
    against p and required to land on target before it is returned, so
    neither compile bugs nor a broken lemma body escape.  Every
    certificate find_equality or CertificateEngine.certify returns passes
    this check.  A scripted lemma proof stays in items instead: its one
    replay is _lemma_from_proof's."""
    d = Derivation(source, target, tuple(flatten(_derivation(p, source, target, body))))
    if not verify_derivation(p, d):
        raise AssertionError("compiled certificate failed replay")
    return d


def find_equality(p: Presentation, source: BraidWord, target: BraidWord) -> Derivation:
    """Certificate for source = target by free moves and at most one
    relator move, or NotFound.

    Freely equal words get the free reduction of source and the undone
    free reduction of target.  Otherwise _compile_move tries each relator
    move on the freely reduced source, in the order relator index, inverse
    flag (False first), rotation, then position (0 to len(source reduced)),
    and the first whose result is the freely reduced target is returned,
    replayed.  A source or target letter outside p's generators raises
    ValueError.
    """
    foreign = _foreign_letter(p, source, target)
    if foreign is not None:
        raise ValueError(f"letter {foreign} is not a generator of {p.name}")
    src_red, tgt_red = source.free_reduce(), target.free_reduce()
    if src_red == tgt_red:
        return _checked_derivation(p, source, target, [])
    for ref, relator in enumerate(p.relators):
        for inverse in (False, True):
            for rotation in range(len(relator)):
                for position in range(len(src_red) + 1):
                    letters = list(src_red.letters)
                    body = _compile_move(p, letters, ref, inverse, rotation, position)
                    if tuple(letters) == tgt_red.letters:
                        return _checked_derivation(p, source, target, body)
    raise NotFound(f"no single relator move of {p.name} reaches the target")
