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

A replay edits one list of letters in place (_apply), so a step costs
the letters it inserts, deletes or compares, plus one memmove, rather
than a copy of the whole word.  Derivation.to_json writes the bytes of
json.dumps(payload, indent=1) from a fixed per-step template, escaping
strings with the C encoder, and from_json parses each distinct
conjugator once per certificate.

The search half of the module (find_equality) finds certificates for
short identities by best-first insertion of cyclic rotations of relators.
Its move tables also check the certificate engine's script steps, where a
move may insert a previously certified auxiliary identity (a lemma), and
its splice and compile code serves both.  A lemma is banked as its proof
in items: an item is a step or a LemmaUse, which runs one of a banked
lemma's bodies at an offset, so a lemma move costs one item however large
the lemma's own proof is.  Only a certificate that is returned is
flattened into steps that reference presentation relators alone, and it
is replayed flat before it is returned.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from functools import cached_property

from .presentations import Presentation
from .words import EMPTY, BraidWord, Generator, Letter, format_word, parse_word

INSERT_RELATOR = "InsertRelatorConjugate"
DELETE_RELATOR = "DeleteRelatorConjugate"
FREE_CANCEL = "FreeCancel"
FREE_INSERT = "FreeInsert"

ACTIONS = (INSERT_RELATOR, DELETE_RELATOR, FREE_CANCEL, FREE_INSERT)


class CertificateFormatError(ValueError):
    """Raised by Derivation.from_json on text that is not a derivation-v1
    certificate."""


class DerivationError(ValueError):
    """Raised on a malformed or inapplicable step; carries the step index."""

    def __init__(self, step_index: int, message: str):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


@dataclass(frozen=True)
class DerivationStep:
    action: str
    position: int
    relator_index: int = 0
    inverse_flag: bool = False
    conjugator: BraidWord = EMPTY

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.position < 0:
            raise ValueError("negative position")


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
        in format_word's spelling, for steps whose fields have their
        declared types.  Each step fills one template, strings are escaped
        by the C function encode_basestring_ascii (what ensure_ascii
        selects), and each distinct conjugator is formatted once."""
        conjugators: dict[BraidWord, str] = {}
        parts = []
        for s in self.steps:
            c = conjugators.get(s.conjugator)
            if c is None:
                c = conjugators[s.conjugator] = _json_string(format_word(s.conjugator))
            parts.append(_STEP_JSON % (_json_string(s.action), s.position, s.relator_index,
                                       "true" if s.inverse_flag else "false", c))
        steps = "[\n" + ",\n".join(parts) + "\n ]" if parts else "[]"
        return _DERIVATION_JSON % (_json_string(format_word(self.source)),
                                   _json_string(format_word(self.target)), steps)

    @staticmethod
    def from_json(text: str) -> "Derivation":
        """Parse a derivation-v1 certificate; any malformed input raises
        CertificateFormatError.  Each distinct conjugator string is parsed
        once."""
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
        conjugators: dict[str, BraidWord] = {}
        steps = tuple([_step_from_json(i, s, conjugators) for i, s in enumerate(raw_steps)])
        return Derivation(_word_field(payload, "from", "certificate"),
                          _word_field(payload, "to", "certificate"), steps)


_json_string = json.encoder.encode_basestring_ascii

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


def _inserted_letters(p: Presentation, step: DerivationStep, index: int) -> list[Letter]:
    if not (0 <= step.relator_index < len(p.relators)):
        raise DerivationError(index, f"relator index {step.relator_index} out of range")
    r = p.relators[step.relator_index].letters
    if step.inverse_flag:
        r = _inverse_letters(r)
    c = step.conjugator.letters
    return [*c, *r, *_inverse_letters(c)]


def _apply(p: Presentation, letters: list[Letter], step: DerivationStep, index: int) -> None:
    """Apply one move to the letter list in place, or raise DerivationError
    (carrying index) and leave the list as it was.  A step deletes with
    del letters[a:b] and inserts with letters[pos:pos] = ..., so it costs
    the letters it handles rather than a copy of the word.  Every letter
    it handles comes from a validated word, so the list needs no
    revalidation."""
    pos = step.position
    action = step.action
    if action == FREE_CANCEL:
        if pos + 1 >= len(letters):
            raise DerivationError(index, "cancel position beyond word end")
        g, e = letters[pos]
        # equal generators are usually one object, and the tuple compare
        # takes identity before it calls Generator.__eq__
        if letters[pos + 1] != (g, -e):
            raise DerivationError(index, "letters at position are not an inverse pair")
        del letters[pos : pos + 2]
        return
    if action == DELETE_RELATOR:
        ins = _inserted_letters(p, step, index)
        k = len(ins)
        if letters[pos : pos + k] != ins:
            raise DerivationError(index, "relator conjugate not present at position")
        del letters[pos : pos + k]
        return
    if pos > len(letters):
        raise DerivationError(index, f"position {pos} beyond word of length {len(letters)}")
    if action == INSERT_RELATOR:
        letters[pos:pos] = _inserted_letters(p, step, index)
        return
    # FREE_INSERT
    c = step.conjugator.letters
    if not c:
        raise DerivationError(index, "free insert needs a nonempty word")
    letters[pos:pos] = [*c, *_inverse_letters(c)]


def apply_step(p: Presentation, w: BraidWord, step: DerivationStep, index: int = 0) -> BraidWord:
    """Apply one move to w, raising DerivationError if it does not apply.
    w is left unchanged: the move edits a copy of its letters."""
    letters = list(w.letters)
    _apply(p, letters, step, index)
    return BraidWord(tuple(letters))


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


def _reduction_steps(letters: list[Letter]) -> list[DerivationStep]:
    """reduction_steps on a letter list, which it reduces in place."""
    steps: list[DerivationStep] = []
    i = 0
    while i < len(letters) - 1:
        g, e = letters[i]
        if letters[i + 1] == (g, -e):
            steps.append(DerivationStep(FREE_CANCEL, i))
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
    return steps, BraidWord(tuple(letters))


def pair_insert_steps(c: BraidWord, pos: int) -> list[DerivationStep]:
    """Single-letter FreeInserts building the literal word c c^-1 at pos."""
    steps = []
    for i, let in enumerate(c.letters):
        steps.append(DerivationStep(FREE_INSERT, pos + i, conjugator=BraidWord((let,))))
    return steps


BUILD = "build"
BUILD_INVERSE = "build_inverse"
PROOF = "proof"
PROOF_INVERSE = "proof_inverse"

# the kind of the use that undoes a use of each kind
_INVERSE_KIND = {BUILD: PROOF, PROOF: BUILD, BUILD_INVERSE: PROOF_INVERSE,
                 PROOF_INVERSE: BUILD_INVERSE}


@dataclass(frozen=True, eq=False)
class Lemma:
    """A certified auxiliary identity L = 1, banked by reference.

    proof_items take the relator word L to the empty word and build_items,
    their item-wise inverse, take the empty word to L.  An item is a
    DerivationStep or a LemmaUse of an earlier lemma, so a body holds one
    item per move of the proof, not the flat steps of the lemmas it uses.
    proof_steps and build_steps count the flat steps.  Every FreeInsert in
    a proof is one letter, so inverting a flattened build step by step
    gives back the flattened proof: inverting a use to the use of the
    opposite body flattens to the same steps as inverting its flat body
    would.  build and build_inverse are the flattened bodies
    empty -> L and empty -> L^-1: len() reads the stored counts, iterating
    flattens."""

    name: str
    relator: BraidWord
    proof_items: tuple
    build_items: tuple
    proof_steps: int
    build_steps: int

    @property
    def build(self) -> "LemmaUse":
        return LemmaUse(self, BUILD)

    @property
    def build_inverse(self) -> "LemmaUse":
        return LemmaUse(self, BUILD_INVERSE)

    def body(self, kind: str) -> tuple:
        """The items of one body at offset 0.  build_inverse free-inserts
        L^-1 L and runs the proof on the L half; proof_inverse is its
        inverse.  Both are built on first use and kept."""
        if kind == PROOF:
            return self.proof_items
        if kind == BUILD:
            return self.build_items
        return self._build_inverse_items if kind == BUILD_INVERSE else self._proof_inverse_items

    @cached_property
    def _build_inverse_items(self) -> tuple:
        k = len(self.relator)
        return (*pair_insert_steps(self.relator.inverse(), 0), LemmaUse(self, PROOF, k))

    @cached_property
    def _proof_inverse_items(self) -> tuple:
        k = len(self.relator)
        return (LemmaUse(self, BUILD, k),
                *(DerivationStep(FREE_CANCEL, j) for j in reversed(range(k))))

    def step_count(self, kind: str) -> int:
        """The flat step count of one body."""
        own = self.proof_steps if kind in (PROOF, BUILD_INVERSE) else self.build_steps
        return own if kind in (PROOF, BUILD) else own + len(self.relator)


@dataclass(frozen=True)
class LemmaUse:
    """An item that runs one body of a banked lemma L at offset: build
    (empty -> L), build_inverse (empty -> L^-1), proof (L -> empty) or
    proof_inverse (L^-1 -> empty).  As a step sequence it is its flattened
    body: len() reads the lemma's stored counts, iterating flattens."""

    lemma: Lemma
    kind: str
    offset: int = 0

    def __len__(self) -> int:
        return self.lemma.step_count(self.kind)

    def __iter__(self):
        return iter(flatten((self,)))

    def _apply(self, letters: list[Letter], index: int) -> None:
        """The body's net effect on a letter list, in place as _apply's: a
        build places its word at offset, a proof checks that its word is
        there and deletes it.  The body itself passed its replay when the
        lemma was banked."""
        word = self.lemma.relator.letters
        word = _inverse_letters(word) if self.kind in (BUILD_INVERSE, PROOF_INVERSE) else [*word]
        pos = self.offset
        if self.kind in (BUILD, BUILD_INVERSE):
            if pos > len(letters):
                raise DerivationError(index, f"position {pos} beyond word of length {len(letters)}")
            letters[pos:pos] = word
            return
        k = len(word)
        if letters[pos : pos + k] != word:
            raise DerivationError(index, f"lemma {self.lemma.name} not present at position")
        del letters[pos : pos + k]


def flatten(items, offset: int = 0) -> list[DerivationStep]:
    """The derivation-v1 steps of items, shifted right by offset: each use
    expands, recursively, to its lemma's body."""
    out: list[DerivationStep] = []
    _flatten_into(items, offset, out)
    return out


def _flatten_into(items, offset: int, out: list[DerivationStep]) -> None:
    for item in items:
        if type(item) is LemmaUse:
            _flatten_into(item.lemma.body(item.kind), offset + item.offset, out)
        elif offset:
            out.append(DerivationStep(item.action, item.position + offset, item.relator_index,
                                      item.inverse_flag, item.conjugator))
        else:
            out.append(item)


def _flat_len(items) -> int:
    return sum(len(item) if type(item) is LemmaUse else 1 for item in items)


def invert_steps(p: Presentation, start: BraidWord, steps) -> list[DerivationStep]:
    """Steps transforming replay(start, steps) back to start, by replaying
    forward and emitting each step's exact inverse in reverse order."""
    return _replay_inverted(p, start.letters, steps)[0]


def _replay_inverted(p: Presentation, letters, items) -> tuple[list, tuple[Letter, ...]]:
    """invert_steps on items from a letter sequence, together with the
    word the replay ends on.  The replay edits one list in place.  A use is
    inverted to the use of the opposite body at the same offset, with no
    replay of the body."""
    letters = list(letters)
    out: list = []
    for i, step in enumerate(items):
        if type(step) is LemmaUse:
            step._apply(letters, i)
            out.append(LemmaUse(step.lemma, _INVERSE_KIND[step.kind], step.offset))
            continue
        action = step.action
        # the letter a FreeCancel deletes, read before the step applies
        cancelled = letters[step.position : step.position + 1] if action == FREE_CANCEL else None
        _apply(p, letters, step, i)
        if action == INSERT_RELATOR:
            out.append(DerivationStep(DELETE_RELATOR, step.position, step.relator_index, step.inverse_flag, step.conjugator))
        elif action == DELETE_RELATOR:
            out.append(DerivationStep(INSERT_RELATOR, step.position, step.relator_index, step.inverse_flag, step.conjugator))
        elif action == FREE_CANCEL:
            out.append(DerivationStep(FREE_INSERT, step.position, conjugator=BraidWord(tuple(cancelled))))
        else:  # FREE_INSERT of c c^-1: cancel from the innermost pair outwards
            k = len(step.conjugator)
            out.extend(DerivationStep(FREE_CANCEL, step.position + j) for j in range(k))
    out.reverse()
    return out, tuple(letters)


# ---------------------------------------------------------------------------
# certificate search


# candidates find_equality splices before it gives up with NotFound
MAX_CANDIDATES = 1_000_000


@dataclass(frozen=True)
class SearchStats:
    candidates: int
    expanded: int
    found: bool


class NotFound(Exception):
    def __init__(self, stats: SearchStats):
        super().__init__(f"no certificate within budget ({stats.candidates} candidates)")
        self.stats = stats


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


class _MoveTable:
    """Precompiled insertion moves: all cyclic rotations of every relator
    and lemma relator and of their inverses, encoded over small ints."""

    def __init__(self, p: Presentation, lemmas: tuple[Lemma, ...],
                 relator_subset=None):
        self.presentation = p
        self.gen_code = {g: 2 * i for i, g in enumerate(p.generators)}
        self.moves: list[tuple[int, ...]] = []
        # compile info per move: (kind, ref, inverse_flag, rotation)
        self.origins: list[tuple[str, int, bool, int]] = []
        seen: set[tuple[int, ...]] = set()
        allowed = set(range(len(p.relators))) if relator_subset is None else set(relator_subset)
        sources = [("relator", i, r) for i, r in enumerate(p.relators) if i in allowed]
        sources += [("lemma", i, l.relator) for i, l in enumerate(lemmas)]
        for kind, ref, base in sources:
            for inv in (False, True):
                word = base.inverse() if inv else base
                enc = self.encode(word)
                for k in range(len(enc)):
                    rot = enc[k:] + enc[:k]
                    if rot in seen:
                        continue
                    seen.add(rot)
                    self.moves.append(rot)
                    self.origins.append((kind, ref, inv, k))
        self.lemmas = lemmas
        # the freely reduced form of each move is what a splice inserts
        self.reduced = [_reduce_enc(mv) for mv in self.moves]
        self.by_reduced: dict[tuple[int, ...], list[int]] = {}
        for mi, red in enumerate(self.reduced):
            self.by_reduced.setdefault(red, []).append(mi)
        # moves indexed by the letter their first/last letter cancels against
        self.by_first: dict[int, list[int]] = {}
        self.by_last: dict[int, list[int]] = {}
        for mi, mv in enumerate(self.moves):
            self.by_first.setdefault(mv[0] ^ 1, []).append(mi)
            self.by_last.setdefault(mv[-1] ^ 1, []).append(mi)

    def encode(self, w: BraidWord) -> tuple[int, ...]:
        return tuple(self.gen_code[g] + (1 if e < 0 else 0) for g, e in w)


def _reduce_enc(letters) -> tuple[int, ...]:
    out: list[int] = []
    for code in letters:
        if out and out[-1] == code ^ 1:
            out.pop()
        else:
            out.append(code)
    return tuple(out)


def _splice(w: tuple[int, ...], q: int, mv: tuple[int, ...]) -> tuple[int, ...]:
    """_reduce_enc(w[:q] + mv + w[q:]) for freely reduced w and mv.

    Only the junctions can cancel: w[:q] against the head of mv, then the
    tail of mv against w[q:], and, once mv is used up, w[:i] against w[l:].
    Free reduction is confluent, so the result is the same word."""
    lw, lm = len(w), len(mv)
    i, j = q, 0
    while i and j < lm and w[i - 1] == mv[j] ^ 1:
        i -= 1
        j += 1
    k, l = lm, q
    while l < lw and k > j and mv[k - 1] == w[l] ^ 1:
        k -= 1
        l += 1
    if j == k:
        while i and l < lw and w[i - 1] == w[l] ^ 1:
            i -= 1
            l += 1
    return w[:i] + mv[j:k] + w[l:]


def _inverse_enc(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(code ^ 1 for code in reversed(letters))


def _conjugate_enc(key: tuple[int, ...], x: int) -> tuple[int, ...]:
    """_reduce_enc(x^-1 key x) for a freely reduced key."""
    key = key[1:] if key and key[0] == x else (x ^ 1,) + key
    return key[:-1] if key and key[-1] == x ^ 1 else key + (x,)


def _hits(table: _MoveTable, w: tuple[int, ...], goal: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every (move, position) whose splice turns the reduced word w into
    goal, in the order (move, position).

    A splice at q replaces w[i:l] by part of the move mv, with i <= q <= l,
    i <= pre, l >= lw - suf and l - i <= lw - lg + len(mv), where pre and
    suf are the lengths of the common prefix and suffix of w and goal, so
    only q in that window can hit.  _splice(w, q, mv) == goal exactly when
    mv is w[:q]^-1 goal w[q:]^-1 freely reduced, because reduced words are
    normal forms: each q is one lookup in table.by_reduced, and the key
    for q + 1 is the key for q conjugated by w[q]."""
    lw, lg = len(w), len(goal)
    pre = next((i for i, (x, y) in enumerate(zip(w, goal)) if x != y), min(lw, lg))
    suf = next((i for i, (x, y) in enumerate(zip(reversed(w), reversed(goal))) if x != y),
               min(lw, lg))
    longest = max(map(len, table.reduced), default=0)
    lo, hi = max(0, lg - suf - longest), min(lw, pre + lw - lg + longest)
    if lo > hi:
        return []
    key = _reduce_enc(_inverse_enc(w[:lo]) + goal + _inverse_enc(w[lo:]))
    hits = []
    for q in range(lo, hi + 1):
        for mi in table.by_reduced.get(key, ()):
            m = len(table.reduced[mi])
            if lg - suf - m <= q <= pre + lw - lg + m:
                hits.append((mi, q))
        if q < hi:
            key = _conjugate_enc(key, w[q])
    hits.sort()
    return hits


def _search_reduced(table: _MoveTable, start: tuple[int, ...], goal: tuple[int, ...], cap: int):
    """Best-first search on free-reduced encoded words.  Neighbors insert a
    relator (or lemma) rotation at a position where it cancels against the
    word boundary; bare insertions are allowed only into the empty word.
    Each candidate is spliced from the move's reduced form, cancelling only
    at the two junctions (see _splice) instead of re-reducing the word.
    Words longer than cap are dropped, and NotFound is raised past
    MAX_CANDIDATES candidates.  Returns the move path as
    [(move_index, position)]."""
    if start == goal:
        return [], SearchStats(0, 0, True)
    counter = itertools.count()
    # priority len + 3*depth: long plateaus of same-length shuffle moves
    # are explored breadth-last, short derivations first
    heap = [(len(start), next(counter), start, 0)]
    parent: dict[tuple[int, ...], tuple] = {start: None}
    candidates = 0
    expanded = 0
    moves = table.moves
    reduced = table.reduced
    max_candidates = MAX_CANDIDATES
    while heap:
        _, _, w, depth = heapq.heappop(heap)
        expanded += 1
        lw = len(w)
        if lw == 0:
            pairs = [(mi, 0) for mi in range(len(moves))]
        else:
            # insertions that cancel against the left or right boundary letter
            pairs = []
            for q in range(lw + 1):
                if q > 0:
                    pairs.extend((mi, q) for mi in table.by_first.get(w[q - 1], ()))
                if q < lw:
                    pairs.extend(
                        (mi, q)
                        for mi in table.by_last.get(w[q], ())
                        if not (q > 0 and moves[mi][0] ^ 1 == w[q - 1])
                    )
        for mi, q in pairs:
            cand = _splice(w, q, reduced[mi])
            candidates += 1
            if candidates > max_candidates:
                raise NotFound(SearchStats(candidates, expanded, False))
            if len(cand) > cap or cand in parent:
                continue
            parent[cand] = (w, mi, q)
            if cand == goal:
                path = []
                node = cand
                while parent[node] is not None:
                    prev, mj, pos = parent[node]
                    path.append((mj, pos))
                    node = prev
                path.reverse()
                return path, SearchStats(candidates, expanded, True)
            heapq.heappush(heap, (len(cand) + 3 * (depth + 1), next(counter), cand, depth + 1))
    raise NotFound(SearchStats(candidates, expanded, False))


def _compile_path(table: _MoveTable, start_word: BraidWord, path) -> list:
    """Expand search moves into items, with canonical free reduction after
    each insertion.

    A relator move is one step, applied with _apply's check.  A lemma move
    free-inserts the rotation's conjugator c and then uses the lemma's
    build (build_inverse for the inverse) just past c, so c, then L (or
    L^-1), then c^-1 go in at the move's position: one use item, whatever
    the size of the lemma's body.  The use is not applied here; its net
    effect is written down, and _lemma_from_proof or, after flattening,
    _checked_derivation replays the result."""
    p = table.presentation
    items: list = []
    w = list(start_word.letters)
    for mi, pos in path:
        kind, ref, inv, rot = table.origins[mi]
        base = p.relators[ref] if kind == "relator" else table.lemmas[ref].relator
        if inv:
            base = base.inverse()
        prefix = BraidWord(base.letters[:rot])
        c = prefix.inverse()
        if kind == "relator":
            items.append(DerivationStep(INSERT_RELATOR, pos, ref, inv, c))
            _apply(p, w, items[-1], len(items) - 1)
        else:
            items += pair_insert_steps(c, pos)
            items.append(LemmaUse(table.lemmas[ref], BUILD_INVERSE if inv else BUILD,
                                  pos + len(prefix)))
            w[pos:pos] = c.letters + base.letters + prefix.letters
        items += _reduction_steps(w)
    return items


def _move_cost(table: _MoveTable, mi: int) -> int:
    """The flat steps _compile_path spends on move mi, up to a constant
    shared by all moves that turn one word into the same next word.  A
    rotation by k adds a conjugator of k letters on each side, which costs
    k more FreeCancels; a lemma rotation also spends k FreeInserts on it
    and uses the lemma's build (build_inverse for the inverse), whose flat
    step count the lemma stores."""
    kind, ref, inv, rot = table.origins[mi]
    if kind == "relator":
        return rot
    return 2 * rot + table.lemmas[ref].step_count(BUILD_INVERSE if inv else BUILD)


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


# The certificate engine proves by checked scripts and never searches.
# find_equality, SearchStats and NotFound stay as the public certificate
# search for arbitrary words, and the benchmark harness wraps find_equality
# and reads NotFound.
def find_equality(p: Presentation, source: BraidWord, target: BraidWord) -> Derivation:
    """Certificate for source = target in the presented group, or NotFound.

    The search inserts relator rotations only, through words of at most
    four times the longest of source, target and the relators, and the
    result is flattened into derivation-v1 steps.  A source or target
    letter outside p's generators raises ValueError.
    """
    foreign = _foreign_letter(p, source, target)
    if foreign is not None:
        raise ValueError(f"letter {foreign} is not a generator of {p.name}")
    table = _MoveTable(p, ())
    src_red = source.free_reduce()
    cap = 4 * max(len(source), len(target), *map(len, p.relators), 1)
    path, _stats = _search_reduced(
        table, table.encode(src_red), table.encode(target.free_reduce()), cap
    )
    return _checked_derivation(p, source, target, _compile_path(table, src_red, path))
