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

The search half of the module finds certificates for short identities by
best-first insertion of cyclic rotations of relators (and of previously
certified auxiliary identities, whose uses are compiled away so that the
final certificate only ever references presentation relators).
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass

from .presentations import Presentation
from .words import EMPTY, BraidWord, Letter, format_word, parse_word

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
        payload = {
            "format": "derivation-v1",
            "from": format_word(self.source),
            "to": format_word(self.target),
            "steps": [
                {
                    "action": s.action,
                    "position": s.position,
                    "relator_index": s.relator_index,
                    "inverse_flag": s.inverse_flag,
                    "conjugator": format_word(s.conjugator),
                }
                for s in self.steps
            ],
        }
        return json.dumps(payload, indent=1)

    @staticmethod
    def from_json(text: str) -> "Derivation":
        """Parse a derivation-v1 certificate; any malformed input raises
        CertificateFormatError."""
        try:
            payload = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise CertificateFormatError(f"not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise CertificateFormatError("certificate must be a JSON object")
        if payload.get("format") != "derivation-v1":
            raise CertificateFormatError("unknown certificate format")
        raw_steps = payload.get("steps")
        if not isinstance(raw_steps, list):
            raise CertificateFormatError("steps must be a list")
        steps = tuple(_step_from_json(i, s) for i, s in enumerate(raw_steps))
        return Derivation(_word_field(payload, "from", "certificate"),
                          _word_field(payload, "to", "certificate"), steps)


def _word_field(obj: dict, key: str, where: str, default: str | None = None) -> BraidWord:
    text = obj.get(key, default)
    if not isinstance(text, str):
        raise CertificateFormatError(f"{where}: {key!r} must be a word string")
    try:
        return parse_word(text)
    except ValueError as exc:
        raise CertificateFormatError(f"{where}: {key!r}: {exc}") from None


def _int_field(obj: dict, key: str, where: str, default: int | None = None) -> int:
    value = obj.get(key, default)
    if type(value) is not int:
        raise CertificateFormatError(f"{where}: {key!r} must be an integer")
    return value


def _step_from_json(index: int, s) -> DerivationStep:
    where = f"step {index}"
    if not isinstance(s, dict):
        raise CertificateFormatError(f"{where}: must be a JSON object")
    action = s.get("action")
    if action not in ACTIONS:
        raise CertificateFormatError(f"{where}: unknown action {action!r}")
    position = _int_field(s, "position", where)
    if position < 0:
        raise CertificateFormatError(f"{where}: negative position")
    inverse_flag = s.get("inverse_flag", False)
    if type(inverse_flag) is not bool:
        raise CertificateFormatError(f"{where}: 'inverse_flag' must be a boolean")
    return DerivationStep(action, position, _int_field(s, "relator_index", where, 0),
                          inverse_flag, _word_field(s, "conjugator", where, ""))


def _inverse_letters(letters) -> tuple[Letter, ...]:
    return tuple((g, -e) for g, e in reversed(letters))


def _inserted_letters(p: Presentation, step: DerivationStep, index: int) -> tuple[Letter, ...]:
    if not (0 <= step.relator_index < len(p.relators)):
        raise DerivationError(index, f"relator index {step.relator_index} out of range")
    r = p.relators[step.relator_index].letters
    if step.inverse_flag:
        r = _inverse_letters(r)
    c = step.conjugator.letters
    return c + r + _inverse_letters(c)


def _apply(p: Presentation, letters: tuple[Letter, ...], step: DerivationStep,
           index: int) -> tuple[Letter, ...]:
    """apply_step on a letter tuple.  Every letter it handles comes from a
    validated word, so the result needs no revalidation."""
    pos = step.position
    action = step.action
    if action == FREE_CANCEL:
        if pos + 1 >= len(letters):
            raise DerivationError(index, "cancel position beyond word end")
        (g1, e1), (g2, e2) = letters[pos], letters[pos + 1]
        if g1 != g2 or e1 != -e2:
            raise DerivationError(index, "letters at position are not an inverse pair")
        return letters[:pos] + letters[pos + 2 :]
    if action == DELETE_RELATOR:
        ins = _inserted_letters(p, step, index)
        k = len(ins)
        if letters[pos : pos + k] != ins:
            raise DerivationError(index, "relator conjugate not present at position")
        return letters[:pos] + letters[pos + k :]
    if pos > len(letters):
        raise DerivationError(index, f"position {pos} beyond word of length {len(letters)}")
    if action == INSERT_RELATOR:
        return letters[:pos] + _inserted_letters(p, step, index) + letters[pos:]
    # FREE_INSERT
    c = step.conjugator.letters
    if not c:
        raise DerivationError(index, "free insert needs a nonempty word")
    return letters[:pos] + c + _inverse_letters(c) + letters[pos:]


def apply_step(p: Presentation, w: BraidWord, step: DerivationStep, index: int = 0) -> BraidWord:
    """Apply one move to w, raising DerivationError if it does not apply."""
    return BraidWord(_apply(p, w.letters, step, index))


def replay(p: Presentation, d: Derivation) -> BraidWord:
    letters = d.source.letters
    for i, step in enumerate(d.steps):
        letters = _apply(p, letters, step, i)
    return BraidWord(letters)


def verify_derivation(p: Presentation, d: Derivation) -> bool:
    """True iff replay succeeds and lands exactly on the target word."""
    try:
        final = replay(p, d)
    except DerivationError:
        return False
    return final.letters == d.target.letters


# ---------------------------------------------------------------------------
# proof algebra: mechanical step-sequence constructors


def _reduction_steps(letters) -> tuple[list[DerivationStep], tuple[Letter, ...]]:
    steps: list[DerivationStep] = []
    letters = list(letters)
    i = 0
    while i < len(letters) - 1:
        (g1, e1), (g2, e2) = letters[i], letters[i + 1]
        if g1 == g2 and e1 == -e2:
            steps.append(DerivationStep(FREE_CANCEL, i))
            del letters[i : i + 2]
            # no pair lies left of i - 1: the next leftmost pair is there or later
            i = max(i - 1, 0)
        else:
            i += 1
    return steps, tuple(letters)


def reduction_steps(w: BraidWord) -> tuple[list[DerivationStep], BraidWord]:
    """FreeCancels performing canonical (leftmost-pair) free reduction of w."""
    steps, letters = _reduction_steps(w.letters)
    return steps, BraidWord(letters)


def pair_insert_steps(c: BraidWord, pos: int) -> list[DerivationStep]:
    """Single-letter FreeInserts building the literal word c c^-1 at pos."""
    steps = []
    for i, let in enumerate(c.letters):
        steps.append(DerivationStep(FREE_INSERT, pos + i, conjugator=BraidWord((let,))))
    return steps


def shift_steps(steps, offset: int) -> list[DerivationStep]:
    """Re-anchor a step sequence inside a larger word with a stable prefix."""
    return [
        DerivationStep(s.action, s.position + offset, s.relator_index, s.inverse_flag, s.conjugator)
        for s in steps
    ]


def invert_steps(p: Presentation, start: BraidWord, steps) -> list[DerivationStep]:
    """Steps transforming replay(start, steps) back to start, by replaying
    forward and emitting each step's exact inverse in reverse order."""
    return _replay_inverted(p, start.letters, steps)[0]


def _replay_inverted(p: Presentation, letters: tuple[Letter, ...],
                     steps) -> tuple[list[DerivationStep], tuple[Letter, ...]]:
    """invert_steps from a letter tuple, together with the word the replay
    ends on."""
    out: list[DerivationStep] = []
    for i, step in enumerate(steps):
        after = _apply(p, letters, step, i)
        if step.action == INSERT_RELATOR:
            out.append(DerivationStep(DELETE_RELATOR, step.position, step.relator_index, step.inverse_flag, step.conjugator))
        elif step.action == DELETE_RELATOR:
            out.append(DerivationStep(INSERT_RELATOR, step.position, step.relator_index, step.inverse_flag, step.conjugator))
        elif step.action == FREE_CANCEL:
            let = letters[step.position]
            out.append(DerivationStep(FREE_INSERT, step.position, conjugator=BraidWord((let,))))
        else:  # FREE_INSERT of c c^-1: cancel from the innermost pair outwards
            k = len(step.conjugator)
            out.extend(DerivationStep(FREE_CANCEL, step.position + j) for j in range(k))
        letters = after
    out.reverse()
    return out, letters


def concat_derivations(a: Derivation, b: Derivation) -> Derivation:
    if a.target.letters != b.source.letters:
        raise ValueError("derivations do not chain")
    return Derivation(a.source, b.target, a.steps + b.steps)


def invert_derivation(p: Presentation, d: Derivation) -> Derivation:
    return Derivation(d.target, d.source, tuple(invert_steps(p, d.source, d.steps)))


# ---------------------------------------------------------------------------
# certificate search


@dataclass(frozen=True)
class SearchBudget:
    max_candidates: int = 1_000_000
    max_length: int | None = None  # default: 4 * max(|from|, |to|, longest relator)

    def length_cap(self, source: BraidWord, target: BraidWord, relators) -> int:
        if self.max_length is not None:
            return self.max_length
        longest = max((len(r) for r in relators), default=1)
        return 4 * max(len(source), len(target), longest, 1)


@dataclass(frozen=True)
class SearchStats:
    candidates: int
    expanded: int
    found: bool


class NotFound(Exception):
    def __init__(self, stats: SearchStats, lemma: str | None = None):
        where = f"lemma {lemma}: " if lemma else ""
        super().__init__(f"{where}no certificate within budget ({stats.candidates} candidates)")
        self.stats = stats
        self.lemma = lemma


@dataclass(frozen=True)
class Lemma:
    """A certified auxiliary identity, stored as its trivial relator word L
    together with presentation-only step sequences building L and L^-1
    from the empty word (used to compile lemma applications away)."""

    name: str
    relator: BraidWord
    build: tuple[DerivationStep, ...]
    build_inverse: tuple[DerivationStep, ...]


def _lemma_from_proof(p: Presentation, name: str, proof: Derivation) -> Lemma:
    """The lemma L = 1 proved by proof, which takes L to the empty word with
    presentation-only steps.

    build (empty -> L) is made by replaying proof and inverting it step by
    step: every step passes _apply's check on the way, and the replay must
    end on the empty word, or AssertionError is raised and nothing is
    banked.  For a scripted lemma this is the proof's only replay; a
    searched one has also passed find_equality's check.  build_inverse
    (empty -> L^-1) needs no replay: free inserts build L^-1 L, then proof,
    shifted past L^-1, takes the L half to the empty word."""
    L = proof.source
    try:
        build, end = _replay_inverted(p, L.letters, proof.steps)
    except DerivationError as exc:
        raise AssertionError(f"lemma {name}: proof failed replay: {exc}") from None
    if end:
        raise AssertionError(f"lemma {name}: proof failed replay: it does not end on the empty word")
    build_inv = pair_insert_steps(L.inverse(), 0) + shift_steps(proof.steps, len(L))
    return Lemma(name, L, tuple(build), tuple(build_inv))


class _MoveTable:
    """Precompiled insertion moves: all cyclic rotations of every relator
    and lemma relator and of their inverses, encoded over small ints."""

    def __init__(self, p: Presentation, lemmas: tuple[Lemma, ...],
                 relator_subset=None):
        self.presentation = p
        gens: list = []
        for r in itertools.chain(p.relators, (l.relator for l in lemmas)):
            for g, _e in r:
                if g not in gens:
                    gens.append(g)
        for g in p.generators:
            if g not in gens:
                gens.append(g)
        self.gen_list = gens
        self.gen_code = {g: 2 * i for i, g in enumerate(gens)}
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
        # moves indexed by the letter their first/last letter cancels against
        self.by_first: dict[int, list[int]] = {}
        self.by_last: dict[int, list[int]] = {}
        for mi, mv in enumerate(self.moves):
            self.by_first.setdefault(mv[0] ^ 1, []).append(mi)
            self.by_last.setdefault(mv[-1] ^ 1, []).append(mi)

    def encode(self, w: BraidWord) -> tuple[int, ...]:
        return tuple(self.gen_code[g] + (1 if e < 0 else 0) for g, e in w)

    def decode(self, enc) -> BraidWord:
        letters: list[Letter] = []
        for code in enc:
            letters.append((self.gen_list[code // 2], -1 if code % 2 else 1))
        return BraidWord(tuple(letters))


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


def _search_reduced(table: _MoveTable, start: tuple[int, ...], goal: tuple[int, ...],
                    budget: SearchBudget, cap: int):
    """Best-first search on free-reduced encoded words.  Neighbors insert a
    relator (or lemma) rotation at a position where it cancels against the
    word boundary; bare insertions are allowed only into the empty word.
    Each candidate is spliced from the move's reduced form, cancelling only
    at the two junctions (see _splice) instead of re-reducing the word.
    Returns the move path as [(move_index, position)]."""
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
    max_candidates = budget.max_candidates
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


def _compile_path(table: _MoveTable, start_word: BraidWord, path) -> list[DerivationStep]:
    """Expand search moves into presentation-only steps with canonical
    free reduction after each insertion.

    A relator move is one step, applied with _apply's check.  A lemma move
    inserts the rotation's conjugator by free inserts and then the lemma's
    banked build (build_inverse for the inverse) shifted into place; those
    steps are not applied one by one.  Their net effect is written down
    directly: the conjugator c, then L (or L^-1), then c^-1 go in at the
    move's position.  The body passed its replay when the lemma was banked,
    and _checked_derivation or _lemma_from_proof replays the whole result."""
    p = table.presentation
    steps: list[DerivationStep] = []
    w = start_word.letters
    for mi, pos in path:
        kind, ref, inv, rot = table.origins[mi]
        base = p.relators[ref] if kind == "relator" else table.lemmas[ref].relator
        if inv:
            base = base.inverse()
        prefix = BraidWord(base.letters[:rot])
        c = prefix.inverse()
        if kind == "relator":
            steps.append(DerivationStep(INSERT_RELATOR, pos, ref, inv, c))
            w = _apply(p, w, steps[-1], len(steps) - 1)
        else:
            lem = table.lemmas[ref]
            steps += pair_insert_steps(c, pos)
            steps += shift_steps(lem.build_inverse if inv else lem.build, pos + len(prefix))
            w = w[:pos] + c.letters + base.letters + prefix.letters + w[pos:]
        red, w = _reduction_steps(w)
        steps.extend(red)
    return steps


def _move_cost(table: _MoveTable, mi: int) -> int:
    """The steps _compile_path spends on move mi, up to a constant shared by
    all moves that turn one word into the same next word.  A rotation by k
    adds a conjugator of k letters on each side, which costs k more
    FreeCancels; a lemma rotation also spends k FreeInserts on it and
    copies the lemma's build (build_inverse for the inverse)."""
    kind, ref, inv, rot = table.origins[mi]
    if kind == "relator":
        return rot
    lemma = table.lemmas[ref]
    return 2 * rot + len(lemma.build_inverse if inv else lemma.build)


def _derivation(p: Presentation, source: BraidWord, target: BraidWord,
                body: list[DerivationStep]) -> Derivation:
    """The derivation source -> target made of the free reduction of source,
    then body (which takes the reduced source to the reduced target), then
    the undone free reduction of target.  Not replayed here."""
    pre_steps, _ = reduction_steps(source)
    post_steps, _ = reduction_steps(target)
    steps = pre_steps + body + invert_steps(p, target, post_steps)
    return Derivation(source, target, tuple(steps))


def _checked_derivation(p: Presentation, source: BraidWord, target: BraidWord,
                        body: list[DerivationStep]) -> Derivation:
    """_derivation, replayed step by step against p and required to land on
    target before it is returned, so compile bugs never escape.  Every
    certificate find_equality returns passes this check.  A scripted lemma
    proof is built with _derivation instead: its one replay is
    _lemma_from_proof's."""
    d = _derivation(p, source, target, body)
    if not verify_derivation(p, d):
        raise AssertionError("compiled certificate failed replay")
    return d


def find_equality(p: Presentation, source: BraidWord, target: BraidWord,
                  budget: SearchBudget = SearchBudget(),
                  lemmas: tuple[Lemma, ...] = (),
                  relator_subset=None,
                  stats: list[SearchStats] | None = None) -> Derivation:
    """Certificate for source = target in the presented group, or NotFound.

    The returned derivation references only presentation relators; lemma
    applications found by the search are compiled into their stored
    presentation-level step sequences.  If stats is a list, the search's
    SearchStats is appended to it.
    """
    table = _MoveTable(p, lemmas, relator_subset)
    src_red = source.free_reduce()
    cap = budget.length_cap(source, target, p.relators)
    path, search_stats = _search_reduced(
        table, table.encode(src_red), table.encode(target.free_reduce()), budget, cap
    )
    if stats is not None:
        stats.append(search_stats)
    return _checked_derivation(p, source, target, _compile_path(table, src_red, path))


def search_identity(p: Presentation, w: BraidWord,
                    budget: SearchBudget = SearchBudget(),
                    lemmas: tuple[Lemma, ...] = (),
                    relator_subset=None) -> Derivation:
    """Certificate that w is trivial in the presented group, or NotFound."""
    return find_equality(p, w, EMPTY, budget, lemmas, relator_subset)
