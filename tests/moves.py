"""The tests' reference for one-move insertions.

move_hits lists every insertion of one rotation of a word L, or of L^-1,
that turns a freely reduced word into a given freely reduced goal.  The
certificate engine names its moves, and find_equality tries relator moves
in order; both are checked against the first entry of this list.
"""

from braidcover.words import BraidWord


def move_hits(w: BraidWord, goal: BraidWord, word: BraidWord) -> list[tuple[bool, int, int]]:
    """Every (inverse, rotation, position) whose insertion turns w into
    goal, sorted: rotation k of word (of word^-1 if inverse), that is
    B[k:] B[:k] for B the word or its inverse, inserted at position q of
    w, then freely reduced.  w and goal must be freely reduced.

    Freely reduced words are normal forms, so w[:q] X w[q:] reduces to
    goal exactly when X reduces to w[:q]^-1 goal w[q:]^-1 reduced: each
    position is one comparison of that key with each rotation's reduced
    form.

    If word is not freely trivial, the hits all rotate word or all rotate
    its inverse: w[:q] X w[q:] = w[:q'] Y w[q':] for X conjugate to word
    and Y to its inverse would give X = g Y g^-1, g = w[:q]^-1 w[:q'], and
    no nontrivial free group element is conjugate to its inverse.  So the
    first hit has the least rotation of its class."""
    assert w == w.free_reduce() and goal == goal.free_reduce()
    rotations: dict[BraidWord, list[tuple[bool, int]]] = {}
    for inverse in (False, True):
        base = (word.inverse() if inverse else word).letters
        for k in range(len(base)):
            reduced = BraidWord(base[k:] + base[:k]).free_reduce()
            rotations.setdefault(reduced, []).append((inverse, k))
    hits = []
    for q in range(len(w) + 1):
        key = (BraidWord(w.letters[:q]).inverse() * goal
               * BraidWord(w.letters[q:]).inverse()).free_reduce()
        hits += ((inverse, k, q) for inverse, k in rotations.get(key, ()))
    hits.sort()
    return hits
