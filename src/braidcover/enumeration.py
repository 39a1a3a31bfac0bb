"""Coset enumeration and finite group materialization.

Todd-Coxeter in the HLT style (scan-and-fill with gap definitions and the
standard coincidence queue), multiplication tables with witness words,
isomorphism testing by generator images (each candidate map is built and
checked along the edges x -> x*g of one breadth-first walk, then checked
for bijectivity), center/quotient computation, and abelianization via an
exact integer Smith normal form (one pivoting loop whose pivots divide
each other by construction).

Every table comes from group_table, which reads it off a coset table of
the trivial subgroup: permutation groups and center quotients write their
generators' regular action as one.  So every table, whatever its order,
passes Light's associativity test in O(n^2 g) lookups for n elements and
g generators (GroupTable.check_associativity).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .presentations import Presentation
from .words import EMPTY, BraidWord, Generator, Permutation, _trusted_word, letter_codes, sigma

MAX_COSETS = 100_000


class EnumerationOverflow(Exception):
    """MAX_COSETS exceeded; inconclusive."""


class TableNotClosed(Exception):
    pass


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table of the trivial subgroup: action[c][x] is the
    coset reached from c by the letter with code x (words.letter_codes:
    2k is generator k and 2k+1 its inverse)."""

    presentation_name: str
    generators: tuple[Generator, ...]
    action: tuple[tuple[int, ...], ...]

    @property
    def num_cosets(self) -> int:
        return len(self.action)


def _inv(x: int) -> int:
    return x ^ 1


class _Enumerator:
    def __init__(self, p: Presentation, relator_words: list[list[int]]):
        self.nletters = 2 * len(p.generators)
        self.relators = relator_words
        self.table: list[list[int | None]] = [[None] * self.nletters]
        self.parent = [0]

    def rep(self, k: int) -> int:
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def alive(self, k: int) -> bool:
        return self.parent[k] == k

    def define(self, a: int, x: int) -> int:
        if len(self.table) >= MAX_COSETS:
            raise EnumerationOverflow(f"exceeded max_cosets={MAX_COSETS}")
        b = len(self.table)
        self.table.append([None] * self.nletters)
        self.parent.append(b)
        self.table[a][x] = b
        self.table[b][_inv(x)] = a
        return b

    def merge(self, a: int, b: int, queue: deque) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            self.parent[hi] = lo
            queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        queue: deque[int] = deque()
        self.merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for x in range(self.nletters):
                delta = self.table[gamma][x]
                if delta is None:
                    continue
                self.table[delta][_inv(x)] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][x] is not None:
                    self.merge(nu, self.table[mu][x], queue)
                elif self.table[nu][_inv(x)] is not None:
                    self.merge(mu, self.table[nu][_inv(x)], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][_inv(x)] = mu

    def scan_and_fill(self, a: int, word: list[int]) -> None:
        if not word:
            return
        i, j = 0, len(word) - 1
        f, b = a, a
        while True:
            while i <= j and self.table[f][word[i]] is not None:
                f = self.table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][_inv(word[j])] is not None:
                b = self.table[b][_inv(word[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                # deduction closing the gap
                if self.table[f][word[i]] is not None:
                    self.coincidence(self.table[f][word[i]], b)
                elif self.table[b][_inv(word[i])] is not None:
                    self.coincidence(self.table[b][_inv(word[i])], f)
                else:
                    self.table[f][word[i]] = b
                    self.table[b][_inv(word[i])] = f
                return
            self.define(f, word[i])

    def run(self) -> list[list[int]]:
        alpha = 0
        while alpha < len(self.table):
            if not self.alive(alpha):
                alpha += 1
                continue
            for rel in self.relators:
                self.scan_and_fill(alpha, rel)
                if not self.alive(alpha):
                    break
            if self.alive(alpha):
                for x in range(self.nletters):
                    if not self.alive(alpha):
                        break
                    if self.table[alpha][x] is None:
                        self.define(alpha, x)
            alpha += 1
        # compact live cosets, renumbering by discovery order
        live = [k for k in range(len(self.table)) if self.alive(k)]
        index = {k: i for i, k in enumerate(live)}
        out = []
        for k in live:
            row = []
            for x in range(self.nletters):
                v = self.table[k][x]
                if v is None:
                    raise TableNotClosed(f"coset {k} letter {x} undefined")
                row.append(index[self.rep(v)])
            out.append(row)
        return out


def coset_enumerate(p: Presentation) -> CosetTable:
    """Enumerate the cosets of the trivial subgroup in the group presented
    by p: for a finite group, the coset count is the group order.  Raises
    EnumerationOverflow past MAX_COSETS cosets."""
    code = letter_codes(p.generators)
    relators = [list(map(code.__getitem__, r.letters)) for r in p.relators]
    action = _Enumerator(p, relators).run()
    return CosetTable(p.name, p.generators, tuple(tuple(row) for row in action))


@dataclass(frozen=True)
class GroupTable:
    """Multiplication table of a finite group; element 0 is the identity.

    mult[i][j] is the product i*j.  words[i] is a witness word for element
    i over the source presentation's generators.
    """

    name: str
    mult: tuple[tuple[int, ...], ...]
    generators: tuple[Generator, ...]
    generator_ids: tuple[int, ...]
    words: tuple[BraidWord, ...]

    @property
    def size(self) -> int:
        return len(self.mult)

    def inverse(self, i: int) -> int:
        return self.mult[i].index(0)

    def order_of(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.mult[x][i]
            k += 1
        return k

    def order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for i in range(self.size):
            o = self.order_of(i)
            hist[o] = hist.get(o, 0) + 1
        return hist

    def evaluate(self, w: BraidWord) -> int:
        gid = {g: e for g, e in zip(self.generators, self.generator_ids)}
        x = 0
        for g, e in w:
            v = gid[g]
            if e == -1:
                v = self.inverse(v)
            x = self.mult[x][v]
        return x

    def _right_closure(self, start: list[int], factors: list[int]) -> set[int]:
        """Elements reached from start by right multiplication by factors."""
        seen = set(start)
        frontier = list(start)
        while frontier:
            x = frontier.pop()
            for g in factors:
                y = self.mult[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def subgroup_generated(self, gens: list[int]) -> set[int]:
        return self._right_closure([0], [*gens, *map(self.inverse, gens)])

    def center(self) -> set[int]:
        return {
            i for i in range(self.size)
            if all(self.mult[i][j] == self.mult[j][i] for j in range(self.size))
        }

    def check_associativity(self) -> None:
        """Light's associativity test, in O(size^2 * generators) lookups.

        Let T be the set of z with (xz)y = x(zy) for all x and y.  T is
        closed under products: for a, b in T,
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  So once T
        contains a set that generates the table as a magma, T is the whole
        table.  The check confirms that the generator elements and their
        inverses reach every element by right multiplication, starting from
        them (the identity is not known to lie in T), then tests
        (xa)y = x(ay) for those a.  With no generators it starts from 0.
        """
        m = self.mult
        seeds = sorted({*self.generator_ids, *map(self.inverse, self.generator_ids)}) or [0]
        if len(self._right_closure(seeds, seeds)) != self.size:
            raise AssertionError("generators do not generate the table")
        for a in seeds:
            row_a = m[a]
            for x, row_x in enumerate(m):
                if m[row_x[a]] != tuple(map(row_x.__getitem__, row_a)):
                    raise AssertionError(f"associativity fails at x = {x}, a = {a}")


def group_table(t: CosetTable) -> GroupTable:
    """Materialize the group from a coset table of the trivial subgroup.

    Element d is coset d, with the witness word of a breadth-first tree
    from coset 0.  Column d of the table sends i to i * words[d], so for a
    tree edge c -x-> d it is column c moved by the letter x.
    """
    n = t.num_cosets
    code = letter_codes(t.generators)
    words: list[BraidWord | None] = [None] * n
    words[0] = EMPTY
    # column 0 is the identity; every other is replaced when reached
    columns = [list(range(n))] * n
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for letter, x in code.items():
            d = t.action[c][x]
            if words[d] is None:
                words[d] = words[c] * _trusted_word((letter,))
                columns[d] = [t.action[i][x] for i in columns[c]]
                queue.append(d)
    if any(w is None for w in words):
        raise TableNotClosed("coset table not transitive")
    table = GroupTable(
        name=t.presentation_name,
        mult=tuple(zip(*columns)),
        generators=t.generators,
        generator_ids=tuple(t.action[0][code[g, 1]] for g in t.generators),
        words=tuple(words),
    )
    table.check_associativity()
    return table


def table_from_permutations(name: str, perms: list[Permutation]) -> GroupTable:
    """Multiplication table of the permutation group generated by `perms`.

    Independent of any presentation machinery; used as an oracle for the
    symmetric/alternating comparisons.  Elements are numbered as applying
    the generators finds them, and they act like words: the letter of
    perms[k] takes element p to perms[k] o p.
    """
    ident = Permutation.identity(len(perms[0].images))
    elements = [ident]
    index = {ident.images: 0}
    for p in elements:
        for q in perms:
            prod = q.compose(p)
            if prod.images not in index:
                index[prod.images] = len(elements)
                elements.append(prod)
    moves = [m for q in perms for m in (q, q.inverse())]
    action = tuple(tuple(index[m.compose(p).images] for m in moves) for p in elements)
    gens = tuple(sigma(i + 1) for i in range(len(perms)))
    return group_table(CosetTable(name, gens, action))


def symmetric_table(k: int) -> GroupTable:
    cycle = Permutation(tuple(list(range(2, k + 1)) + [1]))
    swap = Permutation.transposition(k, 1, 2)
    return table_from_permutations(f"S{k}", [swap, cycle])


def alternating_table(k: int) -> GroupTable:
    three = Permutation(tuple([2, 3, 1] + list(range(4, k + 1))))
    if k % 2 == 1:
        cyc = Permutation(tuple(list(range(2, k + 1)) + [1]))
    else:
        cyc = Permutation(tuple([1] + list(range(3, k + 1)) + [2]))
    return table_from_permutations(f"A{k}", [three, cyc])


def _generating_set(t: GroupTable) -> list[int]:
    """Small generating set found greedily (elements of decreasing order)."""
    elems = sorted(range(t.size), key=lambda i: -t.order_of(i))
    gens: list[int] = []
    span = {0}
    for e in elems:
        if e not in span:
            gens.append(e)
            span = t.subgroup_generated(gens)
            if len(span) == t.size:
                break
    return gens


def isomorphic(a: GroupTable, b: GroupTable) -> tuple[bool, dict[int, int] | None]:
    """Isomorphism test by generator-image backtracking; a and b must both
    be group tables (element 0 the identity).

    A candidate sends the generators of a (_generating_set) to elements of
    b of the same orders and is extended along the edges x -> x*g of one
    breadth-first walk from 0.  In a finite group right multiplication by
    the generators reaches every element, so a map that respects every
    such edge is a homomorphism, and the candidate is an isomorphism
    exactly when it does and is a bijection.  Returns (True, that element
    map) or (False, None).
    """
    if a.size != b.size or a.order_histogram() != b.order_histogram():
        return False, None
    gens = _generating_set(a)
    b_by_order: dict[int, list[int]] = {}
    for i in range(b.size):
        b_by_order.setdefault(b.order_of(i), []).append(i)
    # the walk's edges (x, k, x * gens[k]), each x reached before its edges
    walk, seen, edges = [0], {0}, []
    for x in walk:
        for k, g in enumerate(gens):
            y = a.mult[x][g]
            edges.append((x, k, y))
            if y not in seen:
                seen.add(y)
                walk.append(y)
    for images in itertools.product(*[b_by_order.get(a.order_of(g), []) for g in gens]):
        phi = {0: 0}
        for x, k, y in edges:
            z = b.mult[phi[x]][images[k]]
            if phi.setdefault(y, z) != z:
                break
        else:
            if len(set(phi.values())) == a.size:
                return True, phi
    return False, None


def center_and_quotient(t: GroupTable) -> tuple[set[int], GroupTable]:
    """Center of t and the quotient by its central subgroup of order 2;
    a ValueError unless the center holds exactly one involution."""
    z = t.center()
    involutions = [e for e in z if e != 0 and t.mult[e][e] == 0]
    if len(involutions) != 1:
        raise ValueError(f"{len(involutions)} central elements of order 2, not one")
    (c,) = involutions
    # cosets {e, ce}, numbered by first representative
    rep_of: dict[int, int] = {}
    reps = []
    for e in range(t.size):
        if e not in rep_of:
            rep_of[e] = rep_of[t.mult[c][e]] = len(reps)
            reps.append(e)
    moves = [m for g in t.generator_ids for m in (g, t.inverse(g))]
    action = tuple(tuple(rep_of[t.mult[r][m]] for m in moves) for r in reps)
    return z, group_table(CosetTable(t.name + "/Z2", t.generators, action))


# ---------------------------------------------------------------------------
# abelianization


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """The nonzero diagonal d_1 | d_2 | ... of the Smith normal form of an
    integer matrix, each entry positive.

    One loop of unimodular row and column operations: move an entry of
    least absolute value to the corner; clear its row and column by
    integer division, and start over if a remainder is left; add in a row
    that the pivot does not divide, and start over; otherwise emit the
    pivot, which then divides every entry left, and drop its row and
    column.  Each start-over leads to a smaller pivot, so the loop ends.
    """
    m = [list(row) for row in rows if any(row)]
    diag: list[int] = []
    while m:
        _, i, j = min((abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        top, p = m[0], m[0][0]
        for row in m[1:]:
            if row[0]:
                q = row[0] // p
                row[:] = [x - q * y for x, y in zip(row, top)]
        for c in range(1, len(top)):
            if top[c]:
                q = top[c] // p
                for row in m:
                    row[c] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in m[1:]):
            continue
        bad = next((row for row in m[1:] if any(x % p for x in row)), None)
        if bad is not None:
            top[:] = [x + y for x, y in zip(top, bad)]
            continue
        diag.append(abs(p))
        # zero rows change nothing, so they are dropped
        m = [row[1:] for row in m[1:] if any(row)]
    return diag


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors, each dividing the next; 0 = infinite factor."""

    factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.factors
        for i in range(len(fs) - 1):
            if fs[i] == 0 and fs[i + 1] != 0:
                raise ValueError("zeros must come last")
            if fs[i] != 0 and fs[i + 1] != 0 and fs[i + 1] % fs[i] != 0:
                raise ValueError("each factor must divide the next")


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group (cokernel of the
    relator exponent matrix)."""
    gen_index = {g: k for k, g in enumerate(p.generators)}
    ngen = len(p.generators)
    rows = []
    for r in p.relators:
        row = [0] * ngen
        for g, e in r:
            row[gen_index[g]] += e
        rows.append(row)
    diag = smith_normal_form(rows)
    return AbelianInvariants(tuple([d for d in diag if d != 1] + [0] * (ngen - len(diag))))
