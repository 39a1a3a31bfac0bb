"""Coset enumeration and finite group materialization.

Todd-Coxeter in the HLT style (scan-and-fill with gap definitions and the
standard coincidence queue), multiplication tables with witness words,
generator-image isomorphism testing, center/quotient computation, and
abelianization via exact integer Smith normal form.

All targets in this toolkit are tiny (order <= 240), so the code favours
clarity and exactness over speed.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .presentations import Presentation
from .words import EMPTY, BraidWord, Generator, Permutation

MAX_COSETS = 100_000


class EnumerationOverflow(Exception):
    """MAX_COSETS exceeded; inconclusive."""


class TableNotClosed(Exception):
    pass


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table of the trivial subgroup: action[c][x] is the
    coset reached from c by letter x, where letter 2k is generator k and
    2k+1 its inverse."""

    presentation_name: str
    generators: tuple[Generator, ...]
    action: tuple[tuple[int, ...], ...]

    @property
    def num_cosets(self) -> int:
        return len(self.action)


def _letters_of(word: BraidWord, gen_index: dict[Generator, int]) -> list[int]:
    out = []
    for g, e in word:
        k = gen_index[g]
        out.append(2 * k if e == 1 else 2 * k + 1)
    return out


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
    gen_index = {g: k for k, g in enumerate(p.generators)}
    relators = [_letters_of(r, gen_index) for r in p.relators]
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

    def subgroup_generated(self, gens: list[int]) -> set[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mult[x][g], self.mult[x][self.inverse(g)]):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return seen

    def center(self) -> set[int]:
        return {
            i for i in range(self.size)
            if all(self.mult[i][j] == self.mult[j][i] for j in range(self.size))
        }

    def check_associativity(self) -> None:
        """Exhaustive check; intended for order <= 256."""
        n = self.size
        for a in range(n):
            for b in range(n):
                ab = self.mult[a][b]
                for c in range(n):
                    if self.mult[ab][c] != self.mult[a][self.mult[b][c]]:
                        raise AssertionError(f"associativity fails at {(a, b, c)}")


def group_table(t: CosetTable) -> GroupTable:
    """Materialize the group from a coset table of the trivial subgroup."""
    n = t.num_cosets
    # witness words by BFS from the identity coset
    words: list[BraidWord | None] = [None] * n
    words[0] = EMPTY
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for k, g in enumerate(t.generators):
            for x, e in ((2 * k, 1), (2 * k + 1, -1)):
                d = t.action[c][x]
                if words[d] is None:
                    words[d] = words[c] * BraidWord(((g, e),))
                    queue.append(d)
    if any(w is None for w in words):
        raise TableNotClosed("coset table not transitive")

    def apply(c: int, w: BraidWord) -> int:
        gen_index = {g: k for k, g in enumerate(t.generators)}
        for g, e in w:
            k = gen_index[g]
            c = t.action[c][2 * k if e == 1 else 2 * k + 1]
        return c

    mult = tuple(
        tuple(apply(i, words[j]) for j in range(n)) for i in range(n)
    )
    generator_ids = tuple(t.action[0][2 * k] for k in range(len(t.generators)))
    table = GroupTable(
        name=t.presentation_name,
        mult=mult,
        generators=t.generators,
        generator_ids=generator_ids,
        words=tuple(words),
    )
    if n <= 256:
        table.check_associativity()
    return table


def table_from_permutations(name: str, perms: list[Permutation]) -> GroupTable:
    """Multiplication table of the permutation group generated by `perms`.

    Independent of any presentation machinery; used as an oracle for the
    symmetric/alternating comparisons.
    """
    gens = tuple(Generator("s", i + 1) for i in range(len(perms)))
    ident = Permutation.identity(len(perms[0].images))
    elements = [ident]
    index = {ident.images: 0}
    words: list[BraidWord] = [EMPTY]
    i = 0
    while i < len(elements):
        for k, q in enumerate(perms):
            prod = q.compose(elements[i])
            if prod.images not in index:
                index[prod.images] = len(elements)
                elements.append(prod)
                words.append(words[i] * BraidWord(((gens[k], 1),)))
        i += 1
    n = len(elements)
    # product convention: elements act like words, mult[i][j] = element of
    # word_i * word_j, i.e. permutation elements[j] o elements[i]
    mult = tuple(
        tuple(index[elements[j].compose(elements[i]).images] for j in range(n))
        for i in range(n)
    )
    generator_ids = tuple(index[q.images] for q in perms)
    return GroupTable(name, mult, gens, generator_ids, tuple(words))


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
    """Isomorphism test by generator-image backtracking.

    Returns (True, witness element map) or (False, None).  The witness is
    verified exhaustively before being returned.
    """
    if a.size != b.size:
        return False, None
    if a.order_histogram() != b.order_histogram():
        return False, None
    gens = _generating_set(a)
    gen_orders = [a.order_of(g) for g in gens]
    b_by_order: dict[int, list[int]] = {}
    for i in range(b.size):
        b_by_order.setdefault(b.order_of(i), []).append(i)

    def words_for_all(t: GroupTable, gens_: list[int]) -> dict[int, list[int]]:
        """element -> word in gens_ (indices into gens_, negative = inverse)."""
        out = {0: []}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for k, g in enumerate(gens_):
                for y, lab in ((t.mult[x][g], k + 1),
                               (t.mult[x][t.inverse(g)], -(k + 1))):
                    if y not in out:
                        out[y] = out[x] + [lab]
                        queue.append(y)
        return out

    a_words = words_for_all(a, gens)

    def evaluate(images: list[int], w: list[int]) -> int:
        x = 0
        for lab in w:
            g = images[abs(lab) - 1]
            if lab < 0:
                g = b.inverse(g)
            x = b.mult[x][g]
        return x

    def try_images(images: list[int]) -> dict[int, int] | None:
        phi = {e: evaluate(images, w) for e, w in a_words.items()}
        if len(set(phi.values())) != a.size:
            return None
        for x in range(a.size):
            for y in range(a.size):
                if phi[a.mult[x][y]] != b.mult[phi[x]][phi[y]]:
                    return None
        return phi

    for images in itertools.product(
            *[b_by_order.get(o, []) for o in gen_orders]):
        phi = try_images(list(images))
        if phi is not None:
            return True, phi
    return False, None


def center_and_quotient(t: GroupTable) -> tuple[set[int], GroupTable]:
    """Center of t and the quotient by its order-2 central subgroup."""
    z = t.center()
    involutions = [e for e in z if e != 0 and t.mult[e][e] == 0]
    if not involutions:
        raise ValueError("no central element of order 2")
    c = involutions[0]
    # cosets {e, ce}
    rep_of = {}
    reps = []
    for e in range(t.size):
        if e not in rep_of:
            rep_of[e] = len(reps)
            rep_of[t.mult[c][e]] = len(reps)
            reps.append(e)
    n = len(reps)
    mult = tuple(
        tuple(rep_of[t.mult[reps[i]][reps[j]]] for j in range(n))
        for i in range(n)
    )
    gen_ids = tuple(rep_of[g] for g in t.generator_ids)
    words = tuple(t.words[r] for r in reps)
    q = GroupTable(t.name + "/Z2", mult, t.generators, gen_ids, words)
    if n <= 256:
        q.check_associativity()
    return z, q


# ---------------------------------------------------------------------------
# abelianization


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Exact integer arithmetic with explicit pivoting; returns the diagonal
    entries d_1 | d_2 | ... (non-negative), one per row/column consumed.
    """
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag: list[int] = []
    top = 0
    while top < nr and top < nc:
        # find a nonzero pivot of minimal absolute value
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[top], row[j0] = row[j0], row[top]
        # clear row and column; restart if a remainder is smaller than pivot
        while True:
            pivot = m[top][top]
            dirty = False
            for i in range(top + 1, nr):
                if m[i][top] != 0:
                    qd = m[i][top] // pivot
                    for j in range(nc):
                        m[i][j] -= qd * m[top][j]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, nc):
                if m[top][j] != 0:
                    qd = m[top][j] // pivot
                    for i in range(nr):
                        m[i][j] -= qd * m[i][top]
                    if m[top][j] != 0:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
            if not dirty:
                break
        diag.append(abs(m[top][top]))
        top += 1
    # enforce divisibility d_i | d_{i+1}
    import math
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b % a != 0:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
            elif a == 0 and b != 0:
                diag[i], diag[i + 1] = b, 0
                changed = True
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
    if not rows:
        return AbelianInvariants(tuple([0] * ngen))
    diag = smith_normal_form(rows)
    factors = [d for d in diag if d != 1 and d != 0]
    rank = len([d for d in diag if d != 0])
    factors += [0] * (ngen - rank)
    return AbelianInvariants(tuple(factors))
