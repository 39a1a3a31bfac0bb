import functools
import hashlib
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from braidcover.enumeration import (
    CosetTable,
    EnumerationOverflow,
    GroupTable,
    TableNotClosed,
    abelianization,
    alternating_table,
    center_and_quotient,
    coset_enumerate,
    group_table,
    isomorphic,
    smith_normal_form,
    symmetric_table,
)
from braidcover.presentations import (
    Presentation,
    annulus_presentation,
    finite_group_presentation,
    van_buskirk,
)
from braidcover.words import EMPTY, format_word, letter_codes, parse_word, sigma


def table_of(family, param=None):
    return group_table(coset_enumerate(finite_group_presentation(family, param)))


def test_small_orders():
    assert coset_enumerate(van_buskirk(1)).num_cosets == 2
    assert coset_enumerate(van_buskirk(2)).num_cosets == 16
    assert table_of("Q8").size == 8
    assert table_of("Dih", 5).size == 10
    assert table_of("Tstar").size == 24
    assert table_of("Ostar").size == 48
    assert table_of("Istar").size == 120


def test_strategies_agree():
    # reversing the generators and the relators reverses the order in which
    # cosets are scanned and gaps are filled; the group must not change
    for p, order in ((finite_group_presentation("Dic", 5), 20),
                     (finite_group_presentation("Ostar"), 48), (van_buskirk(2), 16)):
        flipped = Presentation(p.name, p.generators[::-1], p.relators[::-1])
        a, b = group_table(coset_enumerate(p)), group_table(coset_enumerate(flipped))
        assert a.size == b.size == order
        assert isomorphic(a, b)[0]


def test_group_table_rejects_unreachable_cosets():
    # coset 1 is never reached from coset 0; this must raise under -O too
    split = CosetTable("split", (sigma(1),), ((0, 0), (1, 1)))
    with pytest.raises(TableNotClosed):
        group_table(split)


def test_overflow():
    # the infinite cyclic group <s1 | > never closes
    with pytest.raises(EnumerationOverflow, match="exceeded max_cosets=100000"):
        coset_enumerate(Presentation("Z", (sigma(1),), ()))


def test_group_table_basics():
    t = table_of("Q8")
    assert t.order_of(0) == 1
    assert t.order_histogram() == {1: 1, 2: 1, 4: 6}
    x = t.evaluate(parse_word("s1"))
    assert t.order_of(x) == 4
    assert t.evaluate(parse_word("s1 s1^-1")) == 0
    assert t.subgroup_generated([x]) == {0, x, t.mult[x][x], t.inverse(x)}
    assert len(t.center()) == 2


def test_permutation_tables():
    assert symmetric_table(4).size == 24
    assert alternating_table(5).size == 60
    assert alternating_table(4).size == 12


def test_isomorphic_positive():
    ok, phi = isomorphic(table_of("Q8"), table_of("Dic", 2))
    assert ok and phi is not None and phi[0] == 0
    ok, _ = isomorphic(table_of("Dih", 3), symmetric_table(3))
    assert ok


def test_isomorphic_negative():
    # Dic_16 and Dih_16 share an order but not an order histogram
    ok, phi = isomorphic(table_of("Dic", 4), table_of("Dih", 8))
    assert not ok and phi is None
    ok, _ = isomorphic(table_of("Q8"), table_of("Dih", 4))
    assert not ok
    ok, _ = isomorphic(table_of("Q8"), table_of("Dih", 2))  # orders 8 and 4
    assert not ok


def test_center_and_quotient():
    z, q = center_and_quotient(table_of("Q8"))
    assert len(z) == 2
    assert q.size == 4
    ok, _ = isomorphic(q, table_of("Dih", 2))  # Klein four-group
    assert ok
    with pytest.raises(ValueError):
        center_and_quotient(symmetric_table(3))  # trivial center


def test_center_and_quotient_needs_one_central_involution():
    # Z2 x Z2 is abelian with three involutions, so no quotient of order 2
    # is the quotient by the central involution
    klein = table_of("Dih", 2)
    assert len(klein.center()) == 4
    with pytest.raises(ValueError, match="3 central elements of order 2"):
        center_and_quotient(klein)


def z4_by_z4(name: str, twist: bool) -> GroupTable:
    """Z4 x Z4, or with twist Z4 semidirect Z4, where the second factor acts
    on the first by inversion: (a, b)(c, d) = (a + (-1)^b c, b + d).  The
    pair (a, b) is element 4a + b; (1, 0) and (0, 1) generate."""
    def product(x: int, y: int) -> int:
        (a, b), (c, d) = divmod(x, 4), divmod(y, 4)
        return (a - c if twist and b % 2 else a + c) % 4 * 4 + (b + d) % 4

    return GroupTable(name, tuple(tuple(product(x, y) for y in range(16)) for x in range(16)),
                      (sigma(1), sigma(2)), (4, 1), ())


@functools.lru_cache(maxsize=None)
def named_tables() -> dict[str, GroupTable]:
    """Q8, Dic 2..8 (order 4m), Dih 1..16 (order 2m), T*, O*, I*, S3, S4,
    A4, A5, and "X/Z", the quotient of X by its centre, for each X whose
    centre has order 2.  Every non-isomorphic same-order pair among those
    differs in its order histogram, so Z4 x Z4 and Z4 semidirect Z4, which
    share theirs and are both generated by two elements, are added: there
    the verdict rests on the check of each candidate map."""
    tables = {"Q8": table_of("Q8")}
    tables |= {f"Dic{m}": table_of("Dic", m) for m in range(2, 9)}
    tables |= {f"Dih{m}": table_of("Dih", m) for m in range(1, 17)}
    tables |= {f: table_of(f) for f in ("Tstar", "Ostar", "Istar")}
    tables |= {"S3": symmetric_table(3), "S4": symmetric_table(4),
               "A4": alternating_table(4), "A5": alternating_table(5)}
    tables |= {f"{name}/Z": center_and_quotient(t)[1]
               for name, t in list(tables.items()) if len(t.center()) == 2}
    tables["Z4xZ4"] = z4_by_z4("Z4xZ4", twist=False)
    tables["Z4:Z4"] = z4_by_z4("Z4:Z4", twist=True)
    return tables


# the isomorphism classes among named_tables, from the textbook list of
# small groups: DicM/Z = DihM, DihM/Z = Dih(M/2) for even M >= 4,
# T*/Z = A4, O*/Z = S4 and I*/Z = A5; every other table is alone
ISOMORPHISM_CLASSES = (
    {"Dih2", "Q8/Z", "Dic2/Z", "Dih4/Z"},
    {"Dih3", "S3", "Dic3/Z", "Dih6/Z"},
    {"Q8", "Dic2"},
    {"Dih4", "Dic4/Z", "Dih8/Z"},
    {"Dih5", "Dic5/Z", "Dih10/Z"},
    {"Dih6", "Dic6/Z", "Dih12/Z"},
    {"A4", "Tstar/Z"},
    {"Dih7", "Dic7/Z", "Dih14/Z"},
    {"Dih8", "Dic8/Z", "Dih16/Z"},
    {"S4", "Ostar/Z"},
    {"A5", "Istar/Z"},
)


def test_isomorphic_matches_the_class_list():
    tables = named_tables()
    # Dih1 is cyclic of order 2, so Dih1/Z is the trivial group
    assert {name for name in tables if name.endswith("/Z")} == {
        "Q8/Z", "Tstar/Z", "Ostar/Z", "Istar/Z", "Dih1/Z",
        *(f"Dic{m}/Z" for m in range(2, 9)), *(f"Dih{m}/Z" for m in range(4, 17, 2))}
    same_class = {(a, b) for cls in ISOMORPHISM_CLASSES for a in cls for b in cls}
    pairs = [(x, y) for x, y in itertools.product(tables, tables)
             if tables[x].size == tables[y].size]
    assert len(pairs) == 196
    tables["Z4xZ4"].check_associativity()
    tables["Z4:Z4"].check_associativity()
    assert tables["Z4xZ4"].order_histogram() == tables["Z4:Z4"].order_histogram()
    for x, y in pairs:
        a, b = tables[x], tables[y]
        ok, phi = isomorphic(a, b)
        assert ok == (x == y or (x, y) in same_class), (x, y)
        if not ok:
            assert phi is None
            continue
        # the witness is a bijection that respects every product
        assert sorted(phi) == sorted(phi.values()) == list(range(a.size)), (x, y)
        for i, j in itertools.product(range(a.size), repeat=2):
            assert phi[a.mult[i][j]] == b.mult[phi[i]][phi[j]], (x, y, i, j)


def sympy_diagonal(rows: list[list[int]]) -> list[int]:
    snf = sympy_snf(Matrix(rows), domain=ZZ)
    return [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]


matrices = st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-20, 20), min_size=cols, max_size=cols),
                          min_size=1, max_size=6))


@settings(max_examples=200)
@given(matrices)
def test_smith_normal_form_matches_sympy(rows):
    before = [row[:] for row in rows]
    assert smith_normal_form(rows) == sympy_diagonal(rows)
    assert rows == before


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[6, 0], [0, 10]]) == [2, 30]
    assert smith_normal_form([[2, 4]]) == [2]
    assert smith_normal_form([[4]]) == [4]
    # no rows, rows of no columns, all zeros, a single row or column
    assert smith_normal_form([]) == smith_normal_form([[], []]) == []
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == []
    assert smith_normal_form([[4, -6, 10]]) == [2]
    assert smith_normal_form([[0], [-3], [0]]) == [3]


def test_abelianization():
    assert abelianization(van_buskirk(3)).factors == (2, 2)
    # annulus group abelianizes to Z x Z (sigma class and tau class)
    assert abelianization(annulus_presentation(3)).factors == (0, 0)
    # free group of rank 2: no relators at all
    free2 = Presentation("F2", (sigma(1), sigma(2)), ())
    assert abelianization(free2).factors == (0, 0)
    assert abelianization(finite_group_presentation("Dih", 6)).factors == (2, 2)
    assert abelianization(finite_group_presentation("Dih", 5)).factors == (2,)


def test_abelian_invariants_validation():
    from braidcover.enumeration import AbelianInvariants

    with pytest.raises(ValueError):
        AbelianInvariants((0, 2))
    with pytest.raises(ValueError):
        AbelianInvariants((4, 2))
    AbelianInvariants((2, 4, 0))


def test_coset_table_walks_letter_codes():
    # walking the coset table along words.letter_codes lands where the
    # group table's own evaluation (generator ids and inverses) does
    p = finite_group_presentation("Dic", 3)
    w = parse_word("s1 s2^-1 s1 s1 s2 s1^-1")
    codes = [letter_codes(p.generators)[let] for let in w.letters]
    t = coset_enumerate(p)
    c = 0
    for x in codes:
        c = t.action[c][x]
    assert c == group_table(t).evaluate(w)


def test_associativity_rejects_a_loop():
    # a loop of order 5 (a Latin square with identity 0) that is not a group
    rows = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    loop = GroupTable("loop5", rows, (sigma(1), sigma(2)), (1, 2), (EMPTY,) * 5)
    with pytest.raises(AssertionError, match="associativity fails"):
        loop.check_associativity()


def test_associativity_needs_generating_ids():
    # the generator elements are where the test looks; if they do not
    # generate the table, the test proves nothing and rejects it
    t = table_of("Q8")
    with pytest.raises(AssertionError, match="do not generate"):
        replace(t, generator_ids=t.generator_ids[:1]).check_associativity()


def test_every_table_is_checked(monkeypatch):
    checked = []
    check = GroupTable.check_associativity
    monkeypatch.setattr(GroupTable, "check_associativity",
                        lambda self: checked.append(self.size) or check(self))
    t = table_of("Dih", 130)
    _z, q = center_and_quotient(t)
    s4, a5 = symmetric_table(4), alternating_table(5)
    assert checked == [t.size, q.size, s4.size, a5.size] == [260, 130, 24, 60]


def test_one_element_table_passes():
    t = group_table(coset_enumerate(Presentation("trivial", (), ())))
    assert t.size == 1 and t.generator_ids == ()
    t.check_associativity()


def tables_digest(tables: dict[str, GroupTable], with_words: bool) -> str:
    """sha256 prefix over each table's key, name, mult and generator ids,
    and with_words also its witness words; the same under every hash seed."""
    h = hashlib.sha256()
    for key in sorted(tables):
        t = tables[key]
        h.update(repr((key, t.name, t.mult, t.generator_ids)).encode())
        if with_words:
            h.update(repr([format_word(w) for w in t.words]).encode())
    return h.hexdigest()[:16]


def test_tables_are_pinned():
    # every builder's output, element numbering included: the permutation
    # tables and the center quotients by (name, mult, generator ids), the
    # tables built from coset enumeration also by their witness words
    tables = named_tables()
    built = {key: tables[key] for key in ("S3", "S4", "A4", "A5")}
    built |= {key: t for key, t in tables.items() if key.endswith("/Z")}
    enumerated = {key: t for key, t in tables.items()
                  if key not in built and key not in ("Z4xZ4", "Z4:Z4")}
    enumerated["B2(RP2)"] = group_table(coset_enumerate(van_buskirk(2)))
    assert len(built) == 23 and len(enumerated) == 28
    assert tables_digest(built, with_words=False) == "2005887719c19e86"
    assert tables_digest(enumerated, with_words=True) == "be7b44bd707dc500"
