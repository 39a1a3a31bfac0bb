import pytest

from braidcover.enumeration import (
    CosetTable,
    EnumerationOverflow,
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
from braidcover.words import parse_word, sigma


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


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[6, 0], [0, 10]]) == [2, 30]
    assert smith_normal_form([[2, 4]]) == [2]
    assert smith_normal_form([[4]]) == [4]


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
