import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    c2,
    c2_pea,
    c3,
    c3_pea,
    c4,
    count_builds,
    d4_hsum,
    d4_ortho,
    dense_check_pea,
    diamond,
    edit_table,
    pea_from,
    swapped,
    wide3_cyclic,
)
from pealab import (
    BoundedPoset,
    InvalidStructure,
    PDPMorphism,
    Poset,
    PseudoDPoset,
    PseudoEffectAlgebra,
    build_catalog,
    check_order,
    check_pdp_morphism,
    check_pea,
    check_pea_morphism,
    enumerate_bounded_posets,
    enumerate_morphisms,
    is_commutative,
    pdp_to_pea,
    pea_to_pdp,
    validate_bounded_poset,
)
from pealab.pea import induced_relation

DECLARED = ("order violated: "
            "declared covers disagree with the order induced by the addition")


def with_cells(A, cells):
    return PseudoEffectAlgebra(A.base, edit_table(A.plus, cells))


def set_cell(A, a, b, c):
    return with_cells(A, {(a, b): c})


def drop_cell(A, a, b):
    return set_cell(A, a, b, None)


class TestCheckPea:
    def test_two_chain_structure_passes(self):
        assert check_pea(c2_pea()).ok

    def test_missing_complement_is_a_pe2_violation(self):
        broken = drop_cell(c3_pea(), 1, 1)  # a+a removed
        report = check_pea(broken)
        assert any(
            v.rule == "PE2" and dict(v.where)["a"] == "a" for v in report.violations
        )

    def test_top_plus_top_is_a_pe4_violation(self):
        broken = set_cell(c2_pea(), 1, 1, 1)  # 1+1 = 1
        report = check_pea(broken)
        assert any(
            v.rule == "PE4" and dict(v.where)["a"] == "1" for v in report.violations
        )
        assert str(
            [v for v in report.violations if v.rule == "PE4"][0]
        ).startswith("PE4 violated at a=1")

    def test_broken_associativity_is_a_pe1_violation(self):
        # 4-chain structure with x+y redirected to y: x+(x+x) exists
        # but (x+x)+x disagrees.
        base = validate_bounded_poset(
            ("0", "x", "y", "1"), [("0", "x"), ("x", "y"), ("y", "1")]
        )
        A = pea_from(base, [("x", "x", "y"), ("x", "y", "1"), ("y", "x", "1")])
        broken = set_cell(A, 1, 2, 2)  # x+y = y
        assert any(v.rule == "PE1" for v in check_pea(broken).violations)

    def test_only_the_converse_of_associativity_is_a_pe1_violation(self):
        # x+x = y and y+x = 1 with x+y undefined: (x+x)+x exists but
        # x+(x+x) does not, and no instance breaks the other direction.
        A = pea_from(c4(), [("x", "x", "y"), ("y", "x", "1")])
        pe1 = [v for v in check_pea(A).violations if v.rule == "PE1"]
        assert [(dict(v.where), v.detail) for v in pe1] == [
            ({"a": "x", "b": "x", "c": "x"},
             "(a+b)+c exists but a+(b+c) does not"),
        ]

    @pytest.mark.parametrize(
        "sums, caught_at",
        [
            # left: y+0 = y+x = y; with y+y = 1, y+(y+x) = 1 needs (y+y)+x
            ([("x", "x", "1"), ("y", "x", "y"), ("y", "y", "1")],
             {"a": "y", "b": "y", "c": "x"}),
            # right: 0+y = x+y = y; with y+y = 1, y+(x+y) = 1 needs (y+x)+y
            ([("x", "x", "1"), ("x", "y", "y"), ("y", "y", "1")],
             {"a": "y", "b": "x", "c": "y"}),
        ],
        ids=["left", "right"],
    )
    def test_broken_cancellation_is_rejected_through_pe1(self, sums, caught_at):
        # The search prunes non-injective rows and columns because PE2 and
        # a+(b+c) => (a+b)+c force cancellation; here PE2 holds, so the
        # checker must reject at the PE1 instance the lemma's proof uses.
        A = pea_from(c4(), sums)
        report = check_pea(A)
        assert not report.ok
        assert not any(v.rule == "PE2" for v in report.violations)
        assert any(
            v.rule == "PE1"
            and dict(v.where) == caught_at
            and v.detail == "a+(b+c) exists but (a+b)+c does not match it"
            for v in report.violations
        )

    @pytest.mark.parametrize(
        "cells, expected",
        [
            pytest.param({(1, 1): None}, [
                "PE2 violated at a=a: 0 elements d satisfy a+d=1",
                "PE2 violated at a=a: 0 elements e satisfy e+a=1",
                "order violated at a=a: top is not above this element",
            ], id="PE2"),
            pytest.param({(2, 0): None}, [
                "PE1 violated at a=a, b=a, c=0: "
                "a+(b+c) exists but (a+b)+c does not match it",
                "PE2 violated at a=0: 0 elements e satisfy e+a=1",
                "PE2 violated at a=1: 0 elements d satisfy a+d=1",
                "PE3 violated at a=0, b=1: no d with d+a = a+b",
                "PE3 violated at a=0, b=1: no e with b+e = a+b",
                "order violated at a=1: relation not reflexive",
                "order violated at a=1: top is not above this element",
            ], id="PE3"),
        ],
    )
    def test_exact_report_order_of_two_sided_rules(self, cells, expected):
        assert check_pea(with_cells(c3_pea(), cells)).lines() == expected

    def test_order_layer_is_reported_separately(self):
        # dropping 0+a takes a out of the induced up-set of 0
        broken = drop_cell(c3_pea(), 0, 1)
        rules = {v.rule for v in check_pea(broken).violations}
        assert "order" in rules


def mutants(A, cells):
    """Every table that differs from A's in exactly ``cells`` cells, each
    of them set to None or to an element other than its value in A."""
    n = A.n
    values = (None, *range(n))
    squares = [(a, b) for a in range(n) for b in range(n)]
    for where in itertools.combinations(squares, cells):
        options = [[v for v in values if v != A.plus[a][b]] for a, b in where]
        for chosen in itertools.product(*options):
            yield with_cells(A, dict(zip(where, chosen)))


@st.composite
def partial_tables(draw):
    """A bounded class up to five elements and any partial table on it."""
    base = draw(st.sampled_from(enumerate_bounded_posets(5)))
    cell = st.one_of(st.none(), st.integers(0, base.n - 1))
    rows = draw(st.lists(st.lists(cell, min_size=base.n, max_size=base.n),
                         min_size=base.n, max_size=base.n))
    return PseudoEffectAlgebra(base, tuple(map(tuple, rows)))


class TestDenseOracle:
    """check_pea visits only defined sums and reads a cached base report;
    its Report, rule by rule, witnesses, details and order, is the one the
    dense n^3 statement in helpers gives."""

    def test_catalog_tables_up_to_six(self, catalog6):
        for entry in catalog6:
            for A in map(pdp_to_pea, entry.structures):
                assert check_pea(A) == dense_check_pea(A)

    @pytest.mark.parametrize("cells", [1, 2])
    def test_cell_mutants_up_to_five(self, catalog5, cells):
        count = 0
        for entry in catalog5:
            for A in map(pdp_to_pea, entry.structures):
                for M in mutants(A, cells):
                    assert check_pea(M) == dense_check_pea(M)
                    count += 1
        # 14 tables: 1,228 one-cell and 66,108 two-cell mutants
        assert count == {1: 1228, 2: 66108}[cells]

    @settings(max_examples=300, deadline=None)
    @given(partial_tables())
    def test_partial_tables_up_to_five(self, A):
        assert check_pea(A) == dense_check_pea(A)

    def test_base_that_is_no_order(self):
        # a <= b <= a: the table induces exactly this declared relation,
        # so the order layer is the base's own, cached report
        base = BoundedPoset(
            ("0", "a", "b", "1"), (0b1111, 0b1110, 0b1110, 0b1000), 0, 3
        )
        A = pea_from(base, [("a", "a", "b"), ("a", "b", "1"),
                            ("b", "b", "a"), ("b", "a", "1")])
        assert induced_relation(A).leq == base.leq
        report = check_pea(A)
        assert report == dense_check_pea(A)
        assert ("order violated at a=a, c=b: relation not antisymmetric"
                in report.lines())
        assert set(base.order_report.violations) <= set(report.violations)


class TestOrderReportCache:
    def test_one_report_per_base(self, monkeypatch):
        built = count_builds(monkeypatch, Poset, "order_report")
        entries = build_catalog(6)
        bases = [e.base for e in entries if e.structures]
        # the search re-checks every table; each base builds its report once
        assert sorted(map(id, built)) == sorted(map(id, bases))
        pair = next(e.structures for e in entries if len(e.structures) >= 2)[:2]
        A, B = map(pdp_to_pea, pair)
        assert A.base is B.base
        assert A.base.order_report is B.base.order_report
        assert A.base.order_report == check_order(A.base)
        assert check_pea(A).ok and check_pea(B).ok
        assert len(built) == len(bases)


class TestShape:
    @pytest.mark.parametrize("plus, message", [
        (((0, 1),), "addition table size does not match the carrier"),
        (((0, 1), (1,)), "addition table size does not match the carrier"),
        (((0, 2), (1, None)), "addition table references unknown elements"),
        (((0, -1), (1, None)), "addition table references unknown elements"),
    ])
    def test_table_shape_messages(self, plus, message):
        with pytest.raises(InvalidStructure, match=f"^{message}$"):
            PseudoEffectAlgebra(c2(), plus)


class TestInducedOrder:
    def test_two_chain(self):
        assert induced_relation(c2_pea()) == c2()

    def test_three_chain(self):
        assert induced_relation(c3_pea()) == c3()

    def test_diamond_orthostructure(self):
        assert induced_relation(d4_ortho()) == diamond()

    def test_invalid_relation_is_reported_not_repaired(self):
        broken = drop_cell(c3_pea(), 0, 1)
        assert ("order violated at a=0: bottom is not below every element"
                in check_pea(broken).lines())
        assert DECLARED not in check_pea(broken).lines()
        with pytest.raises(
            InvalidStructure,
            match="^the induced order differs from the declared one$",
        ):
            pea_to_pdp(broken)


class TestDeclaredOrder:
    """An algebra carries its bounded poset; check_pea decides that the
    addition induces exactly that order."""

    def test_every_table_over_every_other_class_of_its_size(self, catalog6):
        cases = 0
        for entry in catalog6:
            for other in catalog6:
                if other.base.n != entry.base.n or other.base == entry.base:
                    continue
                for A in map(pdp_to_pea, entry.structures):
                    declared = PseudoEffectAlgebra(other.base, A.plus)
                    assert check_pea(declared).lines() == [DECLARED]
                    with pytest.raises(InvalidStructure, match="^the induced"
                                       " order differs from the declared one$"):
                        pea_to_pdp(declared)
                    cases += 1
        assert cases == 545

    def test_conversions_keep_the_base(self, pdps6):
        assert len(pdps6) == 48
        for X in pdps6:
            A = pdp_to_pea(X)
            assert A.base is X.base and pea_to_pdp(A).base is X.base
            assert pea_to_pdp(A) == X


class TestConversionValues:
    def test_two_chain_differences(self):
        X = pea_to_pdp(c2_pea())
        assert X.slash[1][0] == 1  # 1/0 = 1
        assert X.bslash[1][0] == 1
        assert X.slash[0][0] == 0 and X.slash[1][1] == 0

    def test_three_chain_top_difference(self):
        X = pea_to_pdp(c3_pea())
        assert X.slash[2][1] == 1  # 1/a = a because a+a = 1

    def test_orthostructure_differences_cross(self):
        A = d4_ortho()
        X = pea_to_pdp(A)
        idx = {lab: i for i, lab in enumerate(A.labels)}
        assert X.slash[idx["1"]][idx["a"]] == idx["b"]
        assert X.bslash[idx["1"]][idx["a"]] == idx["b"]

    def test_commutative_structures_have_equal_tables(self, catalog5):
        for entry in catalog5:
            for X in entry.structures:
                if is_commutative(pdp_to_pea(X)):
                    assert X.slash == X.bslash

    def test_noncommutative_structure_has_distinct_tables(self):
        X = pea_to_pdp(wide3_cyclic())
        assert X.slash != X.bslash

    def test_addition_recovered_from_three_chain(self):
        X = pea_to_pdp(c3_pea())
        back = pdp_to_pea(X)
        assert back.plus[1][1] == 2  # a+a = 1 again

    def test_zero_sums_recovered_everywhere(self, catalog5):
        for entry in catalog5:
            for X in entry.structures:
                back = pdp_to_pea(X)
                for x in range(X.n):
                    assert back.plus[back.zero][x] == x
                    assert back.plus[x][back.zero] == x

    def test_singleton_structure(self):
        one = validate_bounded_poset(("0",), [])
        A = pea_from(one, [])
        assert A.plus == ((0,),)
        X = pea_to_pdp(A)
        assert pdp_to_pea(X) == A

    def test_non_unique_solution_is_rejected(self):
        broken = set_cell(c3_pea(), 1, 2, 2)  # both a+a and a+1 give 1
        with pytest.raises(InvalidStructure, match="2 solutions"):
            pea_to_pdp(broken)

    def test_missing_witness_breaks_the_induced_order_first(self):
        broken = drop_cell(c3_pea(), 1, 1)  # no x with a+x = 1
        with pytest.raises(InvalidStructure, match="induced order"):
            pea_to_pdp(broken)

    def test_disagreeing_difference_tables_are_rejected(self):
        X = pea_to_pdp(d4_ortho())
        idx = {lab: i for i, lab in enumerate(X.labels)}
        one, a, b = idx["1"], idx["a"], idx["b"]
        bslash = [list(row) for row in X.bslash]
        bslash[one][a], bslash[one][b] = bslash[one][b], bslash[one][a]
        corrupt = PseudoDPoset(
            X.base, X.slash, tuple(tuple(r) for r in bslash)
        )
        with pytest.raises(InvalidStructure, match="disagree"):
            pdp_to_pea(corrupt)

    def test_ambiguous_reconstruction_is_rejected(self):
        X = pea_to_pdp(c3_pea())
        slash = [list(row) for row in X.slash]
        slash[2][0] = 1  # 1/0 collides with a/0
        corrupt = PseudoDPoset(
            X.base, tuple(tuple(r) for r in slash), X.bslash
        )
        with pytest.raises(InvalidStructure, match="ambiguous"):
            pdp_to_pea(corrupt)


class TestMirroredConversions:
    """Each conversion reads one rule on a table and on its mirror."""

    @pytest.mark.parametrize(
        "cells, message",
        [
            ({(1, 2): 2}, "2 solutions of a+x=1"),  # a+a = a+1 = 1
            ({(2, 1): 2}, "2 solutions of y+a=1"),  # a+a = 1+a = 1
        ],
        ids=["a+x", "y+a"],
    )
    def test_exact_pea_to_pdp_messages(self, cells, message):
        with pytest.raises(InvalidStructure) as caught:
            pea_to_pdp(with_cells(c3_pea(), cells))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "slash_cells, bslash_cells, message",
        [
            ({(2, 1): None}, {}, "difference 1/a is undefined"),
            ({}, {(2, 1): None}, "difference 1\\a is undefined"),
            ({(2, 0): 1}, {}, "addition at (0,a) is ambiguous"),
            ({}, {(2, 0): 1}, "addition at (a,0) is ambiguous"),
        ],
        ids=["undefined-slash", "undefined-bslash", "ambiguous-slash",
             "ambiguous-bslash"],
    )
    def test_exact_pdp_to_pea_messages(self, slash_cells, bslash_cells, message):
        X = pea_to_pdp(c3_pea())
        broken = PseudoDPoset(
            X.base,
            edit_table(X.slash, slash_cells),
            edit_table(X.bslash, bslash_cells),
        )
        with pytest.raises(InvalidStructure) as caught:
            pdp_to_pea(broken)
        assert str(caught.value) == message

    def test_swapped_tables_give_the_transposed_addition(self, catalog6):
        noncommutative = 0
        for entry in catalog6:
            tables = {pdp_to_pea(X).plus for X in entry.structures}
            for X in entry.structures:
                A = pdp_to_pea(X)
                transposed = tuple(zip(*A.plus))
                mirror = pdp_to_pea(swapped(X))
                assert mirror.plus == transposed
                assert transposed in tables  # the catalog is closed under it
                assert pea_to_pdp(mirror) == swapped(X)
                noncommutative += transposed != A.plus
        assert noncommutative == 16


class TestRoundtrip:
    def test_roundtrip_up_to_five(self, catalog5):
        for entry in catalog5:
            for X in entry.structures:
                A = pdp_to_pea(X)
                assert pea_to_pdp(A) == X
                assert pdp_to_pea(pea_to_pdp(A)) == A
                assert A.base is X.base and check_pea(A).ok

    def test_left_and_right_order_agree(self, catalog5):
        for entry in catalog5:
            for A in map(pdp_to_pea, entry.structures):
                n = A.n
                for a in range(n):
                    for c in range(n):
                        right = any(A.plus[a][b] == c for b in range(n))
                        left = any(A.plus[b][a] == c for b in range(n))
                        assert right == left

    def test_derived_identities(self, catalog5):
        for entry in catalog5:
            for A in map(pdp_to_pea, entry.structures):
                for a in range(A.n):
                    assert A.plus[A.zero][a] == a
                    assert A.plus[a][A.zero] == a
                    for d in range(A.n):
                        if A.plus[a][d] == a:
                            assert d == A.zero


class TestCommutativity:
    def test_small_structures_are_commutative(self):
        for A in (c2_pea(), c3_pea(), d4_ortho(), d4_hsum()):
            assert is_commutative(A)

    def test_cyclic_wide_structure_is_not(self):
        A = wide3_cyclic()
        assert check_pea(A).ok
        assert not is_commutative(A)

    def test_trivial_structure_is_commutative(self):
        one = validate_bounded_poset(("0",), [])
        assert is_commutative(pea_from(one, []))


class TestPeaMorphism:
    def test_identity_passes(self):
        A = c3_pea()
        assert check_pea_morphism(tuple(range(A.n)), A, A).ok

    def test_collapse_up_fails(self):
        report = check_pea_morphism((0, 1, 1), c3_pea(), c2_pea())
        assert any(v.rule == "plus" for v in report.violations)

    def test_collapse_down_fails(self):
        report = check_pea_morphism((0, 0, 1), c3_pea(), c2_pea())
        assert any(v.rule == "plus" for v in report.violations)

    def test_matches_difference_morphism_condition(self, catalog5):
        # a map is addition-preserving iff it preserves both differences
        # of the converted structures
        small = [X for entry in catalog5 if entry.base.n <= 3 for X in entry.structures]
        for XA in small:
            for XB in small:
                A, B = pdp_to_pea(XA), pdp_to_pea(XB)
                for m in enumerate_morphisms(XA.base, XB.base):
                    as_pea = check_pea_morphism(m, A, B).ok
                    as_pdp = check_pdp_morphism(PDPMorphism(XA, XB, m)).ok
                    assert as_pea == as_pdp
