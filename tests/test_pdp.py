import itertools
import random
from collections import Counter
from dataclasses import fields

import pytest

from helpers import (
    brute_force_bounded_maps,
    count_builds,
    morphism_report_by_definition,
    pdp_morphism_report_by_definition,
    c2_pea,
    c3_pea,
    c4_pea,
    d4_ortho,
    edit_table,
    pdp_maps_by_filter,
    swapped,
)
from pealab import (
    BoundedPoset,
    InvalidStructure,
    PDPMorphism,
    Poset,
    PosetMorphism,
    PseudoDPoset,
    alpha,
    beta,
    check_morphism,
    check_pdp,
    check_pdp_morphism,
    check_pea_morphism,
    check_square,
    difference_maps,
    enumerate_pdp_morphisms,
    equalizer_pdp,
    identity,
    interval_map,
    is_dposet,
    pdp_to_pea,
    pea_to_pdp,
    product_pdp,
    subalgebra_generated,
    validate_bounded_poset,
    zero_embedding,
)
from pealab.catalog import build_catalog, catalog_pdps
from pealab.pdp import pdp_morphism_violations, preserves_differences
from pealab.reports import Report, Violation


def c3_pdp():
    return pea_to_pdp(c3_pea())


def d4_ortho_pdp():
    return pea_to_pdp(d4_ortho())


def with_slash(X, b, a, value):
    return PseudoDPoset(X.base, edit_table(X.slash, {(b, a): value}), X.bslash)


class TestCheckPdp:
    def test_three_chain_structure_passes(self):
        X = c3_pdp()
        assert check_pdp(X).ok
        assert is_dposet(X)

    def test_undefined_comparable_difference_is_reported(self):
        X = with_slash(c3_pdp(), 2, 1, None)  # remove 1/a
        report = check_pdp(X)
        hits = [v for v in report.violations if v.rule == "definedness"]
        assert any(dict(v.where) == {"b": "1", "a": "a"} for v in hits)

    def test_wrong_zero_difference_is_a_pd1_violation(self):
        X = with_slash(c3_pdp(), 1, 0, 0)  # a/0 = 0
        report = check_pdp(X)
        assert any(
            v.rule == "PD1" and dict(v.where)["a"] == "a" for v in report.violations
        )

    def test_broken_difference_equation_is_a_pd2_violation(self):
        # swap 1/a in the orthostructure so (1/0)\(1/a) misses b/0
        X = d4_ortho_pdp()
        idx = {lab: i for i, lab in enumerate(X.labels)}
        broken = with_slash(X, idx["1"], idx["a"], idx["a"])
        assert any(v.rule == "PD2" for v in check_pdp(broken).violations)


def pdp_report_per_cell(X):
    """check_pdp restated with one base.le call per order test: every
    definedness cell by table, row and column, PD1 by element, then PD2 by
    a <= b <= c on (/, \\) and on its mirror."""
    base, n, lab = X.base, X.n, X.labels
    sides = (("/", X.slash), ("\\", X.bslash))
    violations = []
    for name, table in sides:
        for b in range(n):
            for a in range(n):
                defined = table[b][a] is not None
                if defined != base.le(a, b):
                    violations.append(Violation(
                        "definedness", (("b", lab[b]), ("a", lab[a])),
                        f"b{name}a defined although a <= b fails" if defined
                        else f"b{name}a undefined although a <= b"))
    for a in range(n):
        for name, table in sides:
            zero = table[a][base.bottom]
            if zero is not None and zero != a:
                violations.append(
                    Violation("PD1", (("a", lab[a]),), f"a{name}0 differs from a"))
    for a, b, c in itertools.product(range(n), repeat=3):
        if not (base.le(a, b) and base.le(b, c)):
            continue
        for (p, T), (q, U) in (sides, sides[::-1]):
            cb, ca = T[c][b], T[c][a]
            if cb is None or ca is None:
                continue
            if not base.le(cb, ca):
                detail = f"c{p}b <= c{p}a fails"
            elif U[ca][cb] != T[b][a]:
                detail = f"(c{p}a){q}(c{p}b) differs from b{p}a"
            else:
                continue
            where = (("a", lab[a]), ("b", lab[b]), ("c", lab[c]))
            violations.append(Violation("PD2", where, detail))
    return Report("check_pdp", tuple(violations))


def test_check_pdp_matches_the_per_cell_reference_on_mutated_tables(pdps6):
    # every catalog table up to six elements, unchanged and with one cell
    # of / or \\ set to a seeded value or None
    assert len(pdps6) == 48
    rng = random.Random(2024)
    reported = 0
    for X in pdps6:
        assert check_pdp(X) == pdp_report_per_cell(X) == Report("check_pdp")
        for _ in range(25):
            tables = [X.slash, X.bslash]
            k = rng.randrange(2)
            cell = rng.randrange(X.n), rng.randrange(X.n)
            tables[k] = edit_table(tables[k], {cell: rng.choice([*range(X.n), None])})
            broken = PseudoDPoset(X.base, *tables)
            report = check_pdp(broken)
            assert report == pdp_report_per_cell(broken)
            reported += not report.ok
    assert reported > 25 * len(pdps6) // 2


class TestMirror:
    """check_pdp reads each rule on (/, \\) and on its mirror (\\, /)."""

    @pytest.mark.parametrize(
        "structure, slash_cells, bslash_cells, expected",
        [
            pytest.param(c3_pea, {(1, 0): 0}, {(2, 0): 1}, [
                "PD1 violated at a=a: a/0 differs from a",
                "PD1 violated at a=1: a\\0 differs from a",
                "PD2 violated at a=0, b=a, c=a: (c\\a)/(c\\b) differs from b\\a",
                "PD2 violated at a=0, b=a, c=1: (c/a)\\(c/b) differs from b/a",
                "PD2 violated at a=0, b=a, c=1: (c\\a)/(c\\b) differs from b\\a",
                "PD2 violated at a=0, b=1, c=1: (c/a)\\(c/b) differs from b/a",
                "PD2 violated at a=0, b=1, c=1: (c\\a)/(c\\b) differs from b\\a",
                "PD2 violated at a=a, b=1, c=1: (c\\a)/(c\\b) differs from b\\a",
            ], id="PD1"),
            pytest.param(c4_pea, {(3, 2): 3}, {(3, 2): 3}, [
                "PD2 violated at a=0, b=x, c=1: (c/a)\\(c/b) differs from b/a",
                "PD2 violated at a=0, b=x, c=1: (c\\a)/(c\\b) differs from b\\a",
                "PD2 violated at a=0, b=y, c=1: (c/a)\\(c/b) differs from b/a",
                "PD2 violated at a=0, b=y, c=1: (c\\a)/(c\\b) differs from b\\a",
                "PD2 violated at a=x, b=y, c=1: c/b <= c/a fails",
                "PD2 violated at a=x, b=y, c=1: c\\b <= c\\a fails",
            ], id="PD2-inequalities"),
            pytest.param(c3_pea, {(2, 1): 2}, {}, [
                "PD2 violated at a=0, b=a, c=1: (c/a)\\(c/b) differs from b/a",
                "PD2 violated at a=0, b=a, c=1: (c\\a)/(c\\b) differs from b\\a",
            ], id="PD2-equations-slash"),
            pytest.param(c3_pea, {}, {(2, 1): 2}, [
                "PD2 violated at a=0, b=a, c=1: (c/a)\\(c/b) differs from b/a",
                "PD2 violated at a=0, b=a, c=1: (c\\a)/(c\\b) differs from b\\a",
            ], id="PD2-equations-bslash"),
        ],
    )
    def test_exact_report_order(self, structure, slash_cells, bslash_cells, expected):
        X = pea_to_pdp(structure())
        broken = PseudoDPoset(
            X.base,
            edit_table(X.slash, slash_cells),
            edit_table(X.bslash, bslash_cells),
        )
        assert check_pdp(broken).lines() == expected

    def test_swapped_tables_report_the_mirrored_violations(self, catalog6):
        pdps = [X for e in catalog6 for X in e.structures]
        mirror = str.maketrans("/\\", "\\/")
        rng = random.Random(2024)
        reported = 0
        for _ in range(400):
            X = rng.choice(pdps)
            tables = [X.slash, X.bslash]
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(2)
                cell = rng.randrange(X.n), rng.randrange(X.n)
                value = rng.choice([*range(X.n), None])
                tables[k] = edit_table(tables[k], {cell: value})
            broken = PseudoDPoset(X.base, *tables)
            expected = Counter(
                (v.rule, v.where, v.detail.translate(mirror))
                for v in check_pdp(broken).violations
            )
            got = Counter(
                (v.rule, v.where, v.detail)
                for v in check_pdp(swapped(broken)).violations
            )
            assert got == expected
            reported += bool(expected)
        assert reported > 300


class TestDifferenceMorphisms:
    def test_zero_intervals_evaluate_to_the_element(self, pdps5):
        for X in pdps5:
            pairs = list(X.base.intervals)
            sm, bm = difference_maps(X)
            for k, (a, b) in enumerate(pairs):
                if a == X.base.bottom:
                    assert sm.map[k] == b
                    assert bm.map[k] == b

    def test_degenerate_intervals_evaluate_to_zero(self, pdps5):
        for X in pdps5:
            pairs = list(X.base.intervals)
            sm, bm = difference_maps(X)
            for k, (a, b) in enumerate(pairs):
                if a == b:
                    assert sm.map[k] == X.base.bottom
                    assert bm.map[k] == X.base.bottom

    def test_three_chain_value(self):
        X = c3_pdp()
        pairs = list(X.base.intervals)
        k = pairs.index((1, 2))  # [a,1]
        assert difference_maps(X)[0].map[k] == 1

    def test_incomplete_table_is_rejected(self):
        X = with_slash(c3_pdp(), 2, 1, None)
        for broken, message in ((X, "difference 1/a is undefined"),
                                (swapped(X), "difference 1\\a is undefined")):
            with pytest.raises(InvalidStructure) as caught:
                difference_maps(broken)
            assert str(caught.value) == message

    def test_isotone_on_catalog(self, pdps5):
        for X in pdps5:
            sm, bm = difference_maps(X)
            assert check_morphism(sm).ok
            assert check_morphism(bm).ok

    def test_pd1_diagram(self, pdps5):
        for X in pdps5:
            embed = zero_embedding(X.base)
            sm, bm = difference_maps(X)
            assert embed.then(sm) == identity(X.base)
            assert embed.then(bm) == identity(X.base)

    def test_pd2_diagram(self, pdps5):
        for X in pdps5:
            sm, bm = difference_maps(X)
            a, b = alpha(X.base), beta(X.base)
            assert b.then(sm) == a.then(interval_map(sm)).then(bm)
            assert b.then(bm) == a.then(interval_map(bm)).then(sm)

    def test_naturality_squares(self, pdps4):
        for X in pdps4:
            for Y in pdps4:
                for h in enumerate_pdp_morphisms(X, Y):
                    for mine, theirs in zip(difference_maps(X), difference_maps(Y)):
                        assert check_square(
                            top=interval_map(h.poset_map),
                            bottom=h.poset_map,
                            left=mine,
                            right=theirs,
                        )


def algebra_laws_hold(X, e, a, b):
    """The difference form's verdict, read with the library's own maps:
    s and t total isotone maps with e;s = e;t = 1, b;s = a;I(s);t and
    b;t = a;I(t);s, for e, a and b the zero embedding, alpha and beta of
    X's base.  A map that cannot be built, an undefined difference or an I
    of a map that is not isotone, counts as a failed law."""
    try:
        s, t = difference_maps(X)
        return (
            e.then(s) == e.then(t) == identity(X.base)
            and b.then(s) == a.then(interval_map(s)).then(t)
            and b.then(t) == a.then(interval_map(t)).then(s)
        )
    except InvalidStructure:
        return False


def diagrams(base):
    return zero_embedding(base), alpha(base), beta(base)


class TestAlgebraLaws:
    """A pseudo D-poset is an algebra over its base: tables undefined off
    the order pass check_pdp iff the difference maps meet the unit law and
    the two squares, as difference_maps' docstring proves."""

    def test_every_catalog_structure_up_to_seven_meets_the_laws(self):
        checked = 0
        for entry in build_catalog(7):
            maps = diagrams(entry.base)
            for X in entry.structures:
                assert check_pdp(X).ok
                assert algebra_laws_hold(X, *maps)
                checked += 1
        assert checked == 186

    def test_every_one_cell_mutant_up_to_six_breaks_the_laws(self, catalog6):
        # each / or \ cell with a <= b set to every other element or None
        mutants = 0
        for entry in catalog6:
            maps = diagrams(entry.base)
            for X in entry.structures:
                tables = (X.slash, X.bslash)
                for k, (a, b) in itertools.product(range(2), X.base.intervals):
                    for value in [*range(X.n), None]:
                        if value == tables[k][b][a]:
                            continue
                        edited = list(tables)
                        edited[k] = edit_table(tables[k], {(b, a): value})
                        broken = PseudoDPoset(X.base, *edited)
                        ok = check_pdp(broken).ok
                        assert algebra_laws_hold(broken, *maps) == ok
                        assert not ok
                        mutants += 1
        assert mutants == 7778


class TestCachedPairs:
    def test_pairs_equal_a_scan_of_the_tables(self, pdps6):
        for X in pdps6:
            assert X.pairs == tuple(
                (a, b, X.slash[b][a], X.bslash[b][a])
                for a in range(X.n)
                for b in range(X.n)
                if X.base.le(a, b)
            )

    def test_from_pairs_inverts_pairs(self, pdps6):
        for X in pdps6:
            differences = ((s, t) for *_, s, t in X.pairs)
            assert PseudoDPoset.from_pairs(X.base, differences) == X

    def test_from_pairs_takes_one_entry_per_pair(self):
        X = c3_pdp()
        for differences in (X.pairs[1:], X.pairs + X.pairs[:1]):
            with pytest.raises(ValueError):
                PseudoDPoset.from_pairs(X.base, (p[2:] for p in differences))


class TestPdpMorphism:
    def test_the_table_is_the_value_and_the_poset_map_is_derived(self):
        X, Y = c3_pdp(), d4_ortho_pdp()
        h = PDPMorphism(X, Y, (0, 1, 3))
        assert [f.name for f in fields(h) if f.compare] == ["source", "target", "map"]
        assert h.poset_map == PosetMorphism(X.base, Y.base, h.map)
        twin = PDPMorphism(X, Y, (0, 1, 3))
        assert h == twin and hash(h) == hash(twin)
        assert h != PDPMorphism(X, Y, (0, 2, 3))
        assert repr(h) == f"PDPMorphism(source={X!r}, target={Y!r}, map=(0, 1, 3))"

    @pytest.mark.parametrize("table, message", [
        ((0, 3), "morphism table does not cover the source"),
        ((0, 1, 2, 3), "morphism table does not cover the source"),
        ((0, 1, 4), "morphism table references unknown targets"),
        ((-1, 1, 3), "morphism table references unknown targets"),
    ])
    def test_a_misshapen_table_is_refused_as_for_a_poset_map(self, table, message):
        # check_pea_morphism shares the one shape check of both map kinds
        X, Y = c3_pdp(), d4_ortho_pdp()
        A, B = pdp_to_pea(X), pdp_to_pea(Y)
        for build in (
            lambda: PDPMorphism(X, Y, table),
            lambda: PosetMorphism(X.base, Y.base, table),
            lambda: check_pea_morphism(table, A, B),
        ):
            with pytest.raises(InvalidStructure) as caught:
                build()
            assert str(caught.value) == message

    def test_then_composes_the_tables(self):
        X, Y = c3_pdp(), d4_ortho_pdp()
        h = PDPMorphism(X, Y, (0, 1, 3))
        swap = PDPMorphism(Y, Y, (0, 2, 1, 3))
        assert h.then(swap) == PDPMorphism(X, Y, (0, 2, 3))
        assert h.then(swap).poset_map == h.poset_map.then(swap.poset_map)
        with pytest.raises(InvalidStructure) as caught:
            swap.then(h)
        assert str(caught.value) == "composition boundary mismatch"

    def test_identity_passes(self):
        X = c3_pdp()
        assert check_pdp_morphism(PDPMorphism(X, X, tuple(range(X.n)))).ok

    def test_orthostructure_swap_passes(self):
        X = d4_ortho_pdp()
        swap = (0, 2, 1, 3)
        assert check_pdp_morphism(PDPMorphism(X, X, swap)).ok

    def test_atom_collapse_fails_at_top_pair(self):
        X = d4_ortho_pdp()
        collapse = (0, 1, 1, 3)  # b -> a
        report = check_pdp_morphism(PDPMorphism(X, X, collapse))
        assert any(
            v.rule in ("slash", "bslash") and dict(v.where) == {"b": "1", "a": "a"}
            for v in report.violations
        )

    def test_reports_match_the_definitions_on_every_map_table(self, pdps5):
        # every table between the structures with n <= 4, and every
        # self-map of the noncommutative ones with n = 5, where / and \
        # differ; most tables are not isotone or miss a bound
        pairs = [(X, Y) for X in pdps5 for Y in pdps5 if X.n <= 4 and Y.n <= 4]
        pairs += [(X, X) for X in pdps5 if X.n == 5 and not is_dposet(X)]
        rules = Counter()
        for X, Y in pairs:
            for table in itertools.product(range(Y.n), repeat=X.n):
                h = PDPMorphism(X, Y, table)
                report = check_pdp_morphism(h)
                assert report == pdp_morphism_report_by_definition(h)
                assert check_morphism(h.poset_map) == (
                    morphism_report_by_definition(h.poset_map)
                )
                rules.update(v.rule for v in report.violations)
        assert set(rules) == {"isotone", "bounds", "slash", "bslash"}

    def test_the_lazy_scan_stops_at_the_report_s_first_violation(self, pdps5):
        # the tables of the test above, and from the sources with n = 4 each
        # with one or both difference tables blanked: between structures
        # that pass check_pdp, a map that breaks / also breaks \ (b/a is
        # (1/a)\(1/b), and 1/x the y with 1\y = x) and a map that is not
        # isotone breaks both, so only partial sources let every check of
        # the verdict decide some table alone
        small = [(X, Y) for X in pdps5 for Y in pdps5 if X.n <= 4 and Y.n <= 4]
        pairs = small + [(X, X) for X in pdps5 if X.n == 5 and not is_dposet(X)]
        blank = ((None,) * 4,) * 4
        pairs += [
            (PseudoDPoset(X.base, s, t), Y)
            for X, Y in small
            if X.n == 4
            for s, t in ((X.slash, blank), (blank, X.bslash), (blank, blank))
        ]
        verdicts = Counter()
        for X, Y in pairs:
            for table in itertools.product(range(Y.n), repeat=X.n):
                h = PDPMorphism(X, Y, table)
                report = pdp_morphism_report_by_definition(h)
                first = report.violations[0] if report.violations else None
                assert next(pdp_morphism_violations(X, Y, table), None) == first
                assert preserves_differences(X, Y, table) == report.ok
                verdicts[report.ok] += 1
        assert verdicts[True] and verdicts[False]

    def test_unbounded_reports_match_the_definition(self, pdps5):
        for X in pdps5:
            if X.n > 4:
                continue
            P = Poset(X.labels, X.base.leq)
            for table in itertools.product(range(P.n), repeat=P.n):
                f = PosetMorphism(P, P, table)
                assert check_morphism(f) == morphism_report_by_definition(f)


def filtered_brute_force(X, Y):
    """Every bounded-poset map X -> Y that passes check_pdp_morphism."""
    return [
        m
        for m in brute_force_bounded_maps(X.base, Y.base)
        if check_pdp_morphism(PDPMorphism(X, Y, m)).ok
    ]


class TestEnumeratePdpMorphisms:
    def test_matches_the_filtered_brute_force(self, pdps5):
        total = 0
        for X in pdps5:
            for Y in pdps5:
                got = [h.map for h in enumerate_pdp_morphisms(X, Y)]
                assert got == filtered_brute_force(X, Y)
                total += len(got)
        assert total == 340

    def test_search_tables_are_built_once_per_source(self, monkeypatch):
        # fresh structures, so that none built its tables before the patch;
        # the structures on one class share its base
        pdps = catalog_pdps(5)
        plans = count_builds(monkeypatch, BoundedPoset, "search_plan")
        rules = count_builds(monkeypatch, PseudoDPoset, "forcing_rules")
        total = sum(len(enumerate_pdp_morphisms(X, Y)) for X in pdps for Y in pdps)
        assert len(pdps) == 14 and total == 340
        assert list(map(id, plans)) == list(dict.fromkeys(id(X.base) for X in pdps))
        assert list(map(id, rules)) == list(map(id, pdps))

    def test_matches_the_filter_on_tables_failing_the_axioms(self):
        # a/0 = 1 is not below a; the bounds are placed first, so the rule
        # at (0, a) checks f(a)/0 against f(1) as soon as a is placed
        X = d4_ortho_pdp()
        idx = {lab: i for i, lab in enumerate(X.labels)}
        broken = with_slash(X, idx["a"], idx["0"], idx["1"])
        assert not check_pdp(broken).ok
        for source, target in itertools.product((X, broken), repeat=2):
            got = [h.map for h in enumerate_pdp_morphisms(source, target)]
            assert got == filtered_brute_force(source, target)
        # f(a/0) = f(1) = 1 forces f(a) = 1, and then f(1/b) = f(a) = 1
        # forces 1/f(b) = 1, that is f(b) = 0
        assert [h.map for h in enumerate_pdp_morphisms(broken, X)] == [
            (0, 3, 0, 3)
        ]

    def test_forced_values_on_partial_tables(self, pdps5):
        # on 0 < a, b < c < 1 the search branches on a, b, c in that order;
        # each structure defines only the differences listed, on one side
        base = validate_bounded_poset(
            "0abc1",
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "1")],
        )
        o, a, b, c = range(4)
        undefined = ((None,) * base.n,) * base.n
        cases = [
            # f(c) = f(a)/0 is forced once a is placed, above b, which is
            # placed after it and must stay below f(c)
            {(a, o): c},
            # f(a) = f(b)/0, forced when b is placed, must agree with the
            # earlier choice for a
            {(b, o): a},
            # f(c) is forced by a and then again by b
            {(a, o): c, (b, o): c},
        ]
        totals = []
        for cells in cases:
            table = edit_table(undefined, cells)
            for X in (
                PseudoDPoset(base, table, undefined),
                PseudoDPoset(base, undefined, table),
            ):
                got = [
                    [h.map for h in enumerate_pdp_morphisms(X, Y)] for Y in pdps5
                ]
                assert got == [filtered_brute_force(X, Y) for Y in pdps5]
                totals.append(sum(map(len, got)))
        assert totals == [138, 138, 138, 138, 58, 58]

    def test_hom_set_census_up_to_six_elements(self, pdps6):
        # every ordered pair of the 48 catalog structures; filtering the whole
        # bounded-poset hom set is compared on the targets of at most five
        # elements, since on all of them it takes ~13 s
        total = 0
        for X in pdps6:
            for Y in pdps6:
                got = [h.map for h in enumerate_pdp_morphisms(X, Y)]
                if Y.n <= 5:
                    assert got == pdp_maps_by_filter(X, Y)
                total += len(got)
        assert len(pdps6) == 48 and total == 9754


class TestSubalgebra:
    def test_empty_seed_gives_bounds(self):
        assert subalgebra_generated(c3_pdp(), ()) == (0, 2)

    def test_full_seed_gives_carrier(self):
        X = d4_ortho_pdp()
        assert subalgebra_generated(X, range(X.n)) == tuple(range(X.n))

    def test_single_atom_generates_three_chain_carrier(self):
        assert subalgebra_generated(c3_pdp(), (1,)) == (0, 1, 2)

    def test_orthostructure_atom_pulls_in_its_complement(self):
        X = d4_ortho_pdp()
        assert subalgebra_generated(X, (1,)) == (0, 1, 2, 3)


class TestProduct:
    def test_empty_product_is_the_trivial_structure(self):
        X = product_pdp([])
        assert X.n == 1
        assert X.slash == ((0,),)

    def test_componentwise_values(self):
        X = product_pdp([c3_pdp(), pea_to_pdp(c2_pea())])
        tuples = list(itertools.product(range(3), range(2)))
        idx = {t: k for k, t in enumerate(tuples)}
        # (a,1)/(0,1) = (a/0, 1/1) = (a, 0)
        got = X.slash[idx[(1, 1)]][idx[(0, 1)]]
        assert got == idx[(1, 0)]

    def test_product_passes_check(self):
        X = product_pdp([c3_pdp(), d4_ortho_pdp()])
        assert check_pdp(X).ok

    def test_projections_preserve_differences(self):
        factors = [c3_pdp(), d4_ortho_pdp()]
        X = product_pdp(factors)
        tuples = list(itertools.product(range(3), range(4)))
        for i, factor in enumerate(factors):
            proj = tuple(t[i] for t in tuples)
            assert check_pdp_morphism(PDPMorphism(X, factor, proj)).ok


class TestEqualizer:
    def test_equal_pair_gives_the_whole_structure(self):
        X = c3_pdp()
        i = PDPMorphism(X, X, tuple(range(X.n)))
        E, inc = equalizer_pdp(i, i)
        assert E == X
        assert inc.poset_map == identity(X.base)

    def test_swap_agreement_is_the_bounds(self):
        X = d4_ortho_pdp()
        i = PDPMorphism(X, X, tuple(range(X.n)))
        swap = PDPMorphism(X, X, (0, 2, 1, 3))
        E, inc = equalizer_pdp(i, swap)
        assert E.labels == ("0", "1")
        assert check_pdp(E).ok
        assert [X.labels[v] for v in inc.poset_map.map] == ["0", "1"]

    def test_equalizers_always_pass_check(self, pdps4):
        for X in pdps4:
            for Y in pdps4:
                homs = enumerate_pdp_morphisms(X, Y)
                for f, g in itertools.product(homs, repeat=2):
                    E, _ = equalizer_pdp(f, g)
                    assert check_pdp(E).ok
                    carrier = [x for x in range(X.n) if f(x) == g(x)]
                    assert list(E.labels) == [X.labels[v] for v in carrier]

    @pytest.mark.parametrize("table, isotone", [
        ((0, 2, 1, 3), False),  # swaps x and y
        ((0, 1, 1, 3), True),  # sends y to x: f(y/x) = x, f(y)/f(x) = 0
    ], ids=["swap", "squash"])
    def test_maps_that_are_not_morphisms_are_rejected(self, table, isotone):
        # on the 4-chain with x+x = y, both maps agree with themselves
        # everywhere, so only the morphism check keeps X from passing
        X = pea_to_pdp(c4_pea())
        h = PDPMorphism(X, X, table)
        assert check_morphism(h.poset_map).ok == isotone
        assert not check_pdp_morphism(h).ok
        with pytest.raises(InvalidStructure) as caught:
            equalizer_pdp(h, h)
        assert str(caught.value) == "equalizer requires difference-preserving maps"

    def test_undefined_difference_of_the_source_is_named(self):
        X = c3_pdp()
        X = PseudoDPoset(X.base, edit_table(X.slash, {(2, 1): None}), X.bslash)
        i = PDPMorphism(X, X, tuple(range(X.n)))
        with pytest.raises(InvalidStructure) as caught:
            equalizer_pdp(i, i)
        assert str(caught.value) == "the source leaves a difference of [a,1] undefined"
