import pytest

import random

from helpers import (
    brute_force_bounded_maps,
    brute_force_dual_automorphisms,
    brute_force_isomorphisms,
    brute_force_isotone_maps,
    c2,
    c3,
    c4,
    coequalizer_order_oracle,
    diamond,
    pooled_split_forks,
    poset_maps,
    relabelled,
    split_fork_equations_by_composition,
)
from pealab import (
    BoundedPoset,
    HomSets,
    InvalidStructure,
    Poset,
    PosetMorphism,
    SplitFork,
    check_morphism,
    check_order,
    coequalizer_bposets,
    coequalizer_posets,
    comparison_isomorphism,
    enumerate_bounded_posets,
    enumerate_morphisms,
    find_isomorphism,
    generate_split_forks,
    identity,
    interval_poset,
    is_coequalizer,
    is_split_fork,
    isomorphisms,
    product_bposets,
    triple_poset,
    validate_bounded_poset,
)
from pealab.pea import induced_relation, pdp_to_pea


class TestValidateBoundedPoset:
    def test_chain_closure_infers_transitive_pair(self):
        P = c3()
        assert P.le(0, 2)  # 0 <= 1 comes from closing 0 <= a <= 1
        assert P.bottom == 0 and P.top == 2

    def test_cycle_is_rejected(self):
        with pytest.raises(InvalidStructure, match="cycle"):
            validate_bounded_poset(("a", "b"), [("a", "b"), ("b", "a")])

    def test_missing_top_is_rejected(self):
        with pytest.raises(InvalidStructure, match="top"):
            validate_bounded_poset(("0", "a", "b"), [("0", "a"), ("0", "b")])

    def test_missing_bottom_is_rejected(self):
        with pytest.raises(InvalidStructure, match="bottom"):
            validate_bounded_poset(("a", "b", "1"), [("a", "1"), ("b", "1")])

    @pytest.mark.parametrize("elements, covers, message", [
        (("0", "a", "1"), [("0", "a"), ("a", "z")],
         r"cover \(a, z\) uses an undeclared element"),
        (("0", "0"), [], "duplicate element labels"),
    ], ids=["undeclared-cover-element", "duplicate"])
    def test_library_callers_meet_the_label_guards(self, elements, covers, message):
        # io.parse_structure rejects both first on file input, naming the file
        with pytest.raises(InvalidStructure, match=message):
            validate_bounded_poset(elements, covers)

    def test_singleton_is_admitted(self):
        P = validate_bounded_poset(("0",), [])
        assert P.n == 1 and P.bottom == P.top

    def test_revalidation_is_idempotent(self):
        for P in (c3(), c4(), diamond()):
            covers = [(P.labels[a], P.labels[b]) for a, b in P.cover_pairs()]
            assert validate_bounded_poset(P.labels, covers) == P


class TestCheckOrder:
    @pytest.mark.parametrize(
        "P, expected",
        [
            pytest.param(Poset(("a", "b"), (0b10, 0b10)), [
                "order violated at a=a: relation not reflexive",
            ], id="not-reflexive"),
            pytest.param(Poset(("a", "b"), (0b11, 0b11)), [
                "order violated at a=a, c=b: relation not antisymmetric",
                "order violated at a=b, c=a: relation not antisymmetric",
            ], id="cycle"),
            pytest.param(Poset(("a", "b", "c"), (0b011, 0b110, 0b100)), [
                "order violated at a=a: "
                "relation not transitive: a <= b <= c but not a <= c",
            ], id="not-transitive"),
            pytest.param(BoundedPoset(c3().labels, c3().leq, 1, 2), [
                "order violated at a=a: bottom is not below every element",
            ], id="wrong-bottom"),
            pytest.param(BoundedPoset(c3().labels, c3().leq, 0, 1), [
                "order violated at a=1: top is not above this element",
            ], id="wrong-top"),
        ],
    )
    def test_each_failure_is_reported_with_its_witnesses(self, P, expected):
        report = check_order(P)
        assert report.subject == "order" and not report.ok
        assert report.lines() == expected

    def test_several_failures_are_all_listed_in_a_fixed_order(self):
        # w is not reflexive and lies on a cycle with x; w <= x <= y and
        # x <= y <= z are not closed; y is declared bottom and w top
        P = BoundedPoset(("w", "x", "y", "z"), (0b0010, 0b0111, 0b1100, 0b1000),
                         2, 0)
        assert check_order(P).lines() == [
            "order violated at a=w: relation not reflexive",
            "order violated at a=w, c=x: relation not antisymmetric",
            "order violated at a=x, c=w: relation not antisymmetric",
            "order violated at a=w: relation not transitive: "
            "w <= x <= y but not w <= y",
            "order violated at a=x: relation not transitive: "
            "x <= y <= z but not x <= z",
            "order violated at a=y: bottom is not below every element",
            "order violated at a=w: top is not above this element",
            "order violated at a=y: top is not above this element",
            "order violated at a=z: top is not above this element",
        ]
        assert [dict(v.where) for v in check_order(P).violations][:3] == [
            {"a": "w"}, {"a": "w", "c": "x"}, {"a": "x", "c": "w"},
        ]

    def test_orders_pass(self):
        for P in (c2(), c3(), c4(), diamond(), Poset((), ())):
            assert check_order(P).ok
        # the same rows pass as a plain poset without bounds
        assert check_order(Poset(c3().labels, c3().leq)).ok


class TestGeneratedOrdersPassCheckOrder:
    """Constructors check shape only, so every order the program generates
    or derives is checked here instead."""

    def test_bounded_classes_and_their_opposites(self):
        classes = enumerate_bounded_posets(8)
        assert len(classes) == 407
        for P in classes:
            assert check_order(P).ok
            assert check_order(Poset(P.labels, P.down)).ok

    def test_interval_and_triple_posets(self, catalog6):
        for entry in catalog6:
            assert check_order(interval_poset(entry.base)).ok
            assert check_order(triple_poset(entry.base)).ok

    def test_products_of_pairs(self):
        bases = enumerate_bounded_posets(4)
        for P in bases:
            for R in bases:
                assert check_order(product_bposets([P, R])).ok

    def test_coequalizers_of_pooled_split_forks(self, pdps5):
        for fork in pooled_split_forks(pdps5):
            for coequalize in (coequalizer_posets, coequalizer_bposets):
                Q, _ = coequalize(fork.f, fork.g)
                assert check_order(Q).ok

    def test_fork_quotients(self, pdps5):
        forks = generate_split_forks(pdps5, 120, 2024, HomSets())
        assert all(check_order(fork.Q).ok for _, _, fork in forks)

    def test_induced_orders_of_the_catalog(self, catalog6):
        for entry in catalog6:
            for X in entry.structures:
                P = induced_relation(pdp_to_pea(X))
                assert check_order(P).ok and P == entry.base


class TestIntervalIndex:
    def test_matches_the_definition_on_bounded_classes(self):
        for P in enumerate_bounded_posets(6):
            pairs = [(a, b) for a in range(P.n) for b in range(P.n) if P.le(a, b)]
            assert list(P.intervals.items()) == [(p, k) for k, p in enumerate(pairs)]
            # [a,b] <= [c,d] iff c <= a <= b <= d
            assert P.interval_rows == tuple(
                sum(1 << k for k, (c, d) in enumerate(pairs)
                    if P.le(c, a) and P.le(b, d))
                for a, b in pairs
            )


class TestCheckMorphism:
    def test_identity_is_valid(self):
        assert check_morphism(identity(c3())).ok

    def test_chain_collapse_is_valid(self):
        f = PosetMorphism(c3(), c2(), (0, 1, 1))
        assert check_morphism(f).ok

    def test_bottom_violation_is_reported(self):
        f = PosetMorphism(c2(), c2(), (1, 1))
        report = check_morphism(f)
        assert not report.ok
        assert any(v.rule == "bounds" for v in report.violations)

    def test_isotonicity_violation_lists_the_pair(self):
        P = diamond()
        f = PosetMorphism(P, c3(), (0, 2, 0, 1))
        # a goes above the image of the top, breaking a <= 1
        report = check_morphism(f)
        assert any(v.rule == "isotone" for v in report.violations)


class TestShape:
    @pytest.mark.parametrize("table", [(0, -1, 2), (0, 3, 2), (0, 1, 7)])
    def test_entries_outside_the_target_are_rejected(self, table):
        with pytest.raises(
            InvalidStructure, match="^morphism table references unknown targets$"
        ):
            PosetMorphism(c3(), c3(), table)

    def test_short_table_is_rejected(self):
        with pytest.raises(InvalidStructure, match="does not cover the source"):
            PosetMorphism(c3(), c3(), (0, 2))

    @pytest.mark.parametrize("make, message", [
        (lambda: Poset(("a",), (0b11,)), "order table references unknown elements"),
        (lambda: Poset(("a",), (-1,)), "order table references unknown elements"),
        (lambda: Poset(("a", "a"), (1, 2)), "duplicate element labels"),
        (lambda: Poset(("a",), ()), "order table size does not match element count"),
        (lambda: BoundedPoset(c2().labels, c2().leq, 0, 2),
         "bottom/top index out of range"),
    ])
    def test_constructors_check_shape(self, make, message):
        with pytest.raises(InvalidStructure, match=f"^{message}$"):
            make()

    def test_empty_poset_has_the_empty_map(self):
        empty = Poset((), ())
        assert PosetMorphism(empty, c2(), ()).map == ()

    def test_cached_up_rows_are_the_set_bits_of_leq(self):
        for base in enumerate_bounded_posets(7):
            for P in (base, interval_poset(base)):
                assert P.up == tuple(
                    tuple(j for j in range(P.n) if P.leq[i] >> j & 1)
                    for i in range(P.n)
                )


class TestProduct:
    def test_empty_product_is_singleton(self):
        P = product_bposets([])
        assert P.n == 1 and P.bottom == P.top

    def test_square_of_two_chains_is_the_diamond(self):
        P = product_bposets([c2(), c2()])
        assert P.n == 4
        assert find_isomorphism(P, diamond()) is not None
        assert brute_force_isomorphisms(P, diamond())

    def test_unit_factor_gives_isomorphic_copy(self):
        one = product_bposets([])
        P = product_bposets([c3(), one])
        assert find_isomorphism(P, c3()) is not None

    def test_bounds_are_componentwise(self):
        P = product_bposets([c2(), c3()])
        assert P.labels[P.bottom] == "0*0"
        assert P.labels[P.top] == "1*1"


class TestCoequalizer:
    def test_equal_pair_gives_identity_quotient(self):
        f = PosetMorphism(c3(), c3(), (0, 1, 2))
        Q, q = coequalizer_bposets(f, f)
        assert Q == c3()
        assert q == identity(c3())

    def test_merging_chain_collapse(self):
        # A = 0 < x < y < 1, B = 0 < a < 1; f sends x, y to a while g
        # sends x to 0 and y to a, so a is merged with 0.
        A, B = c4(), c3()
        f = PosetMorphism(A, B, (0, 1, 1, 2))
        g = PosetMorphism(A, B, (0, 0, 1, 2))
        Q, q = coequalizer_bposets(f, g)
        assert Q.labels == ("0", "1")
        assert q.label_map() == {"0": "0", "a": "0", "1": "1"}
        assert f.then(q) == g.then(q)

    def test_two_element_identity_case(self):
        f = identity(c2())
        Q, q = coequalizer_bposets(f, f)
        assert Q == c2() and q == identity(c2())

    def test_quotient_collapses_order_cycles(self):
        # B holds two middle chains a < b and y < x; identifying a with x
        # and b with y makes the two classes sit below each other, so the
        # whole middle collapses to one class.
        A = validate_bounded_poset(
            ("0", "m", "n", "1"),
            [("0", "m"), ("0", "n"), ("m", "1"), ("n", "1")],
        )
        B = validate_bounded_poset(
            ("0", "a", "b", "x", "y", "1"),
            [("0", "a"), ("a", "b"), ("b", "1"), ("0", "y"), ("y", "x"), ("x", "1")],
        )
        f = PosetMorphism(A, B, (0, 1, 2, 5))  # m -> a, n -> b
        g = PosetMorphism(A, B, (0, 3, 4, 5))  # m -> x, n -> y
        Q, q = coequalizer_bposets(f, g)
        assert Q.labels == ("0", "a", "1")
        assert q.label_map() == {
            "0": "0", "a": "a", "b": "a", "x": "a", "y": "a", "1": "1",
        }

    def test_both_coequalizers_match_the_up_set_oracle(self):
        classes = enumerate_bounded_posets(5)
        pairs = 0
        for A in (P for P in classes if P.n <= 4):
            for B in classes:
                maps = [
                    PosetMorphism(A, B, m) for m in brute_force_bounded_maps(A, B)
                ]
                for f in maps:
                    for g in maps:
                        pairs += 1
                        expected = coequalizer_order_oracle(f, g)
                        for coequalize in (coequalizer_bposets, coequalizer_posets):
                            Q, q = coequalize(f, g)
                            assert set(q.map) == set(range(Q.n))
                            assert f.then(q) == g.then(q)
                            assert {
                                (x, y)
                                for x in range(B.n)
                                for y in range(B.n)
                                if Q.le(q.map[x], q.map[y])
                            } == expected
        assert pairs == 5074

    def test_universal_property_against_small_targets(self, catalog5):
        A, B = c4(), c3()
        f = PosetMorphism(A, B, (0, 1, 1, 2))
        g = PosetMorphism(A, B, (0, 0, 1, 2))
        Q, q = coequalizer_bposets(f, g)
        targets = [e.base for e in catalog5]
        for C in targets:
            mediators_of = {
                h.map: [
                    e for e in poset_maps(Q, C) if q.then(e) == h
                ]
                for h in poset_maps(B, C)
                if f.then(h) == g.then(h)
            }
            for h_map, mediators in mediators_of.items():
                assert len(mediators) == 1, (C.labels, h_map)


class TestComparisonIsomorphism:
    def test_same_quotient_gives_the_identity(self):
        f = PosetMorphism(c4(), c3(), (0, 1, 1, 2))
        g = PosetMorphism(c4(), c3(), (0, 0, 1, 2))
        Q, q = coequalizer_bposets(f, g)
        assert comparison_isomorphism(q, q) == identity(Q)

    def test_reordered_quotient_is_recognised(self):
        # the same collapse of the diamond, with the target listed backwards
        P = diamond()
        onto = PosetMorphism(P, c3(), (0, 1, 1, 2))
        backwards = validate_bounded_poset(
            ("1", "a", "0"), [("0", "a"), ("a", "1")]
        )
        q = PosetMorphism(P, backwards, (2, 1, 1, 0))
        e = comparison_isomorphism(onto, q)
        assert e is not None and e.map == (2, 1, 0)
        assert onto.then(e) == q

    def test_map_not_constant_on_classes_is_rejected(self):
        onto = PosetMorphism(c3(), c2(), (0, 0, 1))
        q = PosetMorphism(c3(), c2(), (0, 1, 1))
        assert comparison_isomorphism(onto, q) is None

    def test_bijection_with_non_isotone_inverse_is_rejected(self):
        # the diamond's incomparable a, b go to x < y of the 4-chain
        onto = identity(diamond())
        q = PosetMorphism(diamond(), c4(), (0, 1, 2, 3))
        assert check_morphism(q).ok
        assert comparison_isomorphism(onto, q) is None

    def test_sizes_must_agree(self):
        q = PosetMorphism(c3(), c2(), (0, 1, 1))
        assert comparison_isomorphism(identity(c3()), q) is None

    def test_maps_must_share_their_source(self):
        with pytest.raises(InvalidStructure):
            comparison_isomorphism(identity(c2()), identity(c3()))


class TestIsCoequalizer:
    def test_agrees_with_the_comparison_isomorphism(self):
        # every parallel pair of bounded-poset maps between the classes up
        # to n=4, against every isotone map out of their target into those
        # classes: most such maps are not coequalizers
        classes = enumerate_bounded_posets(4)
        out_of = {
            B: [(R, q) for R in classes for q in brute_force_isotone_maps(B, R)]
            for B in classes
        }
        verdicts = {True: 0, False: 0}
        for A in classes:
            for B in classes:
                maps = poset_maps(A, B)
                for f in maps:
                    for g in maps:
                        _, onto = coequalizer_posets(f, g)
                        glued = list(zip(f.map, g.map))
                        for R, q in out_of[B]:
                            expected = comparison_isomorphism(
                                onto, PosetMorphism(B, R, q)
                            ) is not None
                            assert is_coequalizer(B.leq, glued, q, R.leq) == expected
                            verdicts[expected] += 1
        assert verdicts == {True: 919, False: 76713}


class TestSplitFork:
    def fork_example(self, good_s=True):
        B, Q = c3(), c2()
        q = PosetMorphism(B, Q, (0, 1, 1))
        s = PosetMorphism(Q, B, (0, 2) if good_s else (0, 0))
        f = identity(B)
        g = q.then(s)
        t = identity(B)
        return SplitFork(B, B, Q, f, g, q, s, t)

    def test_identity_fork(self):
        B = c3()
        fork = SplitFork(
            B, B, B, identity(B), identity(B), identity(B), identity(B), identity(B)
        )
        assert is_split_fork(fork)

    def test_section_retraction_fork(self):
        assert is_split_fork(self.fork_example(good_s=True))

    def test_broken_section_fails(self):
        assert not is_split_fork(self.fork_example(good_s=False))

    @pytest.mark.parametrize(
        "broken, changes",
        [
            # q o f = q o g: A = c4 is larger than B, so f and g may differ
            # outside the image of t
            (0, dict(A=c4(), f=(0, 0, 1, 2), g=(0, 1, 2, 2), t=(0, 2, 3))),
            # q o s = 1: q misses the middle of Q = c3
            (1, dict(A=c2(), B=c2(), Q=c3(), f=(0, 1), g=(0, 1),
                     q=(0, 2), s=(0, 0, 1), t=(0, 1))),
            (2, dict(t=(0, 2, 2))),  # f o t = 1
            (3, dict(g=(0, 1, 2))),  # g o t = s o q
        ],
    )
    def test_each_equation_is_decided(self, broken, changes):
        ends = dict(A=c3(), B=c3(), Q=c2(), f=(0, 1, 2), g=(0, 2, 2),
                    q=(0, 1, 1), s=(0, 2), t=(0, 1, 2))
        ends.update(changes)
        A, B, Q = ends["A"], ends["B"], ends["Q"]
        arrows = [
            PosetMorphism(src, dst, ends[name])
            for name, src, dst in (("f", A, B), ("g", A, B), ("q", B, Q),
                                   ("s", Q, B), ("t", B, A))
        ]
        fork = SplitFork(A, B, Q, *arrows)
        equations = split_fork_equations_by_composition(fork)
        assert equations == tuple(k != broken for k in range(4))
        assert not is_split_fork(fork)

    def test_boundary_mismatch_is_rejected(self):
        B, Q = c3(), c2()
        with pytest.raises(InvalidStructure):
            SplitFork(
                B, B, Q,
                identity(B), identity(B),
                PosetMorphism(B, Q, (0, 1, 1)),
                PosetMorphism(B, B, (0, 1, 2)),  # wrong source
                identity(B),
            )

    def test_split_quotient_is_surjective(self):
        fork = self.fork_example()
        assert set(fork.q.map) == set(range(fork.Q.n))


class TestEnumerateMorphisms:
    def test_two_chain_endomorphisms(self):
        assert enumerate_morphisms(c2(), c2()) == [(0, 1)]

    def test_three_chain_to_two_chain(self):
        assert enumerate_morphisms(c3(), c2()) == [(0, 0, 1), (0, 1, 1)]

    def test_two_chain_to_three_chain_is_forced(self):
        assert enumerate_morphisms(c2(), c3()) == [(0, 2)]

    @pytest.mark.parametrize(
        "source,target",
        [
            (c3(), c3()),
            (c4(), diamond()),
            (diamond(), c4()),
            (diamond(), diamond()),
            (c4(), c3()),
        ],
    )
    def test_agrees_with_brute_force(self, source, target):
        expected = brute_force_bounded_maps(source, target)
        got = enumerate_morphisms(source, target)
        assert got == [tuple(v) for v in expected]

    def test_agrees_with_brute_force_on_every_class_pair(self):
        classes = enumerate_bounded_posets(5)
        total = 0
        for source in classes:
            for target in classes:
                got = enumerate_morphisms(source, target)
                assert got == brute_force_bounded_maps(source, target)
                total += len(got)
        assert len(classes) == 10 and total == 2360

    def test_all_results_pass_check(self):
        for m in poset_maps(diamond(), diamond()):
            assert check_morphism(m).ok


class TestFindIsomorphism:
    def test_self_isomorphism_exists(self):
        iso = find_isomorphism(c4(), c4())
        assert iso is not None and check_morphism(iso).ok

    def test_product_square_vs_diamond(self):
        P = product_bposets([c2(), c2()])
        iso = find_isomorphism(P, diamond())
        assert iso is not None
        assert tuple(iso.map) in brute_force_isomorphisms(P, diamond())

    def test_size_mismatch(self):
        assert find_isomorphism(c3(), diamond()) is None

    def test_same_size_non_isomorphic(self):
        assert find_isomorphism(c4(), diamond()) is None
        assert brute_force_isomorphisms(c4(), diamond()) == []


class TestIsomorphisms:
    def test_matches_brute_force_on_relabelled_classes(self):
        rng = random.Random(2024)
        every = enumerate_bounded_posets(6)
        for n in range(1, 7):
            classes = [P for P in every if P.n == n]
            for P in classes:
                for R in classes:
                    for _ in range(3):
                        perm = list(range(n))
                        rng.shuffle(perm)
                        target = relabelled(R, perm)
                        expected = brute_force_isomorphisms(P, target)
                        assert list(isomorphisms(P, target)) == expected
                        for iso in expected:
                            assert iso[P.bottom] == target.bottom
                            assert iso[P.top] == target.top
                        first = find_isomorphism(P, target)
                        if expected:
                            assert first.map == expected[0]
                        else:
                            assert first is None

    def test_dual_automorphisms_of_down_sets(self):
        for base in enumerate_bounded_posets(6):
            dual = Poset(base.labels, base.down)
            for c in range(base.n):
                assert list(
                    isomorphisms(base, dual, base.down[c])
                ) == brute_force_dual_automorphisms(base, c)
