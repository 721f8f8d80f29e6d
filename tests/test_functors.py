import pytest

from helpers import c2, c3, c4, diamond, poset_maps
from pealab import (
    InvalidStructure,
    Poset,
    PosetMorphism,
    alpha,
    beta,
    check_morphism,
    check_square,
    enumerate_bounded_posets,
    enumerate_posets,
    identity,
    interval_map,
    interval_poset,
    triple_map,
    triple_poset,
    validate_bounded_poset,
    zero_embedding,
)

SMALL = [c2(), c3(), c4(), diamond()]


def singleton():
    return validate_bounded_poset(("0",), [])


def interval_poset_by_definition(P):
    """[a,b] <= [c,d] iff c <= a <= b <= d, tested pair by pair."""
    pairs = [(a, b) for a in range(P.n) for b in range(P.n) if P.le(a, b)]
    rows = tuple(
        sum(
            1 << k
            for k, (c, d) in enumerate(pairs)
            if P.le(c, a) and P.le(a, b) and P.le(b, d)
        )
        for a, b in pairs
    )
    labels = tuple(f"[{P.labels[a]},{P.labels[b]}]" for a, b in pairs)
    return Poset(labels, rows)


class TestIntervalPoset:
    def test_singleton(self):
        assert interval_poset(singleton()).n == 1

    def test_two_chain_has_three_intervals(self):
        I = interval_poset(c2())
        assert I.labels == ("[0,0]", "[0,1]", "[1,1]")
        # both degenerate intervals sit below the full interval
        full = I.labels.index("[0,1]")
        for lab in ("[0,0]", "[1,1]"):
            assert I.le(I.labels.index(lab), full)
        assert not I.le(I.labels.index("[0,0]"), I.labels.index("[1,1]"))

    def test_three_chain_has_six_intervals(self):
        assert interval_poset(c3()).n == 6

    def test_order_is_interval_inclusion(self):
        P = diamond()
        I = interval_poset(P)
        pairs = list(P.intervals)
        for i, (a, b) in enumerate(pairs):
            for j, (c, d) in enumerate(pairs):
                assert I.le(i, j) == (P.le(c, a) and P.le(b, d))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_definition_on_bounded_posets(self, n):
        for P in (P for P in enumerate_bounded_posets(n) if P.n == n):
            assert interval_poset(P) == interval_poset_by_definition(P)

    @pytest.mark.parametrize("m", range(6))
    def test_matches_the_definition_on_posets(self, m):
        for rows in (rows for rows in enumerate_posets(m) if len(rows) == m):
            P = Poset(tuple("abcde"[:m]), rows)
            assert interval_poset(P) == interval_poset_by_definition(P)


class TestIntervalMap:
    def test_identity(self):
        assert interval_map(identity(c3())) == identity(interval_poset(c3()))

    def test_collapse_sends_half_open_to_full(self):
        f = PosetMorphism(c3(), c2(), (0, 1, 1))  # a -> 1
        im = interval_map(f)
        src = list(c3().intervals)
        dst = list(c2().intervals)
        k = src.index((0, 1))  # [0,a]
        assert dst[im.map[k]] == (0, 1)  # [0,1]

    def test_functoriality_on_small_posets(self):
        for P in SMALL:
            for R in SMALL:
                for f in poset_maps(P, R):
                    for g in poset_maps(R, c3()):
                        assert interval_map(f.then(g)) == interval_map(f).then(
                            interval_map(g)
                        )

    def test_results_are_isotone(self):
        for f in poset_maps(diamond(), c3()):
            assert check_morphism(interval_map(f)).ok


class TestTriplePoset:
    def test_singleton(self):
        assert triple_poset(singleton()).n == 1

    def test_two_chain_has_four_triples(self):
        J = triple_poset(c2())
        assert J.n == 4
        assert c2().triples == ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))

    def test_order_shrinks_x_grows_y_fixes_z(self):
        J = triple_poset(c2())
        trips = c2().triples
        lo = trips.index((0, 0, 1))
        hi = trips.index((0, 1, 1))
        assert J.le(lo, hi)
        assert not J.le(hi, lo)
        assert not J.le(trips.index((0, 0, 0)), trips.index((0, 0, 1)))

    def test_map_identity_and_composition(self):
        assert triple_map(identity(c3())) == identity(triple_poset(c3()))
        for f in poset_maps(c4(), c3()):
            for g in poset_maps(c3(), c2()):
                assert triple_map(f.then(g)) == triple_map(f).then(triple_map(g))

    def test_collapse_action(self):
        f = PosetMorphism(c3(), c2(), (0, 0, 1))  # a -> 0
        tm = triple_map(f)
        src = c3().triples
        dst = c2().triples
        k = src.index((0, 1, 2))  # [0,a,1]
        assert dst[tm.map[k]] == (0, 0, 1)

    def test_map_that_is_not_isotone_is_rejected(self):
        f = PosetMorphism(c3(), c3(), (0, 2, 1))  # a above 1: not isotone
        with pytest.raises(InvalidStructure, match="triple is not comparable"):
            triple_map(f)


class TestZeroEmbedding:
    def test_values_on_two_chain(self):
        z = zero_embedding(c2())
        pairs = list(c2().intervals)
        assert [pairs[v] for v in z.map] == [(0, 0), (0, 1)]

    def test_isotone_on_small_posets(self):
        for P in SMALL:
            assert check_morphism(zero_embedding(P)).ok

    def test_naturality(self):
        for P in SMALL:
            for R in SMALL:
                for h in poset_maps(P, R):
                    assert check_square(
                        top=h,
                        bottom=interval_map(h),
                        left=zero_embedding(P),
                        right=zero_embedding(R),
                    )


class TestAlphaBeta:
    def test_alpha_values_on_two_chain(self):
        a = alpha(c2())
        trips = c2().triples
        ip = interval_poset(c2())
        pair_index = list(c2().intervals)
        nested = list(ip.intervals)

        def image(x, y, z):
            return nested[a.map[trips.index((x, y, z))]]

        full = pair_index.index((0, 1))
        deg_top = pair_index.index((1, 1))
        assert image(0, 0, 1) == (full, full)
        assert image(0, 1, 1) == (deg_top, full)

    def test_alpha_fixes_degenerate_triples(self):
        P = c3()
        a = alpha(P)
        trips = P.triples
        pair_index = list(P.intervals)
        nested = list(interval_poset(P).intervals)
        for x in range(P.n):
            k = trips.index((x, x, x))
            deg = pair_index.index((x, x))
            assert nested[a.map[k]] == (deg, deg)

    def test_beta_values(self):
        b = beta(c2())
        trips = c2().triples
        pairs = list(c2().intervals)
        assert pairs[b.map[trips.index((0, 0, 1))]] == (0, 0)
        assert pairs[b.map[trips.index((0, 1, 1))]] == (0, 1)

    def test_both_are_isotone_on_small_posets(self):
        for P in SMALL:
            assert check_morphism(alpha(P)).ok
            assert check_morphism(beta(P)).ok

    def test_naturality(self):
        for P in SMALL[:3]:
            for R in SMALL[:3]:
                for h in poset_maps(P, R):
                    assert check_square(
                        top=triple_map(h),
                        bottom=interval_map(interval_map(h)),
                        left=alpha(P),
                        right=alpha(R),
                    )
                    assert check_square(
                        top=triple_map(h),
                        bottom=interval_map(h),
                        left=beta(P),
                        right=beta(R),
                    )


class TestCheckSquare:
    def test_identity_square(self):
        i = identity(c3())
        assert check_square(i, i, i, i)

    def test_mismatched_leg_fails(self):
        P = c3()
        h = PosetMorphism(P, c2(), (0, 1, 1))
        other = PosetMorphism(P, c2(), (0, 0, 1))
        assert not check_square(identity(P), h, identity(P), other)

    def test_incompatible_boundaries_raise(self):
        with pytest.raises(InvalidStructure, match="corner"):
            check_square(
                identity(c3()), identity(c2()), identity(c3()), identity(c2())
            )
