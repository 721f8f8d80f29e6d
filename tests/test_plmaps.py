from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pealab import (
    InvalidStructure,
    PLMap,
    find_band_violation,
    pl_compose,
    pl_in_unit_interval,
    pl_map,
    pl_noncommutativity_witness,
    pl_sum,
)

IDENTITY = pl_map((), (1,))
DOUBLING = pl_map((), (2,))


@st.composite
def plmaps(draw):
    count = draw(st.integers(min_value=0, max_value=4))
    deltas = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 8), max_value=4),
            min_size=count, max_size=count,
        )
    )
    bps = []
    acc = Fraction(0)
    for d in deltas:
        acc += d
        bps.append(acc)
    slopes = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 8), max_value=4),
            min_size=count + 1, max_size=count + 1,
        )
    )
    return PLMap(tuple(bps), tuple(slopes))


def sample_points(f: PLMap):
    """Breakpoints, segment midpoints, and a tail probe."""
    pts = []
    previous = Fraction(0)
    for b in f.breakpoints:
        pts.append((previous + b) / 2)
        pts.append(b)
        previous = b
    pts.append(previous + 1)
    pts.append(previous + 1000)
    return pts


class TestBandMembership:
    def test_identity_and_doubling_are_members(self):
        assert pl_in_unit_interval(IDENTITY)
        assert pl_in_unit_interval(DOUBLING)

    def test_steep_line_is_not(self):
        assert not pl_in_unit_interval(pl_map((), (3,)))

    def test_shallow_tail_is_caught_with_witness(self):
        f = pl_map((1,), (2, Fraction(1, 2)))
        assert not pl_in_unit_interval(f)
        hit = find_band_violation(f)
        assert hit is not None and hit.value < hit.lower

    @settings(max_examples=200, deadline=None)
    @given(plmaps())
    def test_decision_agrees_with_dense_sampling(self, f):
        member = pl_in_unit_interval(f)
        sampled = all(x <= f(x) <= 2 * x for x in sample_points(f))
        if member:
            assert sampled
        if not sampled:
            assert not member

    @settings(max_examples=200, deadline=None)
    @given(plmaps())
    def test_violation_witness_is_exact(self, f):
        hit = find_band_violation(f)
        assert (hit is None) == pl_in_unit_interval(f)
        if hit is not None:
            assert f(hit.point) == hit.value
            assert not hit.lower <= hit.value <= hit.upper


class TestCompose:
    def test_identity_is_neutral(self):
        f = pl_map((1, 2), (1, 2, 1))
        assert pl_compose(f, IDENTITY) == f
        assert pl_compose(IDENTITY, f) == f

    def test_doubling_composes_to_quadrupling(self):
        assert pl_compose(DOUBLING, DOUBLING) == pl_map((), (4,))

    def test_breakpoint_merge_evaluates_pointwise(self):
        f = pl_map((1,), (2, 1))
        g = pl_map((2,), (1, 2))
        fg = pl_compose(f, g)
        for k in range(0, 50):
            x = Fraction(k, 7)
            assert fg(x) == f(g(x))

    @settings(max_examples=100, deadline=None)
    @given(plmaps(), plmaps(), st.fractions(min_value=0, max_value=50))
    def test_compose_is_pointwise_composition(self, f, g, x):
        assert pl_compose(f, g)(x) == f(g(x))

    @settings(max_examples=100, deadline=None)
    @given(plmaps(), plmaps(), plmaps())
    def test_compose_is_associative(self, f, g, h):
        assert pl_compose(pl_compose(f, g), h) == pl_compose(f, pl_compose(g, h))

    def test_inverse_value_round_trips(self):
        f = pl_map((1, 3), (2, 1, 2))
        for k in range(0, 40):
            x = Fraction(k, 5)
            assert f.inverse_value(f(x)) == x


class TestNormalForm:
    def test_redundant_breakpoints_are_merged(self):
        assert pl_map((1, 2), (2, 2, 1)) == pl_map((2,), (2, 1))
        assert pl_map((5,), (1, 1)) == IDENTITY

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_normal_form_keeps_the_raw_map(self, data):
        count = data.draw(st.integers(min_value=0, max_value=5))
        deltas = data.draw(st.lists(
            st.fractions(min_value=Fraction(1, 8), max_value=4),
            min_size=count, max_size=count,
        ))
        # few distinct slopes, so adjacent segments often share one
        slopes = data.draw(st.lists(
            st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
            min_size=count + 1, max_size=count + 1,
        ))
        bps = [sum(deltas[: k + 1]) for k in range(count)]
        f = PLMap(tuple(bps), tuple(slopes))

        assert all(a != b for a, b in zip(f.slopes, f.slopes[1:]))

        def raw(x):
            # integrate the raw slopes over [0, x], segment by segment
            value, previous = Fraction(0), Fraction(0)
            for end, slope in zip(bps + [x], slopes):
                value += slope * max(Fraction(0), min(x, end) - previous)
                previous = end
            return value

        tail = (bps[-1] if bps else 0) + 1
        previous = Fraction(0)
        for b in bps + [tail]:
            for x in (b, (previous + b) / 2):
                assert f(x) == raw(x)
            previous = b
        assert PLMap(f.breakpoints, f.slopes) == f

    def test_invalid_maps_are_rejected(self):
        with pytest.raises(InvalidStructure):
            pl_map((2, 1), (1, 1, 1))  # decreasing breakpoints
        with pytest.raises(InvalidStructure):
            pl_map((1,), (1, 0))  # zero slope
        with pytest.raises(InvalidStructure):
            pl_map((), (1, 1))  # slope count mismatch
        with pytest.raises(InvalidStructure, match="not a rational number: inf"):
            pl_map((), (float("inf"),))


class TestSum:
    def test_identity_is_the_zero_element(self):
        f = pl_map((1,), (2, 1))
        assert pl_sum(IDENTITY, f) == f
        assert pl_sum(f, IDENTITY) == f

    def test_doubling_plus_doubling_is_undefined(self):
        assert pl_sum(DOUBLING, DOUBLING) is None

    def test_operands_outside_the_band_are_rejected(self):
        with pytest.raises(InvalidStructure, match="operand"):
            pl_sum(pl_map((), (3,)), IDENTITY)


class TestNoncommutativityWitness:
    def test_witness_pair_is_asymmetric(self):
        f, g, report = pl_noncommutativity_witness()
        assert pl_in_unit_interval(f) and pl_in_unit_interval(g)
        assert pl_sum(f, g) is not None
        assert pl_sum(g, f) is None

    def test_forward_sum_is_the_expected_map(self):
        _, _, report = pl_noncommutativity_witness()
        assert report.forward_sum == pl_map((2,), (2, 1))

    def test_violation_point_and_value(self):
        f, g, report = pl_noncommutativity_witness()
        assert report.violation.point == Fraction(3, 4)
        assert report.violation.value == 2
        assert g(f(Fraction(3, 4))) == 2
        assert report.violation.upper == Fraction(3, 2)

    def test_reverse_composition_is_regression_pinned(self):
        _, _, report = pl_noncommutativity_witness()
        assert report.reverse_composition == pl_map(
            (Fraction(1, 2), 1), (2, 4, 1)
        )
