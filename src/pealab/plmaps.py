"""Piecewise-linear order-automorphisms of the nonnegative half-line.

A map is anchored at 0 -> 0, strictly increasing and continuous, with
finitely many slope changes at positive rational breakpoints.  All
arithmetic is exact over ``fractions.Fraction``; membership in the band
x <= f(x) <= 2x is inequality-sensitive, so floating point would make it
flaky.  The admissible band is the interval between the identity and the
doubling map in the pointwise order; composition is the partial addition
on it, and it fails to commute.

Maps are kept in normal form (no two adjacent segments share a slope),
and equality is normal-form equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidStructure


def _frac(x) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InvalidStructure(f"not a rational number: {x!r}") from exc


@dataclass(frozen=True)
class PLMap:
    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(_frac(b) for b in self.breakpoints)
        slopes = tuple(_frac(s) for s in self.slopes)
        if len(slopes) != len(bps) + 1:
            raise InvalidStructure("need exactly one slope per segment")
        if any(b <= 0 for b in bps):
            raise InvalidStructure("breakpoints must be positive")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise InvalidStructure("breakpoints must be strictly increasing")
        if any(s <= 0 for s in slopes):
            raise InvalidStructure("slopes must be positive")
        normal_b, normal_s = [], [slopes[0]]
        for b, s in zip(bps, slopes[1:]):
            if s == normal_s[-1]:
                continue
            normal_b.append(b)
            normal_s.append(s)
        object.__setattr__(self, "breakpoints", tuple(normal_b))
        object.__setattr__(self, "slopes", tuple(normal_s))

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        if x < 0:
            raise InvalidStructure("maps are defined on x >= 0 only")
        value = Fraction(0)
        previous = Fraction(0)
        for b, s in zip(self.breakpoints, self.slopes):
            if x <= b:
                return value + s * (x - previous)
            value += s * (b - previous)
            previous = b
        return value + self.slopes[-1] * (x - previous)

    def slope_at(self, x) -> Fraction:
        """Slope of the segment whose interior contains x."""
        x = _frac(x)
        for b, s in zip(self.breakpoints, self.slopes):
            if x < b:
                return s
        return self.slopes[-1]

    def inverse_value(self, y) -> Fraction:
        """Preimage of y >= 0 under this (bijective) map."""
        y = _frac(y)
        if y < 0:
            raise InvalidStructure("maps take values in y >= 0 only")
        value = Fraction(0)
        previous = Fraction(0)
        for b, s in zip(self.breakpoints, self.slopes):
            step = s * (b - previous)
            if y <= value + step:
                return previous + (y - value) / s
            value += step
            previous = b
        return previous + (y - value) / self.slopes[-1]


def pl_map(breakpoints, slopes) -> PLMap:
    """Build a map from rationals given as Fraction, int or 'p/q' strings."""
    return PLMap(tuple(breakpoints), tuple(slopes))


def pl_compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact composition f o g, with merged breakpoints and no rounding."""
    cuts = sorted(set(g.breakpoints) | {g.inverse_value(b) for b in f.breakpoints})
    slopes = []
    previous = Fraction(0)
    for c in cuts:
        sample = (previous + c) / 2
        slopes.append(f.slope_at(g(sample)) * g.slope_at(sample))
        previous = c
    tail_sample = previous + 1
    slopes.append(f.slope_at(g(tail_sample)) * g.slope_at(tail_sample))
    return PLMap(tuple(cuts), tuple(slopes))


@dataclass(frozen=True)
class BandViolation:
    """An exact witness that a map leaves the band x <= f(x) <= 2x."""

    point: Fraction
    value: Fraction

    @property
    def lower(self) -> Fraction:
        return self.point

    @property
    def upper(self) -> Fraction:
        return 2 * self.point

    def __str__(self) -> str:
        return (
            f"value {self.value} at x = {self.point} escapes "
            f"[{self.lower}, {self.upper}]"
        )


def find_band_violation(f: PLMap):
    """First witness against membership, scanning each bounded segment
    left to right through its midpoint and right endpoint, then the tail,
    or None when f lies in the band.

    Piecewise linearity makes this a complete decision procedure: on a
    bounded segment both inequalities are linear, so they hold iff they
    hold at the endpoints, and on the unbounded tail they hold iff they
    hold at its start and the slope stays within [1, 2].
    """

    def probe(x) -> BandViolation | None:
        v = f(x)
        if not x <= v <= 2 * x:
            return BandViolation(x, v)
        return None

    previous = Fraction(0)
    for b in f.breakpoints:
        for x in ((previous + b) / 2, b):
            hit = probe(x)
            if hit:
                return hit
        previous = b
    tail = f.slopes[-1]
    base_value = f(previous)
    if tail < 1:
        # f(x) - x decreases with slope tail - 1; solve for the crossing
        x = previous + (base_value - previous) / (1 - tail) + 1
        return BandViolation(x, f(x))
    if tail > 2:
        x = previous + (2 * previous - base_value) / (tail - 2) + 1
        return BandViolation(x, f(x))
    return None


def pl_in_unit_interval(f: PLMap) -> bool:
    """Exact decision of x <= f(x) <= 2x for all x >= 0."""
    return find_band_violation(f) is None


def pl_sum(f: PLMap, g: PLMap):
    """Partial addition on the band: f + g = f o g when that stays in the
    band, undefined (None) otherwise.  Operands must lie in the band."""
    for name, h in (("left", f), ("right", g)):
        if not pl_in_unit_interval(h):
            raise InvalidStructure(f"{name} operand lies outside the band")
    composed = pl_compose(f, g)
    return composed if pl_in_unit_interval(composed) else None


@dataclass(frozen=True)
class NoncommutativityReport:
    """What the witness pair (f, g) shows: f+g is defined while g+f is
    undefined."""

    forward_sum: PLMap
    reverse_composition: PLMap
    violation: BandViolation

    def lines(self) -> list[str]:
        return [
            "f + g is defined: f o g stays inside the band",
            f"g + f is undefined: {self.violation}",
        ]


def pl_noncommutativity_witness():
    """A pair witnessing noncommutativity of the partial addition.

    f doubles up to 1 and then shifts; g is flat to 1, doubles to 2, then
    shifts.  f o g equals 2x out to 2 and stays admissible, while g o f
    overshoots the doubling bound strictly inside a segment.
    """
    f = pl_map((1,), (2, 1))
    g = pl_map((1, 2), (1, 2, 1))
    forward = pl_sum(f, g)
    if forward is None:
        raise InvalidStructure("witness construction broke: f+g undefined")
    reverse = pl_compose(g, f)
    violation = find_band_violation(reverse)
    if violation is None:
        raise InvalidStructure("witness construction broke: g+f defined")
    report = NoncommutativityReport(forward, reverse, violation)
    return f, g, report
