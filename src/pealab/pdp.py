"""Pseudo D-posets: bounded posets with two partial difference operations.

``slash[b][a]`` holds b/a and ``bslash[b][a]`` holds b\\a; both are defined
exactly when a <= b.  The axioms are

  PD1: a/0 = a\\0 = a
  PD2: for a <= b <= c, c/b <= c/a and c\\b <= c\\a, with
       (c/a)\\(c/b) = b/a and (c\\a)/(c\\b) = b\\a.

Exchanging the two tables gives the opposite structure, and it turns each
axiom's / half into its \\ half, so check_pdp writes every rule once and
reads it on (/, \\) and then on the mirror (\\, /).

Tables are stored densely with ``None`` marking undefined entries, so the
exhaustive checkers get O(1) lookups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidStructure
from .functors import interval_poset
from .posets import (
    BoundedPoset,
    PosetMorphism,
    _Map,
    enumerate_morphisms,
    induced_subposet,
    morphism_violations,
    product_bposets,
)
from .reports import Report, Violation

DiffTable = tuple[tuple[int | None, ...], ...]


def _check_table(table, n: int, name: str) -> None:
    if len(table) != n or any(len(row) != n for row in table):
        raise InvalidStructure(f"{name} table size does not match the carrier")
    for row in table:
        for v in row:
            if v is not None and not 0 <= v < n:
                raise InvalidStructure(f"{name} table references unknown elements")


@dataclass(frozen=True)
class PseudoDPoset:
    base: BoundedPoset
    slash: DiffTable
    bslash: DiffTable

    def __post_init__(self):
        _check_table(self.slash, self.base.n, "slash")
        _check_table(self.bslash, self.base.n, "bslash")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.base.labels

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # every field is immutable, so the value hash never changes
        return hash((self.base, self.slash, self.bslash))

    @classmethod
    def from_pairs(cls, base: BoundedPoset, differences) -> PseudoDPoset:
        """The inverse of :attr:`pairs`: the structure on ``base`` whose
        tables hold one (b/a, b\\a) of ``differences`` for each a <= b, in
        the order of ``base.intervals``, and ``None`` elsewhere."""
        n = base.n
        slash = [[None] * n for _ in range(n)]
        bslash = [[None] * n for _ in range(n)]
        for (a, b), (s, t) in zip(base.intervals, differences, strict=True):
            slash[b][a], bslash[b][a] = s, t
        return cls(base, tuple(map(tuple, slash)), tuple(map(tuple, bslash)))

    @cached_property
    def pairs(self) -> tuple[tuple[int, int, int | None, int | None], ...]:
        """Each a <= b in the order of ``base.intervals``, with its
        differences: (a, b, b/a, b\\a)."""
        s, t = self.slash, self.bslash
        return tuple((a, b, s[b][a], t[b][a]) for a, b in self.base.intervals)

    @cached_property
    def forcing_rules(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        """For each element x, the rules (a, b, d, k) that placing x
        triggers in :func:`enumerate_pdp_morphisms`: one for each a <= b with
        x among a and b and each defined difference d, b/a with k = 0 or
        b\\a with k = 1, in the order of :attr:`pairs`."""
        triggers = [[] for _ in range(self.n)]
        for a, b, s, t in self.pairs:
            for k, d in enumerate((s, t)):
                if d is not None:
                    for x in {a, b}:
                        triggers[x].append((a, b, d, k))
        return tuple(map(tuple, triggers))


def is_dposet(X: PseudoDPoset) -> bool:
    """True iff the two difference operations coincide pointwise."""
    return X.slash == X.bslash


def check_pdp(X: PseudoDPoset) -> Report:
    """Report every definedness, PD1 or PD2 violation with its witnesses."""
    base = X.base
    n = base.n
    lab = base.labels
    leq, down = base.leq, base.down
    violations = []
    sides = (("/", X.slash), ("\\", X.bslash))
    mirrored = (sides, sides[::-1])

    for name, table in sides:
        for b, row in enumerate(table):
            below = down[b]  # bit a is set iff a <= b
            for a, v in enumerate(row):
                defined = v is not None
                if defined != below >> a & 1:
                    violations.append(
                        Violation(
                            "definedness",
                            (("b", lab[b]), ("a", lab[a])),
                            f"b{name}a defined although a <= b fails"
                            if defined
                            else f"b{name}a undefined although a <= b",
                        )
                    )

    zero = base.bottom
    for a in range(n):
        for name, table in sides:
            if table[a][zero] is not None and table[a][zero] != a:
                violations.append(
                    Violation("PD1", (("a", lab[a]),), f"a{name}0 differs from a")
                )

    for a in range(n):
        for b in base.up[a]:
            for c in base.up[b]:
                for (p, T), (q, U) in mirrored:
                    cb, ca = T[c][b], T[c][a]
                    if cb is None or ca is None:
                        continue
                    if not leq[cb] >> ca & 1:
                        detail = f"c{p}b <= c{p}a fails"
                    elif U[ca][cb] != T[b][a]:
                        detail = f"(c{p}a){q}(c{p}b) differs from b{p}a"
                    else:
                        continue
                    where = (("a", lab[a]), ("b", lab[b]), ("c", lab[c]))
                    violations.append(Violation("PD2", where, detail))
    return Report("check_pdp", tuple(violations))


def difference_maps(X: PseudoDPoset) -> tuple[PosetMorphism, PosetMorphism]:
    """The differences as maps s: [a,b] -> b/a and t: [a,b] -> b\\a from the
    interval poset I(P) of the base P to P.  Only shape is checked: an
    undefined difference on an interval raises InvalidStructure.

    Theorem: tables undefined off the order pass :func:`check_pdp` iff s
    and t are total isotone maps with e;s = e;t = 1, beta;s = alpha;I(s);t
    and beta;t = alpha;I(t);s, where e, alpha, beta and I (interval_map)
    come from :mod:`~pealab.functors`.  Proof: totality is definedness on
    the order.  e(x) = [0,x], so the unit law is PD1.  I(s) exists iff s
    is isotone.  At a triple (a,b,c), beta gives [a,b] and alpha;I(s)
    gives [c/b, c/a], so the squares there read b/a = (c/a)\\(c/b) and
    b\\a = (c\\a)/(c\\b), PD2's equations; isotone s and t give its
    inequalities, as [b,c] <= [a,c].  Conversely, for c <= a <= b <= d,
    PD2 at (a,b,d), (0,d/b,d/a) and (c,a,d) and PD1 give
    b/a = (d/a)\\(d/b) <= (d/a)\\0 = d/a <= d/c, so s is isotone, and
    likewise t.
    """
    ip = interval_poset(X.base)
    _, _, slash, bslash = zip(*X.pairs)
    maps = []
    for name, values in (("/", slash), ("\\", bslash)):
        if None in values:
            a, b, *_ = X.pairs[values.index(None)]
            raise InvalidStructure(
                f"difference {X.labels[b]}{name}{X.labels[a]} is undefined"
            )
        maps.append(PosetMorphism(ip, X.base, values))
    return tuple(maps)


class PDPMorphism(_Map):
    """Map between pseudo D-posets; the preservation of both differences
    is diagnosed by :func:`check_pdp_morphism`."""

    @cached_property
    def poset_map(self) -> PosetMorphism:
        """U(h), the bounded-poset map between the bases, built on first read."""
        return PosetMorphism(self.source.base, self.target.base, self.map)


def pdp_morphism_violations(X: PseudoDPoset, Y: PseudoDPoset, m):
    """Lazily yield the violations of the map table ``m`` from X to Y, in
    report order: those of :func:`morphism_violations`, then, over X's
    cached pairs a <= b whose images are related, a broken / before a
    broken \\.  Pairs whose difference is ``None`` are skipped."""
    yield from morphism_violations(X.base, Y.base, m)
    lab, yleq, yslash, ybslash = X.labels, Y.base.leq, Y.slash, Y.bslash
    for a, b, s, t in X.pairs:
        fa, fb = m[a], m[b]
        if not yleq[fa] >> fb & 1:
            continue  # already reported as an isotonicity violation
        if s is not None and yslash[fb][fa] != m[s]:
            where = (("b", lab[b]), ("a", lab[a]))
            yield Violation("slash", where, "f(b/a) differs from f(b)/f(a)")
        if t is not None and ybslash[fb][fa] != m[t]:
            where = (("b", lab[b]), ("a", lab[a]))
            yield Violation("bslash", where, "f(b\\a) differs from f(b)\\f(a)")


def preserves_differences(X: PseudoDPoset, Y: PseudoDPoset, m) -> bool:
    """Whether the map table ``m`` is a morphism X -> Y: the verdict of
    :func:`pdp_morphism_violations`, from one pass over X's cached pairs
    that stops at the first violation, then the bounds.  Each pair is
    checked for isotonicity, then for both differences."""
    yleq, yslash, ybslash = Y.base.leq, Y.slash, Y.bslash
    for a, b, s, t in X.pairs:
        fa, fb = m[a], m[b]
        if not yleq[fa] >> fb & 1:
            return False
        if s is not None and yslash[fb][fa] != m[s]:
            return False
        if t is not None and ybslash[fb][fa] != m[t]:
            return False
    return m[X.base.bottom] == Y.base.bottom and m[X.base.top] == Y.base.top


def check_pdp_morphism(h: PDPMorphism) -> Report:
    """Report bound/isotonicity violations and every broken difference: all
    of :func:`pdp_morphism_violations`.  A verdict alone is cheaper from
    :func:`preserves_differences`, which stops at the first violation."""
    violations = pdp_morphism_violations(h.source, h.target, h.map)
    return Report("check_pdp_morphism", tuple(violations))


def enumerate_pdp_morphisms(X: PseudoDPoset, Y: PseudoDPoset) -> list[PDPMorphism]:
    """All difference-preserving morphisms X -> Y, in map-table order.

    :func:`enumerate_morphisms` with X's :attr:`~PseudoDPoset.forcing_rules`
    read on Y's tables: for each a <= b of X and each of its differences,
    f(b/a) is forced to be f(b)/f(a) (likewise for \\).  Nothing is lost,
    since a forced value is the only one a completion can take, and each
    rule is decided once a, b and b/a are all placed.  Pairs whose
    difference is ``None`` give no rule, so the result equals filtering
    every bounded-poset map through :func:`check_pdp_morphism`, also when X
    or Y fails :func:`check_pdp`.  The rules are built once per source;
    only Y's two tables are bound per call, and each table found is wrapped once.
    """
    rules = ((Y.slash, Y.bslash), X.forcing_rules)
    return [PDPMorphism(X, Y, m) for m in enumerate_morphisms(X.base, Y.base, rules)]


def subalgebra_generated(X: PseudoDPoset, seed) -> tuple[int, ...]:
    """Least subset containing seed and the bounds, closed under / and \\."""
    members = set(seed) | {X.base.bottom, X.base.top}
    for i in members:
        if not 0 <= i < X.n:
            raise InvalidStructure("seed references unknown elements")
    while True:
        new = {
            v for a, b, *diffs in X.pairs if a in members and b in members
            for v in diffs
        } - members - {None}
        if not new:
            return tuple(sorted(members))
        members |= new


def product_pdp(factors) -> PseudoDPoset:
    """Finite product: base is the product of bases, differences pointwise."""
    factors = list(factors)
    base = product_bposets([x.base for x in factors])
    tuples = list(itertools.product(*(range(x.n) for x in factors)))
    index = {t: k for k, t in enumerate(tuples)}

    def differences(ka, kb):
        ends = list(zip(factors, tuples[ka], tuples[kb]))
        sv = tuple(x.slash[b][a] for x, a, b in ends)
        bv = tuple(x.bslash[b][a] for x, a, b in ends)
        if None in sv or None in bv:
            raise InvalidStructure("factor difference table is incomplete")
        return index[sv], index[bv]

    return PseudoDPoset.from_pairs(base, (differences(*p) for p in base.intervals))


def equalizer_pdp(f: PDPMorphism, g: PDPMorphism):
    """Equalizer subalgebra {x : f(x) = g(x)} with its inclusion.

    InvalidStructure is raised unless f and g are a parallel pair that
    passes :func:`preserves_differences`.  Then the agreement set holds
    the bounds, and b/a and b\\a of any a <= b in it, where X defines
    them: f(b/a) = f(b)/f(a) = g(b)/g(a) = g(b/a), and likewise for \\.
    """
    if f.source != g.source or f.target != g.target:
        raise InvalidStructure("morphisms are not a parallel pair")
    X = f.source
    if not all(preserves_differences(X, h.target, h.map) for h in (f, g)):
        raise InvalidStructure("equalizer requires difference-preserving maps")
    carrier = [x for x in range(X.n) if f(x) == g(x)]
    pos = {v: k for k, v in enumerate(carrier)}
    base = induced_subposet(X.base, carrier)

    def differences(ka, kb):
        a, b = carrier[ka], carrier[kb]
        try:
            return pos[X.slash[b][a]], pos[X.bslash[b][a]]
        except KeyError:  # pos[None]: the maps preserve the differences
            raise InvalidStructure(
                f"the source leaves a difference of [{X.labels[a]},"
                f"{X.labels[b]}] undefined"
            ) from None

    E = PseudoDPoset.from_pairs(base, (differences(*p) for p in base.intervals))
    inclusion = PDPMorphism(E, X, tuple(carrier))
    return E, inclusion
