"""Pseudo effect algebras: axioms, induced order, difference conversion.

A pseudo effect algebra is a bounded poset (its ``base``, the poset that
the forgetful functor U keeps) with a partial addition, whose bounds are
the constants 0 and 1, subject to

  PE1: a+(b+c) exists iff (a+b)+c exists, and then both agree,
  PE2: every a has exactly one d with a+d = 1 and exactly one e with e+a = 1,
  PE3: if a+b exists there are d, e with d+a = b+e = a+b,
  PE4: if a+1 or 1+a exists then a = 0,

together with the requirement that a <= c iff a+b = c for some b defines
exactly the order of the base.  The checker reports the axiom layer and the
order layer separately.

The opposite algebra, a +' b = b + a, has the transposed table and the
difference tables exchanged (Dvurecenskij & Vetterlein, Pseudoeffect
algebras I, Int. J. Theor. Phys. 40 (2001)).  It swaps the two halves of
PE2 and of PE3, so each two-sided rule here, and each of the two
conversions, is written once and read on a table and on its mirror.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidStructure
from .pdp import PseudoDPoset, _check_table
from .posets import BoundedPoset, check_map_shape, check_order
from .reports import Report, Violation

PlusTable = tuple[tuple[int | None, ...], ...]


@dataclass(frozen=True)
class PseudoEffectAlgebra:
    base: BoundedPoset
    plus: PlusTable

    def __post_init__(self):
        _check_table(self.plus, self.base.n, "addition")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.base.labels

    @property
    def zero(self) -> int:
        return self.base.bottom

    @property
    def one(self) -> int:
        return self.base.top


def induced_relation(A: PseudoEffectAlgebra) -> BoundedPoset:
    """The relation a <= c iff a+b = c for some b, with 0 and 1 as its
    declared bounds; :func:`check_order` decides whether it is an order."""
    rows = [0] * A.n
    for a, row in enumerate(A.plus):
        for c in row:
            if c is not None:
                rows[a] |= 1 << c
    # A's own shape checks cover the poset's, so this cannot raise
    return BoundedPoset(A.labels, tuple(rows), A.zero, A.one)


def check_pea(A: PseudoEffectAlgebra) -> Report:
    """Report every PE1..PE4 violation, then :func:`check_order`'s lines
    for :func:`induced_relation`; when that relation is an order, report
    whether it differs from A's base.

    Only defined sums are visited.  A triple (a, b, c) breaks PE1 iff
    a+(b+c) and (a+b)+c differ, so iff one of them is defined and the
    other is undefined or another element.  The left walk visits every
    triple with (a+b)+c defined (b in a's row, then c in the row of a+b)
    and flags it iff a+(b+c) differs; the right walk visits every triple
    with a+(b+c) defined (c in b's row, then each a with a+(b+c) defined)
    and flags it iff (a+b)+c is undefined.  So a violation with (a+b)+c
    defined is flagged by the left walk and one with it undefined by the
    right walk, each walk flags only violations, and no triple is flagged
    twice; sorting restores (a, b, c) order.

    PE3 and the induced relation read the same defined sums: some b+e is
    a+b iff bit a+b of the mask of b's row, the induced row of b, is set,
    and some d+a is a+b iff that bit of a's column mask is set.  When the
    induced rows are the base's, the induced poset has the base's labels,
    rows and bounds, so the order layer is the base's cached
    :attr:`~pealab.posets.Poset.order_report`.
    """
    n = A.n
    lab = A.labels
    plus = A.plus
    one = A.one
    # sums[a]: each (b, a+b) with a+b defined; adders[c]: each a with a+c
    # defined; rows[a] and cols[a]: the masks of a's row and column
    sums = [[(b, c) for b, c in enumerate(row) if c is not None] for row in plus]
    adders = [[] for _ in range(n)]
    rows = [0] * n
    cols = [0] * n
    for a, a_sums in enumerate(sums):
        for b, c in a_sums:
            adders[b].append(a)
            rows[a] |= 1 << c
            cols[b] |= 1 << c

    hits = []  # (a, b, c, whether a+(b+c) exists)
    for a, a_row in enumerate(plus):
        for b, ab in sums[a]:
            b_row = plus[b]
            for c, ab_c in sums[ab]:
                bc = b_row[c]
                if bc is None or a_row[bc] != ab_c:
                    hits.append((a, b, c, bc is not None and a_row[bc] is not None))
    for b, b_sums in enumerate(sums):
        for c, bc in b_sums:
            for a in adders[bc]:
                ab = plus[a][b]
                if ab is None or plus[ab][c] is None:
                    hits.append((a, b, c, True))
    hits.sort()
    violations = [
        Violation(
            "PE1",
            (("a", lab[a]), ("b", lab[b]), ("c", lab[c])),
            "a+(b+c) exists but (a+b)+c does not match it"
            if a_bc_exists
            else "(a+b)+c exists but a+(b+c) does not",
        )
        for a, b, c, a_bc_exists in hits
    ]

    # the transpose is the opposite algebra's table: its row a holds x+a
    ones = [row.count(one) for row in plus]
    opposite_ones = [row.count(one) for row in zip(*plus)]
    for a in range(n):
        sides = ((ones[a], "d satisfy a+d=1"), (opposite_ones[a], "e satisfy e+a=1"))
        for count, text in sides:
            if count != 1:
                violations.append(
                    Violation("PE2", (("a", lab[a]),), f"{count} elements {text}")
                )

    for a, a_sums in enumerate(sums):
        for b, c in a_sums:
            for mask, text in ((cols[a], "d with d+a"), (rows[b], "e with b+e")):
                if not mask >> c & 1:
                    violations.append(
                        Violation(
                            "PE3", (("a", lab[a]), ("b", lab[b])), f"no {text} = a+b"
                        )
                    )

    for a in range(n):
        if a == A.zero:
            continue
        if plus[a][one] is not None or plus[one][a] is not None:
            violations.append(
                Violation("PE4", (("a", lab[a]),), "a+1 or 1+a exists with a != 0")
            )

    base = A.base
    if tuple(rows) == base.leq:
        violations.extend(base.order_report.violations)
    else:
        order = check_order(induced_relation(A)).violations
        violations.extend(order)
        if not order:
            violations.append(Violation(
                "order", (),
                "declared covers disagree with the order induced by the addition",
            ))
    return Report("check_pea", tuple(violations))


def pea_to_pdp(A: PseudoEffectAlgebra) -> PseudoDPoset:
    """Difference tables for A on its base: a + (c/a) = (c\\a) + a = c.

    Raises InvalidStructure when the addition induces another order than
    the base, or when some difference is missing or ambiguous; either
    signals that A is not a pseudo effect algebra.
    """
    base = A.base
    if induced_relation(A).leq != base.leq:
        raise InvalidStructure("the induced order differs from the declared one")
    # c\a is c/a in the opposite algebra, whose table is the transpose
    sides = ((A.plus, "{a}+x={c}"), (tuple(zip(*A.plus)), "y+{a}={c}"))

    def differences(a, c):
        for table, equation in sides:
            xs = [x for x, v in enumerate(table[a]) if v == c]
            if len(xs) != 1:
                raise InvalidStructure(
                    f"{len(xs)} solutions of "
                    + equation.format(a=A.labels[a], c=A.labels[c])
                )
            yield xs[0]

    return PseudoDPoset.from_pairs(
        base, (tuple(differences(*p)) for p in base.intervals)
    )


def pdp_to_pea(X: PseudoDPoset) -> PseudoEffectAlgebra:
    """Partial addition recovered from the differences.

    a+b is defined and equals c iff a <= c and c/a = b, equivalently iff
    b <= c and c\\b = a.  The second reading is the first one in the
    opposite algebra, with the operands exchanged; the two are cross-checked
    and a disagreement raises InvalidStructure.
    """
    base = X.base
    n = base.n
    lab = base.labels
    sums = []
    for name, table, step in (("/", X.slash, 1), ("\\", X.bslash, -1)):
        plus = [[None] * n for _ in range(n)]
        for d, c in base.intervals:
            e = table[c][d]
            if e is None:
                raise InvalidStructure(
                    f"difference {lab[c]}{name}{lab[d]} is undefined"
                )
            a, b = (d, e)[::step]  # c\d = e means e+d = c
            if plus[a][b] not in (None, c):
                raise InvalidStructure(
                    f"addition at ({lab[a]},{lab[b]}) is ambiguous"
                )
            plus[a][b] = c
        sums.append(tuple(map(tuple, plus)))
    if sums[0] != sums[1]:
        raise InvalidStructure(
            "the two difference tables disagree on the induced addition"
        )
    return PseudoEffectAlgebra(base, sums[0])


def is_commutative(A: PseudoEffectAlgebra) -> bool:
    """True iff a+b and b+a are defined together and agree."""
    return all(
        A.plus[a][b] == A.plus[b][a] for a in range(A.n) for b in range(a + 1, A.n)
    )


def check_pea_morphism(f, A: PseudoEffectAlgebra, B: PseudoEffectAlgebra) -> Report:
    """Report violations of f(0)=0, f(1)=1 and sum preservation by the map
    table f from A to B, whose shape :func:`check_map_shape` checks."""
    check_map_shape(A, B, f)
    violations = []
    if f[A.zero] != B.zero:
        violations.append(
            Violation("zero", (("element", A.labels[A.zero]),), "zero not preserved")
        )
    if f[A.one] != B.one:
        violations.append(
            Violation("one", (("element", A.labels[A.one]),), "one not preserved")
        )
    for a in range(A.n):
        for b in range(A.n):
            c = A.plus[a][b]
            if c is None:
                continue
            fc = B.plus[f[a]][f[b]]
            where = (("a", A.labels[a]), ("b", A.labels[b]))
            if fc is None:
                violations.append(
                    Violation("plus", where, "f(a)+f(b) is undefined")
                )
            elif fc != f[c]:
                violations.append(
                    Violation("plus", where, "f(a+b) differs from f(a)+f(b)")
                )
    return Report("check_pea_morphism", tuple(violations))
