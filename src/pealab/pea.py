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
from .posets import BoundedPoset, check_order, iter_bits
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
    whether it differs from A's base."""
    n = A.n
    lab = A.labels
    plus = A.plus
    violations = []

    for a in range(n):
        a_row = plus[a]
        for b in range(n):
            b_row = plus[b]
            ab = a_row[b]
            ab_row = None if ab is None else plus[ab]
            for c in range(n):
                bc = b_row[c]
                a_bc = None if bc is None else a_row[bc]
                ab_c = None if ab_row is None else ab_row[c]
                if a_bc == ab_c:
                    continue
                violations.append(
                    Violation(
                        "PE1",
                        (("a", lab[a]), ("b", lab[b]), ("c", lab[c])),
                        "a+(b+c) exists but (a+b)+c does not match it"
                        if a_bc is not None
                        else "(a+b)+c exists but a+(b+c) does not",
                    )
                )

    # the transpose is the opposite algebra's table: its row a holds x+a
    opposite = tuple(zip(*plus))
    for a in range(n):
        sides = ((plus[a], "d satisfy a+d=1"), (opposite[a], "e satisfy e+a=1"))
        for row, text in sides:
            count = row.count(A.one)
            if count != 1:
                violations.append(
                    Violation("PE2", (("a", lab[a]),), f"{count} elements {text}")
                )

    for a in range(n):
        for b in range(n):
            c = plus[a][b]
            if c is None:
                continue
            for line, text in ((opposite[a], "d with d+a"), (plus[b], "e with b+e")):
                if c not in line:
                    violations.append(
                        Violation(
                            "PE3", (("a", lab[a]), ("b", lab[b])), f"no {text} = a+b"
                        )
                    )

    for a in range(n):
        if a == A.zero:
            continue
        if plus[a][A.one] is not None or plus[A.one][a] is not None:
            violations.append(
                Violation("PE4", (("a", lab[a]),), "a+1 or 1+a exists with a != 0")
            )

    induced = induced_relation(A)
    order = check_order(induced).violations
    violations.extend(order)
    if not order and induced.leq != A.base.leq:
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
        for c in range(n):
            for d in iter_bits(base.down[c]):
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
    """Report violations of f(0)=0, f(1)=1 and sum preservation."""
    fmap = tuple(f.map) if hasattr(f, "map") else tuple(f)
    if len(fmap) != A.n or any(not 0 <= v < B.n for v in fmap):
        raise InvalidStructure("morphism table does not match the carriers")
    violations = []
    if fmap[A.zero] != B.zero:
        violations.append(
            Violation("zero", (("element", A.labels[A.zero]),), "zero not preserved")
        )
    if fmap[A.one] != B.one:
        violations.append(
            Violation("one", (("element", A.labels[A.one]),), "one not preserved")
        )
    for a in range(A.n):
        for b in range(A.n):
            c = A.plus[a][b]
            if c is None:
                continue
            fc = B.plus[fmap[a]][fmap[b]]
            where = (("a", A.labels[a]), ("b", A.labels[b]))
            if fc is None:
                violations.append(
                    Violation("plus", where, "f(a)+f(b) is undefined")
                )
            elif fc != fmap[c]:
                violations.append(
                    Violation("plus", where, "f(a+b) differs from f(a)+f(b)")
                )
    return Report("check_pea_morphism", tuple(violations))
