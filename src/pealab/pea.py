"""Pseudo effect algebras: axioms, induced order, difference conversion.

A pseudo effect algebra is a carrier with a partial addition and constants
0, 1 subject to

  PE1: a+(b+c) exists iff (a+b)+c exists, and then both agree,
  PE2: every a has exactly one d with a+d = 1 and exactly one e with e+a = 1,
  PE3: if a+b exists there are d, e with d+a = b+e = a+b,
  PE4: if a+1 or 1+a exists then a = 0,

together with the requirement that a <= c iff a+b = c for some b defines a
bounded partial order.  The checker reports the axiom layer and the order
layer separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidStructure
from .pdp import PseudoDPoset
from .posets import BoundedPoset, close_relation, iter_bits
from .reports import Report, Violation

PlusTable = tuple[tuple[int | None, ...], ...]


@dataclass(frozen=True)
class PseudoEffectAlgebra:
    labels: tuple[str, ...]
    plus: PlusTable
    zero: int
    one: int

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InvalidStructure("duplicate element labels")
        if len(self.plus) != n or any(len(row) != n for row in self.plus):
            raise InvalidStructure("addition table size does not match the carrier")
        for row in self.plus:
            for v in row:
                if v is not None and not 0 <= v < n:
                    raise InvalidStructure("addition table references unknown elements")
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise InvalidStructure("zero/one index out of range")

    @property
    def n(self) -> int:
        return len(self.labels)

    def add(self, a: int, b: int):
        return self.plus[a][b]


def induced_rows(A: PseudoEffectAlgebra) -> list[int]:
    """Bit rows of the relation a <= c iff a+b = c for some b."""
    rows = [0] * A.n
    for a in range(A.n):
        for b in range(A.n):
            c = A.plus[a][b]
            if c is not None:
                rows[a] |= 1 << c
    return rows


def check_pea(A: PseudoEffectAlgebra) -> Report:
    """Report every PE1..PE4 violation, then order-layer violations."""
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

    for a in range(n):
        right = [d for d in range(n) if plus[a][d] == A.one]
        if len(right) != 1:
            violations.append(
                Violation(
                    "PE2",
                    (("a", lab[a]),),
                    f"{len(right)} elements d satisfy a+d=1",
                )
            )
        left = [e for e in range(n) if plus[e][a] == A.one]
        if len(left) != 1:
            violations.append(
                Violation(
                    "PE2",
                    (("a", lab[a]),),
                    f"{len(left)} elements e satisfy e+a=1",
                )
            )

    for a in range(n):
        for b in range(n):
            c = plus[a][b]
            if c is None:
                continue
            if not any(plus[d][a] == c for d in range(n)):
                violations.append(
                    Violation(
                        "PE3",
                        (("a", lab[a]), ("b", lab[b])),
                        "no d with d+a = a+b",
                    )
                )
            if not any(plus[b][e] == c for e in range(n)):
                violations.append(
                    Violation(
                        "PE3",
                        (("a", lab[a]), ("b", lab[b])),
                        "no e with b+e = a+b",
                    )
                )

    for a in range(n):
        if a == A.zero:
            continue
        if plus[a][A.one] is not None or plus[A.one][a] is not None:
            violations.append(
                Violation("PE4", (("a", lab[a]),), "a+1 or 1+a exists with a != 0")
            )

    violations.extend(_order_violations(A))
    return Report("check_pea", tuple(violations))


def _order_violations(A: PseudoEffectAlgebra) -> list[Violation]:
    n = A.n
    lab = A.labels
    rows = induced_rows(A)
    violations = []
    for a in range(n):
        if not rows[a] >> a & 1:
            violations.append(
                Violation("order", (("a", lab[a]),), "induced relation not reflexive")
            )
    for a in range(n):
        for c in iter_bits(rows[a]):
            if c != a and rows[c] >> a & 1:
                violations.append(
                    Violation(
                        "order",
                        (("a", lab[a]), ("c", lab[c])),
                        "induced relation not antisymmetric",
                    )
                )
    closed = list(rows)
    close_relation(closed)
    for a in range(n):
        if closed[a] != rows[a] | 1 << a:
            violations.append(
                Violation("order", (("a", lab[a]),), "induced relation not transitive")
            )
    if rows[A.zero] != (1 << n) - 1:
        violations.append(
            Violation("order", (("a", lab[A.zero]),), "zero is not the minimum")
        )
    for a in range(n):
        if not rows[a] >> A.one & 1:
            violations.append(
                Violation("order", (("a", lab[a]),), "one is not above this element")
            )
    return violations


def induced_order(A: PseudoEffectAlgebra) -> BoundedPoset:
    """The induced order as a validated bounded poset.

    Raises InvalidStructure when the relation is not a bounded partial
    order; the defect is reported, never repaired.
    """
    rows = induced_rows(A)
    try:
        return BoundedPoset(A.labels, tuple(rows), A.zero, A.one)
    except InvalidStructure as exc:
        raise InvalidStructure(f"induced order: {exc}") from None


def pea_to_pdp(A: PseudoEffectAlgebra) -> PseudoDPoset:
    """Difference tables for A: a + (c/a) = (c\\a) + a = c.

    Raises InvalidStructure when some difference is missing or ambiguous,
    which signals that A is not a pseudo effect algebra.
    """
    base = induced_order(A)
    n = A.n
    slash = [[None] * n for _ in range(n)]
    bslash = [[None] * n for _ in range(n)]
    for c in range(n):
        for a in range(n):
            if not base.le(a, c):
                continue
            xs = [x for x in range(n) if A.plus[a][x] == c]
            if len(xs) != 1:
                raise InvalidStructure(
                    f"{len(xs)} solutions of {A.labels[a]}+x={A.labels[c]}"
                )
            slash[c][a] = xs[0]
            ys = [y for y in range(n) if A.plus[y][a] == c]
            if len(ys) != 1:
                raise InvalidStructure(
                    f"{len(ys)} solutions of y+{A.labels[a]}={A.labels[c]}"
                )
            bslash[c][a] = ys[0]
    return PseudoDPoset(
        base,
        tuple(tuple(row) for row in slash),
        tuple(tuple(row) for row in bslash),
    )


def pdp_to_pea(X: PseudoDPoset) -> PseudoEffectAlgebra:
    """Partial addition recovered from the differences.

    a+b is defined and equals c iff a <= c and c/a = b, equivalently iff
    b <= c and c\\b = a; the two characterizations are cross-checked and a
    disagreement raises InvalidStructure.
    """
    base = X.base
    n = base.n
    plus = [[None] * n for _ in range(n)]
    for c in range(n):
        for a in range(n):
            if not base.le(a, c):
                continue
            b = X.slash[c][a]
            if b is None:
                raise InvalidStructure(
                    f"difference {base.labels[c]}/{base.labels[a]} is undefined"
                )
            if plus[a][b] not in (None, c):
                raise InvalidStructure(
                    f"addition at ({base.labels[a]},{base.labels[b]}) is ambiguous"
                )
            plus[a][b] = c
    alt = [[None] * n for _ in range(n)]
    for c in range(n):
        for b in range(n):
            if not base.le(b, c):
                continue
            a = X.bslash[c][b]
            if a is None:
                raise InvalidStructure(
                    f"difference {base.labels[c]}\\{base.labels[b]} is undefined"
                )
            if alt[a][b] not in (None, c):
                raise InvalidStructure(
                    f"addition at ({base.labels[a]},{base.labels[b]}) is ambiguous"
                )
            alt[a][b] = c
    if alt != plus:
        raise InvalidStructure(
            "the two difference tables disagree on the induced addition"
        )
    return PseudoEffectAlgebra(
        base.labels,
        tuple(tuple(row) for row in plus),
        base.bottom,
        base.top,
    )


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
