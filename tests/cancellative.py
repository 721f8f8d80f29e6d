"""Second route to the catalog: the cancellative addition-table search.

The catalog engine, ``pealab.catalog.enumerate_pea_structures``, searches
difference tables, one dual automorphism per down-set, and returns them;
here they are compared as the addition tables pdp_to_pea makes of them.
This module fills addition tables cell by cell instead, under three
pruning rules proved in :func:`cancellative_structures`, and shares no
search code with the engine, so the two routes check each other.
``test_catalog.py`` compares them class by class up to n=7; larger sizes
run outside the test suite, e.g.

    PYTHONPATH=src:tests python -m cancellative 8

which prints one line per size and exits 1 if any class disagrees.
"""

from __future__ import annotations

import sys

from pealab import (
    PseudoEffectAlgebra,
    check_pea,
    enumerate_bounded_posets,
    enumerate_pea_structures,
    is_commutative,
    pdp_to_pea,
)
from pealab.posets import iter_bits


def cancellative_structures(base) -> list[PseudoEffectAlgebra]:
    """All addition tables on the carrier whose induced order is exactly
    the given one and which pass every axiom, row-major with None last.

    The table is filled row by row, each cell trying its values in
    increasing order and then None.  No pruning rule drops a table that
    the final check_pea re-check of every survivor would accept:

    1. Cell (a, b) holds a value above a (definition of the order) and
       above b (PE3 gives d+b = a+b); cells against the top stay empty
       unless the other operand is the bottom (PE4).
    2. Row a and column a are bijections onto the up-set of a, because
       pseudo effect algebras are cancellative (Dvurecenskij & Vetterlein,
       Pseudoeffect algebras I, Int. J. Theor. Phys. 40, 2001).  Both
       cancellations follow from PE2 and PE1's a+(b+c) => (a+b)+c.  Left:
       if a+b = a+c = x, take d+x = 1; then (d+a)+b = (d+a)+c = 1 and PE2
       gives b = c.  Right: if b+a = c+a = x, take e+x = 1; then
       (e+b)+a = (e+c)+a = 1, PE2 gives e+b = e+c, and left cancellation
       gives b = c.  Rows cover their up-sets by definition of the order,
       and columns theirs by PE3; this also makes every PE3 instance hold.
    3. Each completed row prefix agrees with PE1 wherever it is determined.
    """
    n = base.n
    zero, one = base.bottom, base.top
    leq = list(base.leq)

    allowed = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if b == one and a != zero:
                continue
            if a == one and b != zero:
                continue
            allowed[a][b] = leq[a] & leq[b]
    suffix = [[0] * (n + 1) for _ in range(n)]
    for a in range(n):
        acc = 0
        for b in range(n - 1, -1, -1):
            acc |= allowed[a][b]
            suffix[a][b] = acc

    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    col_used = [0] * n
    results: list[PseudoEffectAlgebra] = []

    def prefix_associative(rows_done: int) -> bool:
        # Check every associativity instance whose lookups are already
        # fixed: rows are final once filled, so a missing x+y with
        # x+(y+z) present can never be repaired later.
        for x in range(rows_done):
            row_x = table[x]
            for y in range(rows_done):
                row_y = table[y]
                xy = row_x[y]
                for z in range(n):
                    yz = row_y[z]
                    if yz is None:
                        continue
                    x_yz = row_x[yz]
                    if x_yz is None:
                        continue
                    if xy is None:
                        return False
                    if xy < rows_done and table[xy][z] != x_yz:
                        return False
        return True

    def fill(a: int, b: int, used: int) -> None:
        if b == n:
            if used == leq[a] and prefix_associative(a + 1):
                descend(a + 1)
            return
        needed = leq[a] & ~used
        if needed & ~suffix[a][b]:
            return
        if bin(needed).count("1") > n - b:
            return
        for c in iter_bits(allowed[a][b] & ~used & ~col_used[b]):
            bit = 1 << c
            table[a][b] = c
            col_used[b] |= bit
            fill(a, b + 1, used | bit)
            col_used[b] ^= bit
        table[a][b] = None
        if not (needed & ~suffix[a][b + 1]):
            fill(a, b + 1, used)

    def descend(a: int) -> None:
        if a < n:
            fill(a, 0, 0)
            return
        if col_used != leq:
            return
        candidate = PseudoEffectAlgebra(base, tuple(tuple(row) for row in table))
        if check_pea(candidate).ok:
            results.append(candidate)

    descend(0)
    return results


def compare_routes(n: int):
    """(classes, tables, noncommutative tables, indices of the classes
    where the two routes differ) over the bounded posets of size n."""
    bases = [b for b in enumerate_bounded_posets(n) if b.n == n]
    tables = noncommutative = 0
    differing = []
    for k, base in enumerate(bases):
        found = [pdp_to_pea(X) for X in enumerate_pea_structures(base)]
        if found != cancellative_structures(base):
            differing.append(k)
        tables += len(found)
        noncommutative += sum(not is_commutative(A) for A in found)
    return len(bases), tables, noncommutative, differing


def main(argv) -> int:
    max_n = int(argv[0]) if argv else 7
    status = 0
    for n in range(1, max_n + 1):
        classes, tables, noncommutative, differing = compare_routes(n)
        verdict = f"classes {differing} differ" if differing else "all classes agree"
        print(f"n={n}: {classes} classes, {tables} tables, "
              f"{noncommutative} noncommutative, {verdict}", flush=True)
        status |= bool(differing)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
