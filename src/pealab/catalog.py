"""Exhaustive catalogs of small structures.

Bounded posets with n elements correspond to arbitrary posets on n-2
elements (strip the bounds), so classes are generated up to isomorphism by
enumerating all naturally-labeled posets on the middle carrier and
deduplicating by a canonical labeling.  Addition tables are then searched
per class, as labelled tables, by backtracking that keeps only cells above
both operands (order agreement, PE3, PE4), keeps every row and column a
bijection onto the up-set of its element (cancellation, Dvurecenskij &
Vetterlein, Pseudoeffect algebras I, IJTP 40, 2001) and checks PE1 on each
completed row prefix; enumerate_pea_structures proves each rule.  Every
hit is independently re-checked before it is kept.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from . import io
from .errors import FormatError, InvalidStructure, LimitExceeded
from .pdp import PseudoDPoset
from .pea import PseudoEffectAlgebra, check_pea, is_commutative, pea_to_pdp
from .posets import BoundedPoset, Poset, close_relation, iter_bits

DEFAULT_MAX_N = 7
_MIDDLE_LABELS = "abcdefgh"


def size_limit() -> int:
    """Enumeration cap, configurable through PEALAB_MAX_N."""
    raw = os.environ.get("PEALAB_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise FormatError("PEALAB_MAX_N must be an integer") from None


def _canonical_rows(rows: list[int], m: int) -> tuple[int, ...]:
    best = None
    for perm in itertools.permutations(range(m)):
        relabeled = [0] * m
        for i in range(m):
            for j in iter_bits(rows[i]):
                relabeled[perm[i]] |= 1 << perm[j]
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best


def enumerate_posets(m: int) -> list[Poset]:
    """One representative per isomorphism class of m-element posets."""
    if m == 0:
        return [Poset((), ())]
    labels = tuple(_MIDDLE_LABELS[:m])
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    canon: set[tuple[int, ...]] = set()
    for selector in range(1 << len(pairs)):
        rows = [1 << i for i in range(m)]
        for k, (i, j) in enumerate(pairs):
            if selector >> k & 1:
                rows[i] |= 1 << j
        closed = list(rows)
        close_relation(closed)
        if closed != rows:
            continue  # closure shows up as its own selector
        canon.add(_canonical_rows(rows, m))
    return [Poset(labels, rows) for rows in sorted(canon)]


def enumerate_bounded_posets(n: int, limit: int | None = None) -> list[BoundedPoset]:
    """One representative per isomorphism class of bounded posets."""
    cap = size_limit() if limit is None else limit
    if n > cap:
        raise LimitExceeded(f"n={n} exceeds the configured limit {cap}")
    if n < 1:
        raise InvalidStructure("a bounded poset needs at least one element")
    if n == 1:
        return [BoundedPoset(("0",), (1,), 0, 0)]
    out = []
    for middle in enumerate_posets(n - 2):
        labels = ("0",) + middle.labels + ("1",)
        rows = [0] * n
        rows[0] = (1 << n) - 1
        for i in range(middle.n):
            row = 1 << n - 1
            for j in iter_bits(middle.leq[i]):
                row |= 1 << j + 1
            rows[i + 1] = row
        rows[n - 1] = 1 << n - 1
        out.append(BoundedPoset(labels, tuple(rows), 0, n - 1))
    return out


def enumerate_pea_structures(base: BoundedPoset) -> list[PseudoEffectAlgebra]:
    """All addition tables on the carrier whose induced order is exactly
    the given one and which pass every axiom.

    The table is filled row by row.  No pruning rule drops a table that
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
        candidate = PseudoEffectAlgebra(
            base.labels, tuple(tuple(row) for row in table), zero, one
        )
        if check_pea(candidate).ok:
            results.append(candidate)

    descend(0)
    return results


@dataclass
class CatalogEntry:
    base: BoundedPoset
    structures: tuple[PseudoEffectAlgebra, ...] | None  # None: not searched
    class_index: int  # position of base among the classes of its size


def build_catalog(max_n: int, limit: int | None = None) -> list[CatalogEntry]:
    """Catalog entries for every bounded-poset class of size 1..max_n."""
    return [
        CatalogEntry(base, tuple(enumerate_pea_structures(base)), k)
        for n in range(1, max_n + 1)
        for k, base in enumerate(enumerate_bounded_posets(n, limit))
    ]


def catalog_pdps(max_n: int, limit: int | None = None) -> list[PseudoDPoset]:
    """Every catalog structure up to max_n, converted to difference form."""
    return [
        pea_to_pdp(A)
        for entry in build_catalog(max_n, limit)
        for A in entry.structures
    ]


def find_smallest_noncommutative(limit_size: int, limit: int | None = None):
    """Smallest carrier size admitting a noncommutative structure.

    Returns (size, witness) or None when everything up to limit_size is
    commutative.
    """
    cap = size_limit() if limit is None else limit
    if limit_size > cap:
        raise LimitExceeded(f"limit {limit_size} exceeds the configured cap {cap}")
    for n in range(1, limit_size + 1):
        for base in enumerate_bounded_posets(n, limit):
            for A in enumerate_pea_structures(base):
                if not is_commutative(A):
                    return n, A
    return None


def catalog_to_obj(entries, max_n: int, noncommutative=None) -> dict:
    """The pealab-catalog@1 object; unsearched entries get no tables."""
    items = []
    for e in entries:
        item = {"n": e.base.n, "class_index": e.class_index}
        item.update(io.poset_obj(e.base))
        if e.structures is not None:
            item["structure_count"] = len(e.structures)
            item["structures"] = [
                {"plus": io.table_obj(A.plus, A.labels)} for A in e.structures
            ]
        items.append(item)
    obj = {"schema": "pealab-catalog@1", "max_n": max_n, "entries": items}
    if noncommutative is not None:
        obj["noncommutative"] = noncommutative
    return obj


def results_obj(max_n: int, limit: int | None = None) -> dict:
    """Catalog results with the noncommutative-witness record attached."""
    entries = build_catalog(max_n, limit)
    # entries come in order of n, so the first noncommutative table is a
    # smallest one
    found = next(
        (A for entry in entries for A in entry.structures
         if not is_commutative(A)),
        None,
    )
    noncomm = {"limit": max_n, "found": found is not None}
    if found is not None:
        noncomm["size"] = found.n
        noncomm["plus"] = io.table_obj(found.plus, found.labels)
    return catalog_to_obj(entries, max_n, noncomm)


def write_catalog(path, max_n: int, limit: int | None = None) -> dict:
    """Build the catalog and persist it as a canonical results file."""
    obj = results_obj(max_n, limit)
    io.write_json(path, obj)
    return obj
