"""Exhaustive catalogs of small structures.

Bounded posets with n elements correspond to arbitrary posets on n-2
elements (strip the bounds), so classes are generated up to isomorphism by
enumerating all naturally-labeled posets on the middle carrier and
deduplicating by a canonical labeling.  Structures are then searched per
class, as labelled tables, in their difference form: by PD1 and PD2, c/-
is a dual automorphism of the down-set of c whose inverse is c\\-, so a
structure is one dual automorphism per element that satisfies the two PD2
equations; enumerate_pea_structures proves the lemma.  A base with a
down-set that is not self-dual carries no structure.  Every hit is
re-checked as a pseudo D-poset and as a pseudo effect algebra before it is
kept.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from . import io
from .errors import FormatError, InvalidStructure, LimitExceeded
from .pdp import PseudoDPoset, check_pdp
from .pea import (
    PseudoEffectAlgebra,
    check_pea,
    is_commutative,
    pdp_to_pea,
    pea_to_pdp,
)
from .posets import (
    BoundedPoset,
    Poset,
    close_relation,
    isomorphisms,
    iter_bits,
    placement_order,
)

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


def enumerate_bounded_posets(n: int) -> list[BoundedPoset]:
    """One representative per isomorphism class of bounded posets."""
    cap = size_limit()
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
    the given one and which pass every axiom, sorted row-major with None
    last.

    The search runs on difference tables.  Lemma (PD1 and PD2 alone):
    a -> c/a is a dual automorphism of the down-set of c, with inverse
    a -> c\\a.  Proof: PD2 on 0 <= a <= c gives c/a <= c/0 = c (PD1) and
    (c/0)\\(c/a) = a/0, that is c\\(c/a) = a; mirrored, c/(c\\a) = a; so the
    two maps are mutually inverse, and PD2's inequalities make both antitone.

    Conversely, one dual automorphism per element makes every difference
    a <= c defined and gives PD1 and PD2's inequalities, so a structure is
    one choice per element that meets the two PD2 equations
    (c/a)\\(c/b) = b/a and (c\\a)/(c\\b) = b\\a for a <= b <= c.  Elements
    are chosen in placement order; for a > 0, c/a and c\\a lie strictly
    below c, so every equation with c on top is decided as soon as the
    choice for c is made.  Each survivor is re-checked by check_pdp,
    converted by pdp_to_pea and re-checked by check_pea before it is kept.
    """
    n = base.n
    order = placement_order(base)
    dual = Poset(base.labels, base.down)  # the opposite order
    choices = {}
    for c in order:
        # the dual automorphisms of the down-set of c are its isomorphisms
        # onto the same down-set in the opposite order
        choices[c] = [
            (s, tuple(s.index(v) if v in s else None for v in range(n)))
            for s in isomorphisms(base, dual, base.down[c])
        ]
    slash: list[tuple | None] = [None] * n
    bslash: list[tuple | None] = [None] * n
    results: list[PseudoEffectAlgebra] = []

    def consistent(c: int) -> bool:
        s, t = slash[c], bslash[c]
        for a in iter_bits(base.down[c]):
            for b in iter_bits(base.down[c] & base.leq[a]):
                if bslash[s[a]][s[b]] != slash[b][a]:
                    return False
                if slash[t[a]][t[b]] != bslash[b][a]:
                    return False
        return True

    def place(k: int) -> None:
        if k == n:
            X = PseudoDPoset(base, tuple(slash), tuple(bslash))
            if check_pdp(X).ok:
                A = pdp_to_pea(X)
                if check_pea(A).ok:
                    results.append(A)
            return
        c = order[k]
        for sigma, inverse in choices[c]:
            slash[c], bslash[c] = sigma, inverse
            if consistent(c):
                place(k + 1)

    place(0)
    results.sort(
        key=lambda A: [[n if v is None else v for v in row] for row in A.plus]
    )
    return results


@dataclass
class CatalogEntry:
    base: BoundedPoset
    structures: tuple[PseudoEffectAlgebra, ...] | None  # None: not searched
    class_index: int  # position of base among the classes of its size


def build_catalog(max_n: int) -> list[CatalogEntry]:
    """Catalog entries for every bounded-poset class of size 1..max_n."""
    return [
        CatalogEntry(base, tuple(enumerate_pea_structures(base)), k)
        for n in range(1, max_n + 1)
        for k, base in enumerate(enumerate_bounded_posets(n))
    ]


def catalog_pdps(max_n: int) -> list[PseudoDPoset]:
    """Every catalog structure up to max_n, converted to difference form."""
    return [
        pea_to_pdp(A)
        for entry in build_catalog(max_n)
        for A in entry.structures
    ]


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


def results_obj(max_n: int) -> dict:
    """Catalog results with the noncommutative-witness record attached."""
    entries = build_catalog(max_n)
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


def write_catalog(path, max_n: int) -> dict:
    """Build the catalog and persist it as a canonical results file."""
    obj = results_obj(max_n)
    io.write_json(path, obj)
    return obj
