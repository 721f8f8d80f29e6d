"""Exhaustive catalogs of small structures.

Bounded posets with n elements correspond to arbitrary posets on n-2
elements (strip the bounds).  Those are generated up to isomorphism one
element at a time: each class on k elements gets a new maximal element
above each of its down-sets, and the results are deduplicated by their
least relabelled row tuple, which also orders the classes (McKay,
Isomorph-free exhaustive generation, J. Algorithms 1998; Brinkmann &
McKay, Posets on up to 16 points, Order 2002).  Following McKay's
canonical construction path, a child is kept only when its new element
has a largest down-set among its maximal elements, which every class
has, so about half the children are dropped before their canonical form
is computed; enumerate_posets proves that no class is lost.  Each level
grows from the one below, so one pass lists every size up to a bound, by
size.
Structures are then searched per class, as labelled tables, in their
difference form: by PD1 and PD2, c/- is a dual automorphism of the
down-set of c whose inverse is c\\-, so a structure is one dual
automorphism per element that satisfies the two PD2 equations;
enumerate_pea_structures proves the lemma.  A base with a down-set that
is not self-dual carries no structure, and the down-set of the top is the
whole order.  A dual automorphism s of the whole order maps the down-set of
x onto the up-set of s(x), so the multiset of pairs (|down x|, |up x|) is
unchanged by swapping each pair; a base where it changes is rejected before
any isomorphism search (the lemma is proved in _degrees_self_dual).  The
dual automorphisms of the others are listed from the top down, and the
search stops at the first down-set that has none.  Every hit is re-checked
as a pseudo D-poset and as a pseudo effect algebra before it is kept.
Entries keep the pseudo D-posets the search builds; each addition table is
built only for that re-check, the sort and the written catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import io
from .errors import InvalidStructure, LimitExceeded
from .pdp import PseudoDPoset, check_pdp, is_dposet
from .pea import check_pea, pdp_to_pea
from .posets import (
    BITS,
    BoundedPoset,
    Poset,
    isomorphisms,
    iter_bits,
    placement_order,
    transpose_rows,
)

_MIDDLE_LABELS = "abcdefgh"


def _canonical_rows(rows, down) -> tuple[int, ...]:
    """The least relabelled row tuple of the poset with up-set rows ``rows``
    and columns ``down``, over all relabellings: relabelling i as p(i) gives
    row p(i) the bits p(j) for i <= j, and tuples compare row by row.

    The search labels 0, 1, ... in turn and rests on three facts.

    1. Label k goes to a maximal element of the unlabelled set.  Rows
       0..k-1 are fixed by the labels already given; any element with an
       unlabelled element strictly above it puts a label above k into
       row k, so row k >= 2^(k+1), while a maximal one has its strict
       up-set labelled below k and keeps row k < 2^(k+1).
    2. So row k depends only on labels already fixed.  The search takes the
       least row k among the eligible elements, branches only on ties, and
       cuts a branch as soon as its prefix exceeds the best key found.
    3. Tied candidates have the same strict up-set.  Two with the same
       strict down-set as well are exchanged by an automorphism that fixes
       every other element, labelled ones included, so their subtrees hold
       the same keys and one branch suffices.

    By fact 1 everything strictly below a newly labelled element is still
    unlabelled, so each unlabelled element keeps the bits of the labels
    above it in ``above``, set as labels are given and cleared on backtrack.
    """
    m = len(rows)
    above = [0] * m
    key = [0] * m
    best: tuple[int, ...] = ()

    def extend(k: int, free: int, tied: bool) -> None:
        # tied: key[:k] equals best[:k]
        nonlocal best
        if k == m:
            best = tuple(key)
            return
        bit = 1 << k
        least, picks = 1 << m, []
        for x in BITS[free]:
            if rows[x] & free != 1 << x:
                continue  # not maximal among the unlabelled (fact 1)
            row = above[x] | bit
            if row < least:
                least, picks = row, [x]
            elif row == least:
                picks.append(x)
        if tied:
            if least > best[k]:
                return
            tied = least == best[k]
        key[k] = least
        strict_downs = []  # a list: most nodes have one pick, none more than m
        for x in picks:
            below = down[x] ^ 1 << x
            if below in strict_downs:
                continue  # fact 3
            strict_downs.append(below)
            for y in BITS[below]:
                above[y] |= bit
            extend(k + 1, free ^ 1 << x, tied)
            for y in BITS[below]:
                above[y] ^= bit
            tied = True  # best now completes key[:k+1]

    extend(0, (1 << m) - 1, False)
    del extend  # break the self-reference, so refcounting frees the search
    return best


def enumerate_posets(m: int, generation: list | None = None) -> list[tuple]:
    """The canonical up-set row tuple of one representative per isomorphism
    class of posets on 0..m elements, by size and then by row tuple.

    Classes on k+1 elements come from those on k by adding a new maximal
    element above a down-set, the empty one included, and duplicates meet
    in the canonical form.  A child is skipped when another of its maximal
    elements has a larger down-set than the new one.

    Lemma: every class C on k+1 elements is still reached.  Let z be a
    maximal element of C whose down-set is largest among them.  C - z is
    isomorphic to a representative P, under which the strict down-set of z,
    a down-set of C - z, maps to a down-set I of P; the child of P over I
    is isomorphic to C with the new element in z's place.  The child's
    other maximal elements are the maximal elements of P outside I, the
    images of the maximal elements of C other than z.  The new element lies
    above none of them, so their down-sets are those in C, none larger
    than z's, and the child is kept.  Every skipped child is thus
    isomorphic to a kept one, and the classes are those of the unskipped
    generation.

    The down-sets of a parent are built directly: its rows are canonical,
    so everything below an element has a larger index (fact 1 of
    _canonical_rows).  Elements are decided from the last index to the
    first, so the whole strict down-set of each is decided before it, and
    it joins exactly the down-sets that already hold that strict down-set.

    Lemma: the child over I has the parent's columns and then I | 1 << k,
    and its rows are the parent's with bit k set on I, then 1 << k.  The
    new element k lies below no other, so no old down-set gains it, and the
    only new pairs y <= k have y in I or y = k.

    When a list is given as ``generation``, one record per grown level is
    appended to it: the level's size n, the down-sets of its parents, the
    children skipped, the canonical forms computed and the classes found.
    A negative m raises InvalidStructure, and an m past the labels in
    _MIDDLE_LABELS LimitExceeded, before any work.
    """
    if m < 0:
        raise InvalidStructure(
            f"m={m}: a poset cannot have a negative number of elements"
        )
    if m > len(_MIDDLE_LABELS):
        raise LimitExceeded(
            f"m={m} exceeds {len(_MIDDLE_LABELS)}, the largest poset the "
            "catalog can label"
        )
    level: list[tuple[int, ...]] = [()]
    classes = list(level)
    for k in range(m):
        canon = set()
        down_sets = skipped = 0
        for rows in level:
            down = transpose_rows(rows)
            ideals = [0]
            for i in range(k - 1, -1, -1):
                below = down[i] ^ 1 << i
                ideals += [ideal | 1 << i for ideal in ideals if below & ~ideal == 0]
            # larger[s]: the maximal elements whose down-set has more than s
            larger = [0] * (k + 2)
            for x in range(k):
                if rows[x] == 1 << x:
                    for s in range(down[x].bit_count()):
                        larger[s] |= 1 << x
            down_sets += len(ideals)
            for ideal in ideals:
                if larger[ideal.bit_count() + 1] & ~ideal:
                    skipped += 1
                    continue
                grown = [*rows, 1 << k]
                for i in BITS[ideal]:
                    grown[i] |= 1 << k
                canon.add(_canonical_rows(grown, (*down, ideal | 1 << k)))
        level = sorted(canon)
        classes += level
        if generation is not None:
            generation.append(dict(
                n=k + 1, down_sets=down_sets, skipped=skipped,
                canonical_forms=down_sets - skipped, classes=len(level),
            ))
    return classes


def enumerate_bounded_posets(
    max_n: int, generation: list | None = None
) -> list[BoundedPoset]:
    """One representative per isomorphism class of bounded posets on
    1..max_n elements, in the order of enumerate_posets: the one-element
    poset, then each class on n-2 points between a new bottom and top.
    ``generation`` gets enumerate_posets's records, by number of points.
    A max_n past what the labels in _MIDDLE_LABELS can name raises
    LimitExceeded before any work."""
    largest = len(_MIDDLE_LABELS) + 2
    if max_n > largest:
        raise LimitExceeded(
            f"n={max_n} exceeds {largest}, the largest carrier the catalog can label"
        )
    if max_n < 1:
        raise InvalidStructure("a bounded poset needs at least one element")
    out = [BoundedPoset(("0",), (1,), 0, 0)]
    if max_n == 1:
        return out
    for middle in enumerate_posets(max_n - 2, generation):
        m = len(middle)
        top = 1 << m + 1
        rows = ((top << 1) - 1, *(top | row << 1 for row in middle), top)
        out.append(BoundedPoset(("0", *_MIDDLE_LABELS[:m], "1"), rows, 0, m + 1))
    return out


def search_counts() -> dict[str, int]:
    """Fresh counters for the ``search`` argument of
    :func:`enumerate_pea_structures`: bases rejected by the degree
    prefilter, bases stopped at a down-set with no dual automorphism, bases
    searched, tables re-checked, and re-checks failed (none, by its lemma;
    a nonzero count flags a bug)."""
    return dict(prefiltered=0, no_dual_automorphism=0, searched=0,
                rechecked=0, recheck_failed=0)


def _degrees_self_dual(base: BoundedPoset) -> bool:
    """Whether the multiset of pairs (|down x|, |up x|) over the elements
    of base is unchanged by swapping the two sizes in each pair.

    Lemma: if the whole order has a dual automorphism, it is.  A dual
    automorphism s (x <= y iff s(y) <= s(x)) maps the down-set of x onto
    the up-set of s(x) and the up-set of x onto the down-set of s(x), so
    the pair of x is the swapped pair of s(x); s is a bijection, so the
    swapped pairs are the pairs again, counted with multiplicity.
    """
    sizes = [(d.bit_count(), u.bit_count()) for d, u in zip(base.down, base.leq)]
    return sorted(sizes) == sorted((u, d) for d, u in sizes)


def enumerate_pea_structures(
    base: BoundedPoset, search: dict | None = None
) -> list[PseudoDPoset]:
    """Every structure on the carrier whose induced order is exactly the
    given one and which passes every axiom, as the difference tables the
    search builds, sorted by its addition table row-major with None last.

    The search runs on difference tables.  Lemma (PD1 and PD2 alone):
    a -> c/a is a dual automorphism of the down-set of c, with inverse
    a -> c\\a.  Proof: PD2 on 0 <= a <= c gives c/a <= c/0 = c (PD1) and
    (c/0)\\(c/a) = a/0, that is c\\(c/a) = a; mirrored, c/(c\\a) = a; so the
    two maps are mutually inverse, and PD2's inequalities make both antitone.

    Conversely, one dual automorphism per element makes every difference
    a <= c defined and gives PD1 and PD2's inequalities, so a structure is
    one choice per element that meets the two PD2 equations
    (c/a)\\(c/b) = b/a and (c\\a)/(c\\b) = b\\a for a <= b <= c.  Those with
    a = 0, a = b or b = c hold for any such choices, since a dual
    automorphism of the down-set of x sends x to 0 and 0 to x, so only
    0 < a < b < c is tested.  Elements are chosen in placement order; for
    a > 0, c/a and c\\a lie strictly below c, so every equation with c on
    top is decided as soon as the choice for c is made.  Each survivor is
    re-checked by check_pdp, converted by pdp_to_pea and re-checked by
    check_pea before it is kept: its addition table serves only that and the sort.

    A base that fails :func:`_degrees_self_dual` has no dual automorphism
    of its whole order, the down-set of its top, and is rejected before any
    isomorphism search; the others list their dual automorphisms from the
    top down and stop at the first down-set that has none.  The outcome is
    added to ``search``, a :func:`search_counts` record, if one is given.
    """
    if search is None:
        search = search_counts()
    if not _degrees_self_dual(base):
        search["prefiltered"] += 1
        return []
    n = base.n
    order = placement_order(base)
    down = base.down
    dual = Poset(base.labels, down)  # the opposite order
    choices = {}
    for c in reversed(order):  # the top first
        # the dual automorphisms of the down-set of c are its isomorphisms
        # onto the same down-set in the opposite order
        choices[c] = []
        for s in isomorphisms(base, dual, down[c]):
            inverse: list[int | None] = [None] * n
            for a in iter_bits(down[c]):
                inverse[s[a]] = a
            choices[c].append((s, tuple(inverse)))
        if not choices[c]:
            search["no_dual_automorphism"] += 1
            return []
    search["searched"] += 1
    # for each c, the pairs 0 < a < b < c whose PD2 equations can fail
    inner = [down[c] & ~(1 << c | 1 << base.bottom) for c in range(n)]
    pairs = [
        tuple((a, b) for a in iter_bits(inner[c])
              for b in iter_bits(inner[c] & base.leq[a] & ~(1 << a)))
        for c in range(n)
    ]
    slash: list[tuple | None] = [None] * n
    bslash: list[tuple | None] = [None] * n
    results: list[tuple[tuple, PseudoDPoset]] = []  # (addition table, X)

    def place(k: int) -> None:
        if k == n:
            search["rechecked"] += 1
            X = PseudoDPoset(base, tuple(slash), tuple(bslash))
            if check_pdp(X).ok:
                A = pdp_to_pea(X)
                if check_pea(A).ok:
                    results.append((A.plus, X))
                    return
            search["recheck_failed"] += 1
            return
        c = order[k]
        for s, t in choices[c]:
            slash[c], bslash[c] = s, t
            for a, b in pairs[c]:
                if bslash[s[a]][s[b]] != slash[b][a]:
                    break
                if slash[t[a]][t[b]] != bslash[b][a]:
                    break
            else:
                place(k + 1)

    place(0)
    del place  # break the self-reference, so refcounting frees the search
    results.sort(key=lambda hit: [[n if v is None else v for v in r] for r in hit[0]])
    return [X for _, X in results]


@dataclass
class CatalogEntry:
    """A class and its structures as enumerate_pea_structures lists them."""

    base: BoundedPoset
    structures: tuple[PseudoDPoset, ...] | None  # None: not searched


def build_catalog(
    max_n: int, generation: list | None = None, search: dict | None = None
) -> list[CatalogEntry]:
    """Catalog entries for every bounded-poset class of size 1..max_n;
    ``generation`` as for enumerate_bounded_posets, and ``search`` as for
    enumerate_pea_structures, summed over the classes."""
    return [
        CatalogEntry(base, tuple(enumerate_pea_structures(base, search)))
        for base in enumerate_bounded_posets(max_n, generation)
    ]


def catalog_pdps(max_n: int) -> list[PseudoDPoset]:
    """Every catalog structure up to max_n, as the search built it."""
    return [X for entry in build_catalog(max_n) for X in entry.structures]


def _plus_obj(X: PseudoDPoset) -> dict:
    """The addition-table object of X, keyed "a,b" as io.table_obj keys
    it: a+b = c for each a <= c with b = c/a.  This is the first reading of
    pdp_to_pea, whose cross-check every catalog structure passed in the
    search, so the object is that of pdp_to_pea(X).plus."""
    lab = X.labels
    return {f"{lab[a]},{lab[b]}": lab[c] for c, row in enumerate(X.slash)
            for a, b in enumerate(row) if b is not None}


def noncommutative_record(entries, max_n: int) -> dict:
    """The noncommutative-witness record of searched entries in order of
    size: their first noncommutative structure, a smallest one by that
    order.

    Lemma: a structure is commutative iff b/a = b\\a for every a <= b,
    which :func:`~pealab.pdp.is_dposet` decides: a+b = c iff c/a = b iff
    c\\b = a, so b+a = c iff c\\a = b; off the order both tables are undefined.
    """
    found = next((X for e in entries for X in e.structures if not is_dposet(X)),
                 None)
    noncomm = {"limit": max_n, "found": found is not None}
    if found is not None:
        noncomm["size"] = found.n
        noncomm["plus"] = _plus_obj(found)
    return noncomm


def catalog_to_obj(entries, max_n: int) -> dict:
    """The pealab-catalog@1 object of entries in order of size; the
    class_index of each is its position among those of its size.  Unsearched
    entries get no tables, searched ones the :func:`noncommutative_record`."""
    items = []
    first: dict[int, int] = {}  # position of the first entry of each size
    for k, e in enumerate(entries):
        item = {"n": e.base.n, "class_index": k - first.setdefault(e.base.n, k)}
        item.update(io.poset_obj(e.base))
        if e.structures is not None:
            item["structure_count"] = len(e.structures)
            item["structures"] = [{"plus": _plus_obj(X)} for X in e.structures]
        items.append(item)
    obj = {"schema": "pealab-catalog@1", "max_n": max_n, "entries": items}
    if all(e.structures is not None for e in entries):
        obj["noncommutative"] = noncommutative_record(entries, max_n)
    return obj
