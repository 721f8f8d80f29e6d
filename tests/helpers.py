"""Shared builders and independent brute-force oracles for the tests.

The oracles deliberately avoid the package's search machinery: morphism
sets are enumerated with itertools over all functions, isomorphisms over
all bijections, poset classes over all naturally labelled relations and
all relabellings, coequalizer orders over all subsets of the target, and
structure tables over all cell assignments.  Expected
values asserted in the tests were computed with these.
"""

from __future__ import annotations

import itertools

from pealab import (
    BoundedPoset,
    PosetMorphism,
    PseudoDPoset,
    PseudoEffectAlgebra,
    validate_bounded_poset,
)


def chain(*labels) -> BoundedPoset:
    covers = [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    return validate_bounded_poset(labels, covers)


def c2() -> BoundedPoset:
    return chain("0", "1")


def c3() -> BoundedPoset:
    return chain("0", "a", "1")


def c4() -> BoundedPoset:
    return chain("0", "x", "y", "1")


def diamond() -> BoundedPoset:
    return validate_bounded_poset(
        ("0", "a", "b", "1"), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )


def wide3() -> BoundedPoset:
    """Bottom, three incomparable atoms, top."""
    return validate_bounded_poset(
        ("0", "a", "b", "c", "1"),
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


def pea_from(base: BoundedPoset, sums) -> PseudoEffectAlgebra:
    """Build an addition table from label triples plus the forced 0-sums."""
    idx = {lab: i for i, lab in enumerate(base.labels)}
    n = base.n
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[base.bottom][x] = x
        table[x][base.bottom] = x
    for a, b, c in sums:
        table[idx[a]][idx[b]] = idx[c]
    return PseudoEffectAlgebra(
        base.labels, tuple(tuple(row) for row in table), base.bottom, base.top
    )


def edit_table(table, cells):
    """A copy of a dense table with the cells {(row, column): value} set."""
    rows = [list(row) for row in table]
    for (i, j), value in cells.items():
        rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def swapped(X: PseudoDPoset) -> PseudoDPoset:
    """The mirror structure: / and \\ exchanged."""
    return PseudoDPoset(X.base, X.bslash, X.slash)


def c2_pea() -> PseudoEffectAlgebra:
    return pea_from(c2(), [])


def c3_pea() -> PseudoEffectAlgebra:
    return pea_from(c3(), [("a", "a", "1")])


def c4_pea() -> PseudoEffectAlgebra:
    return pea_from(c4(), [("x", "x", "y"), ("x", "y", "1"), ("y", "x", "1")])


def d4_ortho() -> PseudoEffectAlgebra:
    return pea_from(diamond(), [("a", "b", "1"), ("b", "a", "1")])


def d4_hsum() -> PseudoEffectAlgebra:
    return pea_from(diamond(), [("a", "a", "1"), ("b", "b", "1")])


def wide3_selfsum() -> PseudoEffectAlgebra:
    return pea_from(wide3(), [("a", "a", "1"), ("b", "b", "1"), ("c", "c", "1")])


def wide3_cyclic() -> PseudoEffectAlgebra:
    return pea_from(wide3(), [("a", "b", "1"), ("b", "c", "1"), ("c", "a", "1")])


def brute_force_bounded_maps(P: BoundedPoset, R: BoundedPoset):
    """All bound-preserving isotone maps by scanning every function."""
    out = []
    for values in itertools.product(range(R.n), repeat=P.n):
        if values[P.bottom] != R.bottom or values[P.top] != R.top:
            continue
        if all(
            R.le(values[x], values[y])
            for x in range(P.n)
            for y in range(P.n)
            if P.le(x, y)
        ):
            out.append(values)
    return sorted(out)


def brute_force_isomorphisms(P, R):
    """All order isomorphisms by scanning every bijection."""
    if P.n != R.n:
        return []
    out = []
    for perm in itertools.permutations(range(R.n)):
        if all(
            P.le(x, y) == R.le(perm[x], perm[y])
            for x in range(P.n)
            for y in range(P.n)
        ):
            out.append(perm)
    return out


def brute_force_dual_automorphisms(P, c):
    """Order-reversing bijections of the down-set of c, as tables that
    hold None outside it, by scanning every permutation of the down-set."""
    below = [x for x in range(P.n) if P.le(x, c)]
    out = []
    for perm in itertools.permutations(below):
        image = dict(zip(below, perm))
        if all(
            P.le(x, y) == P.le(image[y], image[x]) for x in below for y in below
        ):
            out.append(tuple(image.get(x) for x in range(P.n)))
    return out


def relabelled(P: BoundedPoset, perm) -> BoundedPoset:
    """The same bounded poset with element i moved to position perm[i]."""
    labels = [None] * P.n
    rows = [0] * P.n
    for i in range(P.n):
        labels[perm[i]] = P.labels[i]
        for j in range(P.n):
            if P.le(i, j):
                rows[perm[i]] |= 1 << perm[j]
    return BoundedPoset(tuple(labels), tuple(rows), perm[P.bottom], perm[P.top])


def brute_force_canonical_rows(rows, m: int) -> tuple[int, ...]:
    """The least relabelled row tuple of a poset given by up-set rows, by
    scanning all m! relabellings: element i relabelled perm[i] gives row
    perm[i] the bits perm[j] for i <= j."""
    best = None
    for perm in itertools.permutations(range(m)):
        relabeled = [0] * m
        for i in range(m):
            for j in range(m):
                if rows[i] >> j & 1:
                    relabeled[perm[i]] |= 1 << perm[j]
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best


def scanned_poset_classes(m: int) -> list[tuple[int, ...]]:
    """The sorted canonical row tuples of the m-element poset classes.

    Every poset has a natural labelling (i <= j only if i <= j as numbers),
    so scanning every relation on the pairs i < j, keeping the transitive
    ones and canonicalising each by brute_force_canonical_rows meets every
    class.
    """
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    canon = set()
    for selector in range(1 << len(pairs)):
        rows = [1 << i for i in range(m)]
        for k, (i, j) in enumerate(pairs):
            if selector >> k & 1:
                rows[i] |= 1 << j
        if all(
            rows[j] & ~rows[i] == 0
            for i in range(m)
            for j in range(m)
            if rows[i] >> j & 1
        ):
            canon.add(brute_force_canonical_rows(rows, m))
    return sorted(canon)


def coequalizer_order_oracle(f: PosetMorphism, g: PosetMorphism):
    """Pairs (x, y) of B = f.target with q(x) <= q(y) in the coequalizer.

    Maps to the two-element chain separate the points of a poset.  Such a
    map out of B is an up-set U, and it coequalizes the pair iff
    f(a) in U <=> g(a) in U for every a.  So x lies below y in the
    quotient iff every such up-set that contains x also contains y.  Up-sets
    are found by scanning every subset of B.
    """
    B = f.target
    upsets = []
    for U in range(1 << B.n):
        if any(
            U >> x & 1 and not U >> y & 1
            for x in range(B.n)
            for y in range(B.n)
            if B.le(x, y)
        ):
            continue
        if all((U >> fa & 1) == (U >> ga & 1) for fa, ga in zip(f.map, g.map)):
            upsets.append(U)
    return {
        (x, y)
        for x in range(B.n)
        for y in range(B.n)
        if all(U >> y & 1 for U in upsets if U >> x & 1)
    }


def as_morphism(P, R, labelled: dict[str, str]) -> PosetMorphism:
    values = tuple(R.index(labelled[lab]) for lab in P.labels)
    return PosetMorphism(P, R, values)
