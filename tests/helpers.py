"""Shared builders and independent brute-force oracles for the tests.

The oracles deliberately avoid the package's search machinery: morphism
sets are enumerated with itertools over all functions, isomorphisms over
all bijections, poset classes over all naturally labelled relations and
all relabellings, coequalizer orders over all subsets of the target,
structure tables over all cell assignments, and the axioms of a pseudo
effect algebra over all n^3 triples (``dense_check_pea``).  Expected
values asserted in the tests were computed with these.  Hom sets of
pseudo D-posets also have a faster second route, which uses the
package's map search without forcing rules (itself checked against the
scan over all functions): every bounded-poset map, filtered through
``preserves_differences``.  Poset-class generation is checked against
its unfiltered loop, which tests every subset of each parent for a
down-set and canonicalises every child.  The morphism
checkers get plain restatements of their definitions, and the
universal-property check a reference that counts mediators by scanning
the whole hom set out of Q'.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from pealab import (
    BoundedPoset,
    HomSets,
    PosetMorphism,
    PseudoDPoset,
    PseudoEffectAlgebra,
    Report,
    Violation,
    coequalizer_posets,
    comparison_isomorphism,
    enumerate_morphisms,
    enumerate_pdp_morphisms,
    identity,
    interval_map,
    split_fork_from_idempotent,
    split_fork_pool,
    validate_bounded_poset,
)
from pealab.catalog import _canonical_rows
from pealab.pdp import preserves_differences
from pealab.posets import check_order, iter_bits, transpose_rows


def count_builds(monkeypatch, cls, name: str) -> list:
    """Patch the cached property ``cls.name`` to record each object it is
    built for, and return the record.  Objects that built it before the
    patch keep their value and are not recorded."""
    built = []
    build = vars(cls)[name].func

    def counted(self):
        built.append(self)
        return build(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return built


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
    return PseudoEffectAlgebra(base, tuple(tuple(row) for row in table))


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


def dense_check_pea(A: PseudoEffectAlgebra) -> Report:
    """check_pea by its definition: PE1 on all n^3 triples, PE2..PE4 on
    every cell, then check_order on the relation a <= a+b, built as a
    poset, and its comparison with the base."""
    n = A.n
    lab = A.labels
    plus = A.plus
    violations = []

    for a in range(n):
        for b in range(n):
            ab = plus[a][b]
            for c in range(n):
                bc = plus[b][c]
                a_bc = None if bc is None else plus[a][bc]
                ab_c = None if ab is None else plus[ab][c]
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
        right = [plus[a][x] for x in range(n)]
        left = [plus[x][a] for x in range(n)]
        for row, text in ((right, "d satisfy a+d=1"), (left, "e satisfy e+a=1")):
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
            where = (("a", lab[a]), ("b", lab[b]))
            if all(plus[d][a] != c for d in range(n)):
                violations.append(Violation("PE3", where, "no d with d+a = a+b"))
            if all(plus[b][e] != c for e in range(n)):
                violations.append(Violation("PE3", where, "no e with b+e = a+b"))

    for a in range(n):
        if a != A.zero and (plus[a][A.one] is not None or plus[A.one][a] is not None):
            violations.append(
                Violation("PE4", (("a", lab[a]),), "a+1 or 1+a exists with a != 0")
            )

    rows = [0] * n
    for a in range(n):
        for b in range(n):
            if plus[a][b] is not None:
                rows[a] |= 1 << plus[a][b]
    induced = BoundedPoset(A.labels, tuple(rows), A.zero, A.one)
    order = check_order(induced).violations
    violations.extend(order)
    if not order and induced.leq != A.base.leq:
        violations.append(Violation(
            "order", (),
            "declared covers disagree with the order induced by the addition",
        ))
    return Report("check_pea", tuple(violations))


def brute_force_isotone_maps(P, R):
    """All isotone maps, in table order, by scanning every function."""
    return [
        values
        for values in itertools.product(range(R.n), repeat=P.n)
        if all(
            R.le(values[x], values[y])
            for x in range(P.n)
            for y in range(P.n)
            if P.le(x, y)
        )
    ]


def brute_force_bounded_maps(P: BoundedPoset, R: BoundedPoset):
    """All bound-preserving isotone maps by scanning every function."""
    return [
        values
        for values in brute_force_isotone_maps(P, R)
        if values[P.bottom] == R.bottom and values[P.top] == R.top
    ]


def poset_maps(P: BoundedPoset, R: BoundedPoset) -> list[PosetMorphism]:
    """Every bound-preserving isotone map P -> R, as found by the package's
    search, wrapped as a PosetMorphism."""
    return [PosetMorphism(P, R, m) for m in enumerate_morphisms(P, R)]


def pdp_maps_by_filter(X: PseudoDPoset, Y: PseudoDPoset):
    """Every bounded-poset map X -> Y that preserves the differences, found
    by filtering the whole bounded-poset hom set."""
    return [
        m for m in enumerate_morphisms(X.base, Y.base) if preserves_differences(X, Y, m)
    ]


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


def unfiltered_poset_levels(m: int) -> list[tuple[list, int]]:
    """For k = 1..m, the sorted canonical row tuples of the k-point poset
    classes and the number of children they were grown from.

    Each class on k-1 points gets a new maximal element above every subset
    that is a down-set, found by testing all of them, and every child is
    canonicalised: no skip rule and no direct down-set construction.
    """
    level: list[tuple[int, ...]] = [()]
    out = []
    for k in range(m):
        canon = set()
        children = 0
        for rows in level:
            down = transpose_rows(rows)
            for ideal in range(1 << k):
                if any(down[x] & ~ideal for x in iter_bits(ideal)):
                    continue
                children += 1
                grown = [row | (ideal >> i & 1) << k for i, row in enumerate(rows)]
                grown.append(1 << k)
                canon.add(_canonical_rows(grown, transpose_rows(grown)))
        level = sorted(canon)
        out.append((level, children))
    return out


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


def i_preserves_fork_by_coequalizer(fork) -> bool:
    """i_preserves_fork by its definition: the interval posets and maps
    built as objects, the coequalizer of I(f) and I(g) recomputed in
    posets, and the comparison with I(q) tested for an isomorphism."""
    _, onto = coequalizer_posets(interval_map(fork.f), interval_map(fork.g))
    return comparison_isomorphism(onto, interval_map(fork.q)) is not None


def split_fork_equations_by_composition(fork) -> tuple[bool, ...]:
    """The four split-fork equations, each decided by composing morphisms:
    q o f = q o g, q o s = 1, f o t = 1 and g o t = s o q."""
    return (
        fork.f.then(fork.q) == fork.g.then(fork.q),
        fork.s.then(fork.q) == identity(fork.Q),
        fork.t.then(fork.f) == identity(fork.B),
        fork.t.then(fork.g) == fork.q.then(fork.s),
    )


def pooled_split_forks(structures):
    """Every fork of split_fork_pool over ``structures``, each in up to
    three presentations of Q: the first three orders of its carrier in
    itertools.permutations order, the unpermuted one first."""
    forks = []
    for X, e, phi in split_fork_pool(structures, HomSets()):
        size = len(set(e.map))
        for shuffle in itertools.islice(itertools.permutations(range(size)), 3):
            forks.append(split_fork_from_idempotent(X, e, phi, list(shuffle))[2])
    return forks


def as_morphism(P, R, labelled: dict[str, str]) -> PosetMorphism:
    values = tuple(R.labels.index(labelled[lab]) for lab in P.labels)
    return PosetMorphism(P, R, values)


def morphism_report_by_definition(f: PosetMorphism) -> Report:
    """check_morphism restated: every pair x < y whose images are not
    related, in row-major order, then the bottom and the top."""
    P, R = f.source, f.target
    violations = []
    for x in range(P.n):
        for y in range(P.n):
            if x != y and P.le(x, y) and not R.le(f.map[x], f.map[y]):
                images = f"{R.labels[f.map[x]]} and {R.labels[f.map[y]]}"
                violations.append(
                    Violation(
                        "isotone",
                        (("x", P.labels[x]), ("y", P.labels[y])),
                        f"images {images} are not related",
                    )
                )
    if isinstance(P, BoundedPoset) and isinstance(R, BoundedPoset):
        for end, name in ((P.bottom, "bottom"), (P.top, "top")):
            if f.map[end] != getattr(R, name):
                violations.append(
                    Violation(
                        "bounds",
                        (("element", P.labels[end]),),
                        f"{name} not preserved",
                    )
                )
    return Report("morphism", tuple(violations))


def pdp_morphism_report_by_definition(h) -> Report:
    """check_pdp_morphism restated: the poset-map report, then for each
    a <= b with related images a broken / before a broken \\."""
    X, Y, m = h.source, h.target, h.map
    violations = list(morphism_report_by_definition(h.poset_map).violations)
    for a in range(X.n):
        for b in range(X.n):
            if not X.base.le(a, b) or not Y.base.le(m[a], m[b]):
                continue
            where = (("b", X.labels[b]), ("a", X.labels[a]))
            sv, bv = X.slash[b][a], X.bslash[b][a]
            if sv is not None and Y.slash[m[b]][m[a]] != m[sv]:
                violations.append(
                    Violation("slash", where, "f(b/a) differs from f(b)/f(a)")
                )
            if bv is not None and Y.bslash[m[b]][m[a]] != m[bv]:
                violations.append(
                    Violation("bslash", where, "f(b\\a) differs from f(b)\\f(a)")
                )
    return Report("check_pdp_morphism", tuple(violations))


def glued(f, g) -> frozenset:
    """The pairs (f(a), g(a)) with f(a) != g(a): what
    verify_coequalizer_psdpos reads of the parallel pair f, g."""
    return frozenset((x, y) for x, y in zip(f.map, g.map) if x != y)


def coequalizer_report_by_hom_sets(f, g, qprime, targets, homs) -> Report:
    """verify_coequalizer_psdpos by scanning Hom(Q', C): the mediators of a
    coequalizing h are the e in it with e o q = h.  ``homs`` is a plain
    dict that keeps the enumerated hom sets between calls."""

    def hom(X, Y):
        if (X, Y) not in homs:
            homs[X, Y] = enumerate_pdp_morphisms(X, Y)
        return homs[X, Y]

    B, Qprime, q = f.target, qprime.target, qprime.map
    violations = []
    n_targets = pairs = scanned = found = 0
    for idx, C in enumerate(targets):
        n_targets += 1
        out_of_b = hom(B, C)
        scanned += len(out_of_b)
        composites = [tuple(e.map[v] for v in q) for e in hom(Qprime, C)]
        for h in out_of_b:
            if f.then(h) != g.then(h):
                continue
            pairs += 1
            mediators = composites.count(h.map)
            found += mediators
            if mediators != 1:
                tag = f"#{idx}({','.join(C.labels)})"
                violations.append(
                    Violation(
                        "coequalizer",
                        (("target", tag), ("h", str(h.map))),
                        f"{mediators} difference-preserving factorizations",
                    )
                )
    return Report(
        "verify-coeq",
        tuple(violations),
        notes=(
            f"checked {pairs} coequalizing maps over {n_targets} targets",
            f"scanned {scanned} difference-preserving maps out of B "
            f"and found {found} mediators",
        ),
    )
