"""Finite bounded posets, their morphisms, and (co)limit machinery.

Order relations are bitmask tables: bit ``j`` of row ``leq[i]`` is set iff
element ``i`` lies below element ``j``.  Every value is immutable after
construction and every operation is pure, so structures can be shared
freely between threads.

Constructors check shape only; :func:`check_order` decides the order
axioms where an order enters from outside.  Orders built from checked ones
are orders by construction and are not checked again.

Each poset caches one index of its comparable pairs a <= b
(:attr:`Poset.intervals`), one of its comparable triples a <= b <= c
(:attr:`Poset.triples`) and the interval poset's order rows over the pairs
(:attr:`Poset.interval_rows`).  The interval and triple constructions, the
difference tables, ``pdp_to_pea``, the fork checks, PD2 in ``check_pdp``
and the structure search all read these.  It also caches its own
:func:`check_order` report (:attr:`Poset.order_report`), which
``check_pea`` reads for every table whose induced order is the poset's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidStructure
from .reports import Report, Violation


def _bit_table(m: int) -> tuple[tuple[int, ...], ...]:
    """The ascending set-bit positions of every mask on m points, by
    mask: the masks with bit i set are those below 2^i plus 2^i."""
    table = [()]
    for i in range(m):
        table += [bits + (i,) for bits in table]
    return tuple(table)


# BITS[mask] lists the set bits of every mask on at most ten points, the
# largest carrier the catalog can label; iter_bits reads it.
BITS = _bit_table(10)
_TABLED = len(BITS)


def iter_bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of the nonnegative ``mask``, ascending: read
    from :data:`BITS`, or for a mask on more points (a product, say)
    collected one lowest bit at a time."""
    if mask < _TABLED:
        return BITS[mask]
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def transpose_rows(rows: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in iter_bits(row):
            cols[j] |= 1 << i
    return tuple(cols)


def close_relation(rows: list[int]) -> None:
    """Reflexive-transitive closure of bitmask rows, in place."""
    n = len(rows)
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]


def glued_preorder(leq, glued) -> list[int]:
    """Rows of the preorder that the order rows ``leq`` and both directions
    of every pair (x, y) in ``glued`` generate."""
    rows = list(leq)
    for x, y in glued:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    close_relation(rows)
    return rows


@dataclass(frozen=True)
class Poset:
    """Finite poset with named elements and a full order table.  The
    constructor checks shape only; :func:`check_order` decides the axioms."""

    labels: tuple[str, ...]
    leq: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InvalidStructure("duplicate element labels")
        if len(self.leq) != n:
            raise InvalidStructure("order table size does not match element count")
        if self.leq and (min(self.leq) < 0 or max(self.leq) >> n):
            raise InvalidStructure("order table references unknown elements")

    @property
    def n(self) -> int:
        return len(self.labels)

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Column masks: bit ``i`` of ``down[j]`` is set iff i <= j."""
        return transpose_rows(self.leq)

    @cached_property
    def up(self) -> tuple[tuple[int, ...], ...]:
        """Up-set rows as index tuples: ``up[i]`` lists each j >= i, ascending."""
        return tuple(tuple(iter_bits(row)) for row in self.leq)

    @cached_property
    def intervals(self) -> dict[tuple[int, int], int]:
        """Each pair (a, b) with a <= b and its position in row-major
        order, listed in that order.  Built once per object and shared by
        every caller, which must not change it."""
        pairs = ((a, b) for a, ups in enumerate(self.up) for b in ups)
        return {p: k for k, p in enumerate(pairs)}

    @cached_property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        """Each triple (a, b, c) with a <= b <= c, in row-major order,
        built once per object and shared by every caller."""
        return tuple((a, b, c) for a, b in self.intervals for c in self.up[b])

    @cached_property
    def interval_rows(self) -> tuple[int, ...]:
        """Order rows of the interval poset over :attr:`intervals`, built
        once per object: [a,b] <= [c,d] iff c <= a <= b <= d."""
        index = self.intervals
        up = self.up
        down = [tuple(iter_bits(column)) for column in self.down]
        rows = []
        for a, b in index:
            row = 0
            for c in down[a]:
                for d in up[b]:
                    row |= 1 << index[c, d]
            rows.append(row)
        return tuple(rows)

    @cached_property
    def order_report(self) -> Report:
        """:func:`check_order` of this poset, built once per object and
        shared by every caller."""
        return check_order(self)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction of the order, in lexicographic order."""
        down = self.down
        covers = []
        for a in range(self.n):
            for b in iter_bits(self.leq[a]):
                if b == a:
                    continue
                between = (self.leq[a] ^ 1 << a) & (down[b] ^ 1 << b)
                if between == 0:
                    covers.append((a, b))
        return covers


@dataclass(frozen=True)
class BoundedPoset(Poset):
    """Poset with distinguished bottom and top elements, which the
    constructor range-checks; :func:`check_order` decides they are bounds."""

    bottom: int
    top: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.bottom < self.n or not 0 <= self.top < self.n:
            raise InvalidStructure("bottom/top index out of range")

    @cached_property
    def search_plan(self) -> tuple:
        """What :func:`enumerate_morphisms` reads of a source, built once per
        object: the :func:`placement_order`, then for each element x the
        elements x covers and those that cover x, bounds left out.

        Isotonicity along the covers implies it along the whole order, and
        covers at the bounds hold whatever the other image, since the
        bounds' images are the target's.
        """
        lower = [[] for _ in range(self.n)]
        upper = [[] for _ in range(self.n)]
        for a, b in self.cover_pairs():
            if a != self.bottom:
                lower[b].append(a)
            if b != self.top:
                upper[a].append(b)
        return (
            tuple(placement_order(self)),
            tuple(map(tuple, lower)),
            tuple(map(tuple, upper)),
        )


def induced_subposet(B: BoundedPoset, carrier) -> BoundedPoset:
    """The order of B restricted to ``carrier``, listed in the given order.

    The carrier must contain both bounds of B; they stay the bounds.
    """
    pos = {v: k for k, v in enumerate(carrier)}
    rows = []
    for a in carrier:
        row = 0
        for k, b in enumerate(carrier):
            if B.le(a, b):
                row |= 1 << k
        rows.append(row)
    return BoundedPoset(
        tuple(B.labels[v] for v in carrier),
        tuple(rows),
        pos[B.bottom],
        pos[B.top],
    )


def check_order(P: Poset) -> Report:
    """Report, under the rule "order", every failure of reflexivity at an
    element a; then of antisymmetry at a pair a, c, from both ends; then of
    transitivity at a, naming the first a <= b <= c without a <= c; and for
    a bounded poset, then a bottom not below every element and each element
    not below the top."""
    leq, lab = P.leq, P.labels
    found = [((a,), "relation not reflexive")
             for a, row in enumerate(leq) if not row >> a & 1]
    found += [((a, c), "relation not antisymmetric")
              for a, row in enumerate(leq)
              for c in iter_bits(row) if c != a and leq[c] >> a & 1]
    for a, row in enumerate(leq):
        for b in iter_bits(row):
            beyond = leq[b] & ~(row | 1 << a)  # c == a is reflexivity's line
            if beyond:
                x, y, z = lab[a], lab[b], lab[(beyond & -beyond).bit_length() - 1]
                detail = f"{x} <= {y} <= {z} but not {x} <= {z}"
                found.append(((a,), f"relation not transitive: {detail}"))
                break
    if isinstance(P, BoundedPoset):
        if leq[P.bottom] != (1 << P.n) - 1:
            found.append(((P.bottom,), "bottom is not below every element"))
        found += [((a,), "top is not above this element")
                  for a, row in enumerate(leq) if not row >> P.top & 1]
    return Report("order", tuple(
        Violation("order", tuple(zip("ac", (lab[x] for x in at))), detail)
        for at, detail in found
    ))


def validate_bounded_poset(elements, cover_pairs) -> BoundedPoset:
    """Close a cover relation and return the bounded poset it presents.

    Raises InvalidStructure when the covers contain a cycle or when the
    closed order lacks a unique bottom or top.  The closure is reflexive
    and transitive, so the only axiom :func:`check_order` can find broken
    is antisymmetry, and a pair related both ways lies on a cycle.
    """
    labels = tuple(str(e) for e in elements)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    rows = [0] * n
    for lo, hi in cover_pairs:
        lo, hi = str(lo), str(hi)
        if lo not in index or hi not in index:
            raise InvalidStructure(f"cover ({lo}, {hi}) uses an undeclared element")
        rows[index[lo]] |= 1 << index[hi]
    close_relation(rows)
    order = check_order(Poset(labels, tuple(rows)))
    if not order.ok:
        where = dict(order.violations[0].where)
        raise InvalidStructure(f"cycle detected through {where['a']} and {where['c']}")
    full = (1 << n) - 1
    bottoms = [i for i in range(n) if rows[i] == full]
    if len(bottoms) != 1:
        raise InvalidStructure("no unique bottom element")
    tops = [j for j in range(n) if all(row >> j & 1 for row in rows)]
    if len(tops) != 1:
        raise InvalidStructure("no unique top element")
    return BoundedPoset(labels, tuple(rows), bottoms[0], tops[0])


def check_map_shape(source, target, table) -> None:
    """Raise InvalidStructure unless ``table`` sends each element of source
    to an element of target; reads only each end's ``n``."""
    if len(table) != source.n:
        raise InvalidStructure("morphism table does not cover the source")
    if table and (min(table) < 0 or max(table) >= target.n):
        raise InvalidStructure("morphism table references unknown targets")


@dataclass(frozen=True)
class _Map:
    """Map table between two structures, the arrows of both categories.

    The constructor checks only shape, by :func:`check_map_shape`, which
    reads each end's ``n``.  Equality and hashing are by class and field.
    """

    source: object
    target: object
    map: tuple[int, ...]

    def __post_init__(self):
        check_map_shape(self.source, self.target, self.map)

    def __call__(self, i: int) -> int:
        return self.map[i]

    def then(self, other):
        """Composition in diagram order: ``f.then(g)`` is ``g o f``, of the
        caller's own kind."""
        if self.target != other.source:
            raise InvalidStructure("composition boundary mismatch")
        return type(self)(
            self.source, other.target, tuple(other.map[v] for v in self.map)
        )

    def label_map(self) -> dict[str, str]:
        return {
            self.source.labels[i]: self.target.labels[v]
            for i, v in enumerate(self.map)
        }


class PosetMorphism(_Map):
    """Map between posets; isotonicity and bound preservation are diagnosed
    by :func:`check_morphism`."""

    def inverse(self) -> "PosetMorphism":
        """The inverse table of a bijection, from the target back."""
        values = [0] * self.target.n
        for k, v in enumerate(self.map):
            values[v] = k
        return PosetMorphism(self.target, self.source, tuple(values))


def identity(P: Poset) -> PosetMorphism:
    return PosetMorphism(P, P, tuple(range(P.n)))


def morphism_violations(P: Poset, R: Poset, fm):
    """Lazily yield check_morphism's violations of the map table ``fm``:
    isotonicity over P's cached up-set rows in row-major order, then the
    bounds.  The pair x <= x is scanned too; it cannot fail."""
    rleq = R.leq
    for x, ups in enumerate(P.up):
        above = rleq[fm[x]]
        for y in ups:
            if not above >> fm[y] & 1:
                yield Violation(
                    "isotone",
                    (("x", P.labels[x]), ("y", P.labels[y])),
                    f"images {R.labels[fm[x]]} and {R.labels[fm[y]]} "
                    "are not related",
                )
    if isinstance(P, BoundedPoset) and isinstance(R, BoundedPoset):
        if fm[P.bottom] != R.bottom:
            yield Violation(
                "bounds", (("element", P.labels[P.bottom]),), "bottom not preserved"
            )
        if fm[P.top] != R.top:
            yield Violation(
                "bounds", (("element", P.labels[P.top]),), "top not preserved"
            )


def check_morphism(f: PosetMorphism) -> Report:
    """Report every isotonicity violation and any bound violation."""
    return Report("morphism", tuple(morphism_violations(f.source, f.target, f.map)))


def product_bposets(factors) -> BoundedPoset:
    """Finite product: carrier is the cartesian product, order componentwise.

    The empty product is the one-element poset (the terminal object).
    Carrier order is row-major over the factor index ranges.
    """
    factors = list(factors)
    tuples = list(itertools.product(*(range(f.n) for f in factors)))
    labels = tuple(
        "*".join(f.labels[c] for f, c in zip(factors, t)) or "()" for t in tuples
    )
    index = {t: k for k, t in enumerate(tuples)}
    rows = []
    for t in tuples:
        row = 0
        for u in tuples:
            if all(f.le(a, b) for f, a, b in zip(factors, t, u)):
                row |= 1 << index[u]
        rows.append(row)
    bottom = index[tuple(f.bottom for f in factors)]
    top = index[tuple(f.top for f in factors)]
    return BoundedPoset(labels, tuple(rows), bottom, top)


def _coequalizer(f: PosetMorphism, g: PosetMorphism, bounded: bool):
    """The poset reflection of the preorder that B's order and both
    directions of every pair (f(a), g(a)) generate.

    x and y share a class iff each lies below the other in that preorder.
    Classes are named after, and ordered by, their least member.
    """
    if f.source != g.source or f.target != g.target:
        raise InvalidStructure("morphisms are not a parallel pair")
    if not check_morphism(f).ok or not check_morphism(g).ok:
        raise InvalidStructure(
            "coequalizer requires valid bounded-poset morphisms"
            if bounded
            else "coequalizer requires isotone maps"
        )
    B = f.target
    if bounded and not isinstance(B, BoundedPoset):
        raise InvalidStructure("coequalizer target must be a bounded poset")
    rows = glued_preorder(B.leq, zip(f.map, g.map))
    cols = transpose_rows(rows)
    reps: list[int] = []
    class_of = []
    for x in range(B.n):
        same = rows[x] & cols[x]  # the class of x
        least = (same & -same).bit_length() - 1
        if least == x:
            reps.append(x)
        class_of.append(reps.index(least))
    class_rows = tuple(
        sum(1 << k for k, r in enumerate(reps) if rows[p] >> r & 1) for p in reps
    )
    labels = tuple(B.labels[r] for r in reps)
    if bounded:
        Q = BoundedPoset(labels, class_rows, class_of[B.bottom], class_of[B.top])
    else:
        Q = Poset(labels, class_rows)
    return Q, PosetMorphism(B, Q, tuple(class_of))


def coequalizer_posets(f: PosetMorphism, g: PosetMorphism):
    """Coequalizer of a parallel pair in the category of posets."""
    return _coequalizer(f, g, bounded=False)


def coequalizer_bposets(f: PosetMorphism, g: PosetMorphism):
    """Coequalizer of a parallel pair in the category of bounded posets."""
    return _coequalizer(f, g, bounded=True)


def is_coequalizer(leq, glued, q, target_leq) -> bool:
    """True iff the map table ``q``, from the order rows ``leq`` to the order
    rows ``target_leq``, is a coequalizer in posets of an isotone parallel
    pair whose images, zipped, are ``glued``.

    Lemma: exactly when q is onto and x <=* y iff q(x) <= q(y), where <=*
    is :func:`glued_preorder`; the proof is in
    :func:`pealab.transfer.i_preserves_fork`.  Each row of <=* is compared
    with the pull-back along q of the row of its image.
    """
    if len(set(q)) != len(target_leq):
        return False
    preimage = [0] * len(target_leq)
    for x, v in enumerate(q):
        preimage[v] |= 1 << x
    pulled = []
    for row in target_leq:
        mask = 0
        for v in iter_bits(row):
            mask |= preimage[v]
        pulled.append(mask)
    return all(
        row == pulled[v] for row, v in zip(glued_preorder(leq, glued), q)
    )


def comparison_isomorphism(onto: PosetMorphism, q: PosetMorphism):
    """The isomorphism e with ``onto.then(e) == q``, or None.

    e(onto(x)) = q(x) must define a bijection between the targets, and e
    and its inverse must pass :func:`check_morphism`.
    """
    if onto.source != q.source:
        raise InvalidStructure("comparison needs two maps out of the same poset")
    Q, R = onto.target, q.target
    if Q.n != R.n:
        return None
    values: list[int | None] = [None] * Q.n
    for cls, image in zip(onto.map, q.map):
        if values[cls] is None:
            values[cls] = image
        elif values[cls] != image:
            return None
    if None in values or len(set(values)) != R.n:
        return None
    e = PosetMorphism(Q, R, tuple(values))
    return e if check_morphism(e).ok and check_morphism(e.inverse()).ok else None


@dataclass(frozen=True)
class SplitFork:
    """Witness for a split (hence absolute) coequalizer.

    The equations q o f = q o g, q o s = id, f o t = id and g o t = s o q
    are not enforced here; :func:`is_split_fork` decides them.
    """

    A: BoundedPoset
    B: BoundedPoset
    Q: BoundedPoset
    f: PosetMorphism
    g: PosetMorphism
    q: PosetMorphism
    s: PosetMorphism
    t: PosetMorphism

    def __post_init__(self):
        ends = [
            (self.f, self.A, self.B),
            (self.g, self.A, self.B),
            (self.q, self.B, self.Q),
            (self.s, self.Q, self.B),
            (self.t, self.B, self.A),
        ]
        for m, src, dst in ends:
            if m.source != src or m.target != dst:
                raise InvalidStructure("fork morphism boundaries are inconsistent")


def is_split_fork(fork: SplitFork) -> bool:
    """Decide the four split-fork equations pointwise on the map tables.

    The constructor has checked every boundary, so each equation is one
    between tables: q(f(a)) = q(g(a)), q(s(z)) = z, f(t(b)) = b and
    g(t(b)) = s(q(b)).
    """
    f, g, q, s, t = (m.map for m in (fork.f, fork.g, fork.q, fork.s, fork.t))
    return (
        all(q[x] == q[y] for x, y in zip(f, g))
        and all(q[v] == z for z, v in enumerate(s))
        and all(f[a] == b for b, a in enumerate(t))
        and all(g[a] == s[q[b]] for b, a in enumerate(t))
    )


def placement_order(P: Poset) -> list[int]:
    """Elements of P by down-set size, then index: each after all below it."""
    down = P.down
    return sorted(range(P.n), key=lambda i: (down[i].bit_count(), i))


def enumerate_morphisms(
    P: BoundedPoset, R: BoundedPoset, rules=None
) -> list[tuple[int, ...]]:
    """The sorted tables of all bound-preserving isotone maps P -> R obeying ``rules``.

    ``rules``, if given, is a pair ``(tables, triggers)``: ``triggers[x]``
    lists the rules ``(a, b, d, k)`` with x among a and b, and such a rule
    forces the image of d to be ``tables[k][image of b][image of a]`` once
    a and b are placed; a ``None`` entry admits no map.  The bounds are
    placed first, placing a value places what it forces, and the search
    branches, in :func:`placement_order`, only on unplaced elements.
    Nothing is lost: a forced value is the only one any completion can
    take.  A complete table is a valid map: each cover pair was checked
    when its second end was placed, and each rule once its a, b and d were.
    The order and the covers are read from ``P.search_plan``, built once
    per source; only the target's rows are bound per call.
    """
    if not isinstance(P, BoundedPoset) or not isinstance(R, BoundedPoset):
        raise InvalidStructure("morphism enumeration needs bounded posets")
    n, free, full = P.n, R.n, (1 << R.n) - 1
    order, lower, upper = P.search_plan
    tables, triggers = rules or ((), ((),) * n)
    # the images above and below each image; ``free``, the image of an
    # unplaced element, admits every image
    above, below = R.leq + (full,), R.down + (full,)
    found: list[tuple[int, ...]] = []

    def admitted(x: int, current: list[int]) -> int:
        cand = full
        for j in lower[x]:
            cand &= above[current[j]]
        for j in upper[x]:
            cand &= below[current[j]]
        return cand

    def settle(current: list[int], pending: list[int]) -> bool:
        # place what the placed ``pending`` force, or return False on a conflict
        while pending:
            for a, b, d, k in triggers[pending.pop()]:
                if current[a] == free or current[b] == free:
                    continue
                v, w = tables[k][current[b]][current[a]], current[d]
                if w == free and v is not None and admitted(d, current) >> v & 1:
                    current[d] = v
                    pending.append(d)
                elif w != v:
                    return False
        return True

    def extend(k: int, current: list[int]) -> None:
        while k < n and current[order[k]] != free:
            k += 1
        if k == n:
            found.append(tuple(current))
            return
        i = order[k]
        for v in iter_bits(admitted(i, current)):
            branch = current.copy()  # each branch places on its own copy
            branch[i] = v
            if settle(branch, [i]):
                extend(k + 1, branch)

    start = [free] * n
    start[P.top], start[P.bottom] = R.top, R.bottom
    # P.top is P.bottom when P.n == 1
    if start[P.top] == R.top and settle(start, [P.bottom, P.top]):
        extend(0, start)
    del extend  # break the self-reference, so refcounting frees the search
    found.sort()
    return found


def isomorphisms(P: Poset, R: Poset, within: int | None = None):
    """Yield every order isomorphism P -> R as a map table, in increasing
    table order.

    ``within`` is a mask M of elements present in both posets; the search
    then lists the isomorphisms between the subposets it induces in P and
    in R, as tables that hold None outside the mask.  Elements are placed
    by index, and a candidate image of x must agree with every image
    placed before it: y <= x iff s(y) <= s(x), and x <= y iff s(x) <= s(y).

    A candidate must also match x in size.  Lemma: an order isomorphism s
    maps the down-set of x within M onto the down-set of s(x) within M,
    and the up-set of x within M onto that of s(x), so x and s(x) have
    down-sets of the same size within M and up-sets of the same size
    within M; this is the per-element form of the lemma of
    :func:`pealab.catalog._degrees_self_dual`.  The targets are grouped by
    that size pair once per call.  The filter only removes candidates, so
    the table order is unchanged.
    """
    if P.n != R.n:
        return
    mask = (1 << P.n) - 1 if within is None else within
    elements = list(iter_bits(mask))
    up_p, down_p, up_r, down_r = P.leq, P.down, R.leq, R.down
    targets: dict[tuple[int, int], int] = {}
    for y in elements:
        pair = (down_r[y] & mask).bit_count(), (up_r[y] & mask).bit_count()
        targets[pair] = targets.get(pair, 0) | 1 << y
    sized = [
        targets.get(((down_p[x] & mask).bit_count(), (up_p[x] & mask).bit_count()), 0)
        for x in elements
    ]
    table: list[int | None] = [None] * P.n

    def extend(k: int, free: int):
        if k == len(elements):
            yield tuple(table)
            return
        x = elements[k]
        candidates = free & sized[k]
        for y in elements[:k]:
            s = table[y]
            candidates &= up_r[s] if up_p[y] >> x & 1 else ~up_r[s]
            candidates &= down_r[s] if up_p[x] >> y & 1 else ~down_r[s]
        for v in iter_bits(candidates):
            table[x] = v
            yield from extend(k + 1, free & ~(1 << v))

    try:
        yield from extend(0, mask)
    finally:
        # break the self-reference, also when the caller stops early, so
        # refcounting frees the search
        del extend


def find_isomorphism(P: Poset, R: Poset):
    """The lexicographically least order isomorphism P -> R, or None.

    Between bounded posets it preserves the bounds: an order isomorphism
    sends the least element to the least and the greatest to the greatest.
    """
    table = next(isomorphisms(P, R), None)
    return None if table is None else PosetMorphism(P, R, table)
