"""Interval and triple constructions on posets, with the maps between them.

``interval_poset`` sends a poset to its poset of comparable pairs ordered
by reverse inclusion of endpoints ([a,b] <= [c,d] iff c <= a <= b <= d);
``triple_poset`` sends it to all comparable triples with the mixed order
that fixes the outer endpoint.  Carriers are materialized eagerly and
ordered lexicographically on component indices, which keeps every derived
object deterministic.
"""

from __future__ import annotations

from .errors import InvalidStructure
from .posets import BoundedPoset, Poset, PosetMorphism


def interval_poset(P: Poset) -> Poset:
    """Poset of closed intervals of P, ordered by inclusion."""
    labels = tuple(f"[{P.labels[a]},{P.labels[b]}]" for a, b in P.intervals)
    return Poset(labels, P.interval_rows)


def interval_table(fm, pairs, index) -> list[int]:
    """The map table ``fm`` on intervals: each (a, b) of ``pairs`` goes to
    the position of (f(a), f(b)) in ``index``.

    An image that is not an interval raises InvalidStructure; so the lookup
    succeeds everywhere iff f is isotone.
    """
    try:
        return [index[fm[a], fm[b]] for a, b in pairs]
    except KeyError:
        raise InvalidStructure(
            "image of an interval is not an interval; the map is not isotone"
        ) from None


def interval_map(f: PosetMorphism) -> PosetMorphism:
    """Action on intervals: [a,b] goes to [f(a), f(b)]."""
    values = interval_table(f.map, f.source.intervals, f.target.intervals)
    return PosetMorphism(
        interval_poset(f.source), interval_poset(f.target), tuple(values)
    )


def triple_elements(P: Poset) -> list[tuple[int, int, int]]:
    """All triples (x, y, z) with x <= y <= z, lexicographically ordered."""
    return [
        (x, y, z)
        for x, ups in enumerate(P.up)
        for y in ups
        for z in P.up[y]
    ]


def triple_poset(P: Poset) -> Poset:
    """Poset of comparable triples of P.

    (x1,y1,z1) <= (x2,y2,z2) iff x2 <= x1, y1 <= y2 and z1 = z2: the inner
    pair widens while the outer endpoint stays fixed.
    """
    triples = triple_elements(P)
    index = {t: k for k, t in enumerate(triples)}
    labels = tuple(
        f"[{P.labels[x]},{P.labels[y]},{P.labels[z]}]" for x, y, z in triples
    )
    rows = []
    for x1, y1, z1 in triples:
        row = 0
        for x2, y2, z2 in triples:
            if z1 == z2 and P.le(x2, x1) and P.le(y1, y2):
                row |= 1 << index[(x2, y2, z2)]
        rows.append(row)
    return Poset(labels, tuple(rows))


def triple_map(f: PosetMorphism) -> PosetMorphism:
    """Action on triples: (x,y,z) goes to (f(x), f(y), f(z))."""
    src = triple_elements(f.source)
    dst_index = {t: k for k, t in enumerate(triple_elements(f.target))}
    values = []
    for t in src:
        image = (f.map[t[0]], f.map[t[1]], f.map[t[2]])
        if image not in dst_index:
            raise InvalidStructure(
                "image of a triple is not comparable; the map is not isotone"
            )
        values.append(dst_index[image])
    return PosetMorphism(
        triple_poset(f.source), triple_poset(f.target), tuple(values)
    )


def zero_embedding(P: BoundedPoset) -> PosetMorphism:
    """The map x -> [bottom, x] from a bounded poset into its intervals."""
    if not isinstance(P, BoundedPoset):
        raise InvalidStructure("zero embedding needs a bounded poset")
    values = tuple(P.intervals[P.bottom, x] for x in range(P.n))
    return PosetMorphism(P, interval_poset(P), values)


def alpha(P: Poset) -> PosetMorphism:
    """Triples to nested intervals: (x,y,z) -> [[y,z], [x,z]].

    Lemma: alpha and :func:`beta` are isotone for every poset P.  The
    image is a nested interval, as [y,z] <= [x,z] when x <= y.  If
    (x1,y1,z) <= (x2,y2,z), then x2 <= x1 and y1 <= y2, so
    [y2,z] <= [y1,z] <= [x1,z] <= [x2,z], which puts alpha's images in
    order, and x2 <= x1 <= y1 <= y2, which puts beta's [x1,y1] <= [x2,y2].
    """
    ip = interval_poset(P)
    pair_index, nest_index = P.intervals, ip.intervals
    values = tuple(
        nest_index[(pair_index[(y, z)], pair_index[(x, z)])]
        for x, y, z in triple_elements(P)
    )
    return PosetMorphism(triple_poset(P), interval_poset(ip), values)


def beta(P: Poset) -> PosetMorphism:
    """Triples to their lower interval: (x,y,z) -> [x,y]; isotone by the
    lemma of :func:`alpha`."""
    values = tuple(P.intervals[x, y] for x, y, z in triple_elements(P))
    return PosetMorphism(triple_poset(P), interval_poset(P), values)


def check_square(
    top: PosetMorphism,
    bottom: PosetMorphism,
    left: PosetMorphism,
    right: PosetMorphism,
) -> bool:
    """True iff bottom o left = right o top pointwise.

    The square reads: top across the upper edge, left and right down the
    sides, bottom across the lower edge.
    """
    if top.source != left.source:
        raise InvalidStructure("square corners disagree at the source")
    if top.target != right.source:
        raise InvalidStructure("square corners disagree after the top edge")
    if left.target != bottom.source:
        raise InvalidStructure("square corners disagree after the left edge")
    if bottom.target != right.target:
        raise InvalidStructure("square corners disagree at the sink")
    return left.then(bottom) == top.then(right)
