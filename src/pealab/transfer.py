"""Structure transfer along split coequalizers.

Given a parallel pair of difference-preserving maps f, g: A -> B and a
split fork exhibiting q: B -> Q as their coequalizer of bounded posets,
the splitting s: Q -> B is used to pull candidate difference tables onto
Q: the difference of an interval [x, y] of Q is q applied to the
corresponding difference of [s(x), s(y)] in B.  Well-definedness is then
verified globally (q must commute with the differences over every
interval of B) instead of being trusted, and the finished structure is
run through the full axiom checker.
"""

from __future__ import annotations

import random

from .errors import InvalidStructure, TransferError
from .functors import interval_table
from .pdp import (
    PDPMorphism,
    PseudoDPoset,
    check_pdp,
    enumerate_pdp_morphisms,
    pdp_morphism_violations,
    preserves_differences,
)
from .posets import (
    PosetMorphism,
    SplitFork,
    check_morphism,
    induced_subposet,
    is_coequalizer,
    is_split_fork,
)
from .reports import Report, Violation


def _validate_fork(f: PDPMorphism, g: PDPMorphism, fork: SplitFork) -> None:
    if f.source != g.source or f.target != g.target:
        raise InvalidStructure("the parallel pair does not share its boundaries")
    if fork.f != f.poset_map or fork.g != g.poset_map:
        raise InvalidStructure(
            "fork arrows do not underlie the given difference-preserving maps"
        )
    for name in ("f", "g", "q", "s", "t"):
        if not check_morphism(getattr(fork, name)).ok:
            raise InvalidStructure(
                f"fork invalid: {name} is not a bounded-poset morphism"
            )
    if not all(preserves_differences(h.source, h.target, h.map) for h in (f, g)):
        raise InvalidStructure(
            "fork invalid: the parallel pair must preserve the differences"
        )
    if not is_split_fork(fork):
        raise InvalidStructure("fork invalid: the split-fork equations fail")
    for X, gap in (
        (f.target, "the source difference tables are incomplete"),
        (f.source, "A, the domain of the parallel pair, has undefined differences"),
    ):
        if any(None in pair for pair in X.pairs):
            raise InvalidStructure(f"fork invalid: {gap}")


def transfer_structure(
    f: PDPMorphism, g: PDPMorphism, fork: SplitFork
) -> PDPMorphism:
    """The quotient q': B -> Q' of pseudo D-posets that the U-split pair
    (f, g) creates: Q' is the fork's coequalizer object equipped with both
    differences, and the poset map of q' is ``fork.q``.  A return means
    that both differences descend along q and that Q' passes
    :func:`check_pdp`.

    Raises InvalidStructure for a malformed fork, including one whose A
    or B has an undefined difference, and TransferError when the
    commutation or axiom verification fails.  Once the fork is valid and
    A is complete, the commutation (descent) cannot fail.  For a <= b in
    B, t is isotone and f t = 1, so b/a = f(t b)/f(t a) = f(t b / t a), as
    f preserves the differences; then q f = q g and g t = s q give
    q(b/a) = q(g(t b / t a)) = q(g(t b)/g(t a)) = q(s(q b)/s(q a)), the
    difference pulled onto [q a, q b].  Likewise for \\.  The first step
    also makes B complete once A is; B is checked first, so that a gap in
    B is named as such.
    """
    _validate_fork(f, g, fork)
    B, q, s = f.target, fork.q, fork.s
    pulled = (
        (q(B.slash[s(y)][s(x)]), q(B.bslash[s(y)][s(x)]))
        for x, y in fork.Q.intervals
    )
    Qprime = PseudoDPoset.from_pairs(fork.Q, pulled)
    # q is a bounded-poset morphism, so every violation is a difference
    # that does not descend
    first = next(pdp_morphism_violations(B, Qprime, q.map), None)
    if first is not None:
        (_, v), (_, u) = first.where
        name = "/" if first.rule == "slash" else "\\"
        raise TransferError(
            "not an absolute coequalizer over difference-preserving maps: "
            f"{name} does not descend along the quotient at [{u},{v}]"
        )
    axiom_report = check_pdp(Qprime)
    if not axiom_report.ok:
        raise TransferError(
            "internal consistency: transferred structure fails the axioms: "
            + axiom_report.lines()[0]
        )
    return PDPMorphism(B, Qprime, q.map)


class HomSets(dict):
    """Difference-preserving hom sets keyed by (source, target).

    A missing entry is filled by ``enumerate_pdp_morphisms`` on its first
    lookup.  ``lookups`` counts every lookup and ``len`` the sets
    enumerated.  Nothing is ever evicted, so a table should live no longer
    than the run that shares it.
    """

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __missing__(self, key):
        homs = self[key] = enumerate_pdp_morphisms(*key)
        return homs


def verify_coequalizer_psdpos(
    qprime: PDPMorphism, glued, targets, homs: HomSets
) -> Report:
    """Check the universal property against a catalog of targets.

    For every target C and every difference-preserving h: B -> C that
    coequalizes the pair, exactly one difference-preserving e with
    e o q = h must exist, where q: B -> Q' is ``qprime``.  ``glued`` holds
    the pairs (f(a), g(a)) of the parallel pair f, g: A -> B with
    f(a) != g(a), so h coequalizes the pair iff h(x) = h(y) on each.  The
    quotient must be onto Q' (a split fork's is, as q o s = 1), else
    InvalidStructure is raised.  So e is fixed by h: e(q(b)) = h(b), read
    off one preimage of each element of Q'.  At most one e exists, and it
    is a mediator iff e o q = h and its raw table passes
    :func:`preserves_differences`: one pass over the cached pairs of Q'
    that stops at the first violation.  No morphism is built per candidate
    and no hom set out of Q' is enumerated.  ``homs`` shares the hom sets
    out of B between calls.
    """
    B, Qprime, qmap = qprime.source, qprime.target, qprime.map
    missed = set(range(Qprime.n)).difference(qmap)
    if missed:
        raise InvalidStructure(
            "the quotient q: B -> Q' is not onto: nothing maps to "
            + Qprime.labels[min(missed)]
        )
    preimage = [qmap.index(v) for v in range(Qprime.n)]
    violations = []
    n_targets = pairs_checked = homs_scanned = mediators_found = 0
    for idx, C in enumerate(targets):
        n_targets += 1
        out_of_b = homs[B, C]
        homs_scanned += len(out_of_b)
        for h in out_of_b:
            hm = h.map
            if any(hm[x] != hm[y] for x, y in glued):
                continue
            pairs_checked += 1
            em = [hm[b] for b in preimage]
            if [em[v] for v in qmap] == [*hm] and preserves_differences(Qprime, C, em):
                mediators_found += 1
                continue
            violations.append(
                Violation(
                    "coequalizer",
                    (("target", f"#{idx}({','.join(C.labels)})"),
                     ("h", str(hm))),
                    "0 difference-preserving factorizations",
                )
            )
    return Report(
        "verify-coeq",
        tuple(violations),
        notes=(
            f"checked {pairs_checked} coequalizing maps over "
            f"{n_targets} targets",
            f"scanned {homs_scanned} difference-preserving maps out of B "
            f"and found {mediators_found} mediators",
        ),
    )


def i_preserves_fork(fork: SplitFork) -> bool:
    """True iff the interval construction carries the fork to a coequalizer:
    I(q) is a coequalizer in posets of I(f) and I(g).

    Lemma.  Let f, g: A -> B and q: B -> R be isotone, and let <=* be the
    preorder on B generated by B's order and both directions of every pair
    (f(a), g(a)).  Then q is a coequalizer of f and g iff q is onto and
    x <=* y <=> q(x) <= q(y) for all x, y of B.
    Proof.  The coequalizer is the quotient map onto B/~, x ~ y iff
    x <=* y <=* x, ordered by <=* on the classes, and q is one iff
    e([x]) = q(x) defines an order isomorphism B/~ -> R.  If q is onto
    and reflects <=* exactly, e is well defined and one-to-one (q(x) = q(y)
    iff x ~ y), onto, and e([x]) <= e([y]) iff x <=* y iff [x] <= [y].
    Conversely, if e is an isomorphism, q = e o [-] is onto and
    q(x) <= q(y) iff [x] <= [y] iff x <=* y.

    The lemma is decided on I(B)'s order rows and index tables: I(f), I(g)
    and I(q) are read off the cached :attr:`~pealab.posets.Poset.intervals`
    of A, B and Q (a lookup that fails raises InvalidStructure: the map is
    not isotone), and :func:`is_coequalizer` compares each row of <=* on
    I(B) with the pull-back of I(Q)'s row along I(q), both read off the
    cached :attr:`~pealab.posets.Poset.interval_rows`.  No interval poset is
    built.  Each poset caches its own index and rows: B's once per catalog
    structure, which a run's forks share, and Q's once per fork; Q's index
    is the one the Q' of :func:`transfer_structure` was built over.
    """
    if not is_split_fork(fork):
        raise InvalidStructure("not a split fork")
    pairs_a, index_b = fork.A.intervals, fork.B.intervals
    glued = zip(
        interval_table(fork.f.map, pairs_a, index_b),
        interval_table(fork.g.map, pairs_a, index_b),
    )
    quotient = interval_table(fork.q.map, index_b, fork.Q.intervals)
    return is_coequalizer(
        fork.B.interval_rows, glued, quotient, fork.Q.interval_rows
    )


def split_fork_from_idempotent(
    X: PseudoDPoset,
    idem: PDPMorphism,
    phi: PDPMorphism,
    shuffle: list[int] | None = None,
):
    """Split fork (phi, idem o phi), phi an automorphism of X, with Q the
    image of the idempotent.

    ``shuffle`` optionally permutes the carrier of Q to vary the quotient
    presentation.  Returns (f, g, fork) ready for transfer_structure.
    """
    B = X.base
    e = idem.map
    image = sorted(set(e))
    carrier = image if shuffle is None else [image[i] for i in shuffle]
    Q = induced_subposet(B, carrier)
    pos = {v: k for k, v in enumerate(carrier)}
    q = PosetMorphism(B, Q, tuple(pos[v] for v in e))
    s = PosetMorphism(Q, B, tuple(carrier))
    t = phi.poset_map.inverse()
    g = phi.then(idem)
    fork = SplitFork(B, B, Q, phi.poset_map, g.poset_map, q, s, t)
    return phi, g, fork


def split_fork_pool(structures, homs: HomSets):
    """Every (X, idempotent, automorphism) triple of difference-preserving
    endomorphisms of each structure X, in enumeration order.

    ``homs`` shares the endomorphism sets with later calls.  Automorphisms
    are the bijective endomorphisms (see :func:`generate_split_forks` for
    why their inverses need no check).
    """
    pool = []
    for X in structures:
        endos = homs[X, X]
        idems = [e for e in endos if all(e(v) == v for v in e.map)]  # e(e(x)) = e(x)
        autos = [phi for phi in endos if len(set(phi.map)) == X.n]
        for e in idems:
            for phi in autos:
                pool.append((X, e, phi))
    return pool


def generate_split_forks(structures, count: int, seed: int, homs: HomSets):
    """Seeded sample of split forks over difference-preserving maps.

    Every structure contributes one fork per (idempotent endomorphism,
    automorphism) pair of :func:`split_fork_pool`; sampling draws from that
    pool with replacement and randomly permutes the presentation of Q half
    of the time.  ``homs`` shares the endomorphism sets with later calls.

    Automorphisms are the bijective endomorphisms; their inverses need no
    check.  Lemma: on a pseudo D-poset, where every a <= b has both
    differences, the inverse of a bijective difference-preserving phi
    preserves them.  phi is isotone and one-to-one, so it sends the finite
    set of comparable pairs injectively, hence onto, into itself: every
    x <= y is (phi(a), phi(b)) for some a <= b, and phi^-1 is isotone.  It
    fixes the bounds, as phi does.  Then phi(b/a) = phi(b)/phi(a) = y/x
    gives phi^-1(y/x) = phi^-1(y)/phi^-1(x), and likewise for \\.
    """
    rng = random.Random(seed)
    pool = split_fork_pool(structures, homs)
    if not pool:
        raise InvalidStructure("no split forks available over these structures")
    out = []
    for _ in range(count):
        X, e, phi = pool[rng.randrange(len(pool))]
        image_size = len(set(e.map))
        shuffle = None
        if image_size > 1 and rng.random() < 0.5:
            shuffle = list(range(image_size))
            rng.shuffle(shuffle)
        out.append(split_fork_from_idempotent(X, e, phi, shuffle))
    return out
