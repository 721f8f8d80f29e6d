"""Acceptance suite.

One test per acceptance criterion; every tolerance is exactness (table
equality, pointwise map equality, exact rationals).  Each test prints a
single PASS line with its elapsed time once its assertions hold; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import itertools
import time
from fractions import Fraction

from helpers import c2, c3, diamond, glued
from pealab import (
    HomSets,
    PDPMorphism,
    alpha,
    beta,
    check_morphism,
    check_pdp,
    check_pdp_morphism,
    check_pea,
    check_square,
    coequalizer_bposets,
    comparison_isomorphism,
    difference_maps,
    enumerate_pdp_morphisms,
    enumerate_pea_structures,
    equalizer_pdp,
    generate_split_forks,
    i_preserves_fork,
    identity,
    interval_map,
    is_commutative,
    pdp_to_pea,
    pea_to_pdp,
    pl_noncommutativity_witness,
    pl_sum,
    product_pdp,
    transfer_structure,
    verify_coequalizer_psdpos,
    zero_embedding,
)

FORK_COUNT = 120
FORK_SEED = 2024


def _passed(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - started:.1f}s]")


def test_criterion_1_axiom_roundtrip_suite(catalog6):
    started = time.time()
    structures = 0
    for entry in catalog6:
        for X in entry.structures:
            assert check_pdp(X).ok
            A = pdp_to_pea(X)
            assert check_pea(A).ok
            assert pea_to_pdp(A) == X
            assert pdp_to_pea(pea_to_pdp(A)) == A
            assert A.base == entry.base  # check_pea(A) compared it with the addition
            assert X.base == entry.base
            structures += 1
    assert structures == 48
    _passed(1, f"axiom/roundtrip over {structures} structures up to size 6",
            started)


def test_criterion_2_forced_structure_counts():
    started = time.time()
    c2_structures = enumerate_pea_structures(c2())
    assert len(c2_structures) == 1

    c3_structures = enumerate_pea_structures(c3())
    assert len(c3_structures) == 1
    assert pdp_to_pea(c3_structures[0]).plus[1][1] == 2  # a+a = 1 forced

    d4_structures = enumerate_pea_structures(diamond())
    assert len(d4_structures) == 2
    assert all(is_commutative(pdp_to_pea(X)) for X in d4_structures)
    _passed(2, "forced structure counts 1/1/2", started)


def test_criterion_3_diagram_suite(pdps5, pdps4):
    started = time.time()
    for X in pdps5:
        sm, bm = difference_maps(X)
        assert check_morphism(sm).ok
        assert check_morphism(bm).ok
        embed = zero_embedding(X.base)
        assert embed.then(sm) == identity(X.base)
        assert embed.then(bm) == identity(X.base)
        a, b = alpha(X.base), beta(X.base)
        assert b.then(sm) == a.then(interval_map(sm)).then(bm)
        assert b.then(bm) == a.then(interval_map(bm)).then(sm)
    squares = 0
    for X in pdps4:
        sm_x, bm_x = difference_maps(X)
        for Y in pdps4:
            sm_y, bm_y = difference_maps(Y)
            for h in enumerate_pdp_morphisms(X, Y):
                lifted = interval_map(h.poset_map)
                assert check_square(lifted, h.poset_map, sm_x, sm_y)
                assert check_square(lifted, h.poset_map, bm_x, bm_y)
                squares += 1
    _passed(
        3,
        f"difference diagrams on {len(pdps5)} structures, "
        f"{squares} naturality squares",
        started,
    )


def test_criterion_4_transfer_suite(pdps5, pdps4):
    started = time.time()
    forks = generate_split_forks(pdps5, FORK_COUNT, FORK_SEED, HomSets())
    assert len(forks) >= 100
    for f, g, fork in forks:
        qprime = transfer_structure(f, g, fork)
        assert check_pdp(qprime.target).ok
        assert check_pdp_morphism(qprime).ok
        assert i_preserves_fork(fork)
        assert verify_coequalizer_psdpos(
            qprime, glued(f, g), pdps4, HomSets()).ok
    _passed(4, f"transfer suite over {len(forks)} split forks", started)


def test_criterion_5_independent_coequalizer_crosscheck(pdps5):
    started = time.time()
    forks = generate_split_forks(pdps5, FORK_COUNT, FORK_SEED, HomSets())
    for f, g, fork in forks:
        Q, q = coequalizer_bposets(fork.f, fork.g)
        iso = comparison_isomorphism(q, fork.q)
        assert iso is not None
        assert q.then(iso) == fork.q
    _passed(5, f"coequalizer cross-check over {len(forks)} forks", started)


def test_criterion_6_noncommutative_witness():
    started = time.time()
    f, g, report = pl_noncommutativity_witness()
    forward = pl_sum(f, g)
    assert forward is not None

    def probes(h):
        points = []
        previous = Fraction(0)
        for b in h.breakpoints:
            points.append((previous + b) / 2)
            points.append(b)
            previous = b
        points.append(previous + 1)
        return points

    for x in probes(forward):
        assert x <= forward(x) <= 2 * x
    assert 1 <= forward.slopes[-1] <= 2

    assert pl_sum(g, f) is None
    reverse = report.reverse_composition
    for x in probes(reverse):
        assert reverse(x) == g(f(x))
    witness = report.violation
    assert reverse(witness.point) == witness.value
    assert not witness.lower <= witness.value <= witness.upper
    assert witness.point == Fraction(3, 4) and witness.value == 2
    _passed(6, "noncommutativity witness re-verified exactly", started)


def test_criterion_7_universal_properties(pdps4):
    started = time.time()
    product_instances = 0
    for X1, X2 in itertools.combinations_with_replacement(pdps4, 2):
        product = product_pdp([X1, X2])
        tuples = list(itertools.product(range(X1.n), range(X2.n)))
        projections = [
            PDPMorphism(product, X1, tuple(t[0] for t in tuples)),
            PDPMorphism(product, X2, tuple(t[1] for t in tuples)),
        ]
        assert all(check_pdp_morphism(p).ok for p in projections)
        for C in pdps4:
            into_product = enumerate_pdp_morphisms(C, product)
            legs1 = enumerate_pdp_morphisms(C, X1)
            legs2 = enumerate_pdp_morphisms(C, X2)
            for p1 in legs1:
                for p2 in legs2:
                    mediators = [
                        m for m in into_product
                        if m.then(projections[0]).poset_map == p1.poset_map
                        and m.then(projections[1]).poset_map == p2.poset_map
                    ]
                    assert len(mediators) == 1
                    product_instances += 1

    equalizer_instances = 0
    for X in pdps4:
        for Y in pdps4:
            homs = enumerate_pdp_morphisms(X, Y)
            for f, g in itertools.product(homs, repeat=2):
                E, inclusion = equalizer_pdp(f, g)
                assert check_pdp(E).ok
                carrier = [x for x in range(X.n) if f(x) == g(x)]
                assert [X.labels[v] for v in carrier] == list(E.labels)
                for C in pdps4:
                    into_e = enumerate_pdp_morphisms(C, E)
                    for h in enumerate_pdp_morphisms(C, X):
                        if h.then(f).poset_map != h.then(g).poset_map:
                            continue
                        mediators = [
                            m for m in into_e
                            if m.then(inclusion).poset_map == h.poset_map
                        ]
                        assert len(mediators) == 1
                        equalizer_instances += 1
    _passed(
        7,
        f"universal properties: {product_instances} product cones, "
        f"{equalizer_instances} equalizer cones",
        started,
    )
