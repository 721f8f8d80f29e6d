import hashlib
from copy import deepcopy

import pytest

from helpers import (
    c3,
    coequalizer_report_by_hom_sets,
    d4_hsum,
    edit_table,
    glued,
    i_preserves_fork_by_coequalizer,
    pdp_morphism_report_by_definition,
    pooled_split_forks,
    split_fork_equations_by_composition,
    wide3_selfsum,
)
from pealab import (
    HomSets,
    InvalidStructure,
    PDPMorphism,
    PosetMorphism,
    PseudoDPoset,
    SplitFork,
    TransferError,
    check_pdp,
    check_pdp_morphism,
    coequalizer_bposets,
    enumerate_pdp_morphisms,
    find_isomorphism,
    generate_split_forks,
    i_preserves_fork,
    identity,
    is_commutative,
    is_split_fork,
    pdp_to_pea,
    pea_to_pdp,
    split_fork_from_idempotent,
    transfer_structure,
    verify_coequalizer_psdpos,
)
from pealab.pdp import preserves_differences


def hsum_pdp():
    return pea_to_pdp(d4_hsum())


def collapse_idempotent(X):
    """b -> a on the horizontal-sum diamond."""
    return PDPMorphism(X, X, (0, 1, 1, 3))


def identity_pdp(X):
    return PDPMorphism(X, X, tuple(range(X.n)))


def identity_fork(X):
    i = identity(X.base)
    return (
        identity_pdp(X),
        identity_pdp(X),
        SplitFork(X.base, X.base, X.base, i, i, i, i, i),
    )


class TestTransferStructure:
    def test_identity_fork_returns_the_source(self):
        X = hsum_pdp()
        f, g, fork = identity_fork(X)
        qprime = transfer_structure(f, g, fork)
        assert qprime.source == X and qprime.target == X
        assert qprime.poset_map == identity(X.base)

    def test_collapse_of_glued_chains(self):
        # the horizontal sum of two 3-chains collapses onto one of them
        X = hsum_pdp()
        f, g, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        qprime = transfer_structure(f, g, fork)
        Q = qprime.target
        assert Q.labels == ("0", "a", "1")
        idx = {lab: k for k, lab in enumerate(Q.labels)}
        # transferred values: [a,1] -> q(1/a in the source) = q(a) = a
        assert Q.slash[idx["1"]][idx["a"]] == idx["a"]
        assert Q.slash[idx["a"]][idx["0"]] == idx["a"]
        assert Q.bslash == Q.slash
        assert check_pdp(Q).ok
        assert check_pdp_morphism(qprime).ok

    def test_transferred_structure_matches_the_unique_candidate(self):
        # collapsing one atom of the three-atom structure lands on the
        # diamond; of the two structures the diamond carries, exactly the
        # horizontal sum commutes with the quotient map
        X = pea_to_pdp(wide3_selfsum())
        collapse = PDPMorphism(X, X, (0, 1, 2, 1, 4))
        assert check_pdp_morphism(collapse).ok
        f, g, fork = split_fork_from_idempotent(X, collapse, identity_pdp(X))
        qprime = transfer_structure(f, g, fork)

        from pealab import enumerate_pea_structures

        candidates = enumerate_pea_structures(fork.Q)
        assert len(candidates) == 2

        def commutes(cand):
            for u in range(X.n):
                for v in range(X.n):
                    if not X.base.le(u, v):
                        continue
                    qu, qv = fork.q(u), fork.q(v)
                    if cand.slash[qv][qu] != fork.q(X.slash[v][u]):
                        return False
                    if cand.bslash[qv][qu] != fork.q(X.bslash[v][u]):
                        return False
            return True

        matching = [cand for cand in candidates if commutes(cand)]
        assert matching == [qprime.target]

    def test_invalid_fork_is_rejected_before_transfer(self):
        X = hsum_pdp()
        f, g, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        broken = SplitFork(
            fork.A, fork.B, fork.Q, fork.f, fork.g, fork.q,
            PosetMorphism(fork.Q, fork.B, (0, 0, 0)),  # not a section
            fork.t,
        )
        with pytest.raises(InvalidStructure, match="fork invalid"):
            transfer_structure(f, g, broken)

    def test_identity_fork_returns_every_noncommutative_source(self, catalog6):
        sources = [
            X for e in catalog6 for X in e.structures
            if not is_commutative(pdp_to_pea(X))
        ]
        assert len(sources) == 16
        for X in sources:
            assert transfer_structure(*identity_fork(X)).target == X

    def test_incomplete_source_table_is_rejected(self):
        X = hsum_pdp()
        B = PseudoDPoset(X.base, edit_table(X.slash, {(3, 1): None}), X.bslash)
        with pytest.raises(InvalidStructure, match="tables are incomplete"):
            transfer_structure(*identity_fork(B))

    @staticmethod
    def non_descending_fork(slash_cells, bslash_cells):
        """The collapse b -> a of the horizontal-sum diamond, with B's
        tables edited and every difference of A undefined, so that f and g
        preserve the differences vacuously.  Only such an A lets an edit of
        B pass as a fork: once A is complete, every difference descends."""
        X = hsum_pdp()
        _, _, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        B = PseudoDPoset(
            X.base,
            edit_table(X.slash, slash_cells),
            edit_table(X.bslash, bslash_cells),
        )
        none = ((None,) * X.n,) * X.n
        A = PseudoDPoset(X.base, none, none)
        return PDPMorphism(A, B, fork.f.map), PDPMorphism(A, B, fork.g.map), fork

    @pytest.mark.parametrize(
        "slash_cells, bslash_cells",
        [({}, {}), ({(2, 0): 3}, {}), ({}, {(2, 0): 3})],
        ids=["unedited", "slash", "bslash"],
    )
    def test_source_of_the_pair_with_undefined_differences_is_rejected(
        self, slash_cells, bslash_cells
    ):
        fork = self.non_descending_fork(slash_cells, bslash_cells)
        with pytest.raises(InvalidStructure) as caught:
            transfer_structure(*fork)
        assert str(caught.value) == (
            "fork invalid: A, the domain of the parallel pair, has "
            "undefined differences"
        )

    @pytest.mark.parametrize(
        "slash_cells, bslash_cells, name",
        [({(2, 0): 3}, {}, "/"), ({}, {(2, 0): 3}, "\\")],
        ids=["slash", "bslash"],
    )
    def test_difference_that_does_not_descend_is_reported(
        self, slash_cells, bslash_cells, name, monkeypatch
    ):
        # b/0 (or b\0) moved to 1: q sends it to 1, but [0,b] goes to
        # [0,a], whose difference is q(a/0) = a.  The fork checks reject
        # A first, and no valid fork reaches this guard, so they are
        # skipped to show that the guard still names the broken interval.
        monkeypatch.setattr("pealab.transfer._validate_fork", lambda *_: None)
        fork = self.non_descending_fork(slash_cells, bslash_cells)
        with pytest.raises(TransferError) as caught:
            transfer_structure(*fork)
        assert str(caught.value) == (
            "not an absolute coequalizer over difference-preserving maps: "
            f"{name} does not descend along the quotient at [0,b]"
        )

    def test_incomplete_source_is_reported_before_a_mismatch(self):
        # b\b is undefined; [b,b] comes after [0,b] and is not in the image
        # of the section, yet B's completeness is checked first, before A's
        fork = self.non_descending_fork({(2, 0): 3}, {(2, 2): None})
        with pytest.raises(InvalidStructure) as caught:
            transfer_structure(*fork)
        assert str(caught.value) == (
            "fork invalid: the source difference tables are incomplete"
        )

    def test_mismatched_pair_is_rejected(self):
        X = hsum_pdp()
        f, g, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        with pytest.raises(InvalidStructure, match="underlie"):
            transfer_structure(g, g, fork)


class TestVerifyCoequalizer:
    def test_identity_fork_passes(self, pdps4):
        X = hsum_pdp()
        f, g, fork = identity_fork(X)
        qprime = transfer_structure(f, g, fork)
        assert verify_coequalizer_psdpos(
            qprime, glued(f, g), pdps4, HomSets()).ok

    def test_collapse_fork_passes(self, pdps4):
        X = hsum_pdp()
        f, g, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        qprime = transfer_structure(f, g, fork)
        report = verify_coequalizer_psdpos(
            qprime, glued(f, g), pdps4, HomSets())
        assert report.ok

    def test_adversarial_quotient_fails(self, pdps4):
        # replacing the transferred object with the two-chain collapse
        # breaks existence or uniqueness for some coequalizing map
        X = hsum_pdp()
        f, g, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        two = [C for C in pdps4 if C.n == 2][0]
        fake = PDPMorphism(X, two, (0, 1, 1, 1))
        report = verify_coequalizer_psdpos(fake, glued(f, g), pdps4, HomSets())
        assert not report.ok
        assert report == coequalizer_report_by_hom_sets(f, g, fake, pdps4, {})

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_descent_counts_the_mediators_of_a_hom_set_scan(self, pdps5, seed):
        homs, scanned = HomSets(), {}
        for f, g, fork in generate_split_forks(pdps5, 120, seed, homs):
            qprime = transfer_structure(f, g, fork)
            assert qprime.poset_map == fork.q
            assert verify_coequalizer_psdpos(
                qprime, glued(f, g), pdps5, homs
            ) == coequalizer_report_by_hom_sets(f, g, qprime, pdps5, scanned)

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_raw_table_verdict_matches_the_morphism_report(self, pdps5, seed):
        # the mediator candidate e(q(b)) = h(b) of every map h out of B,
        # coequalizing or not, so that both verdicts occur
        homs, verdicts = HomSets(), {True: 0, False: 0}
        for f, g, fork in generate_split_forks(pdps5, 120, seed, homs):
            qprime = transfer_structure(f, g, fork)
            Q, qmap = qprime.target, qprime.map
            preimage = [qmap.index(v) for v in range(Q.n)]
            for C in pdps5:
                for h in homs[f.target, C]:
                    em = [h.map[b] for b in preimage]
                    e = PDPMorphism(Q, C, tuple(em))
                    verdict = preserves_differences(Q, C, em)
                    assert verdict == check_pdp_morphism(e).ok
                    assert verdict == pdp_morphism_report_by_definition(e).ok
                    verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]

    def test_mediator_must_preserve_the_differences(self, pdps4):
        # Q' with one difference changed: h still factors through q as a
        # map, but that map breaks the changed difference
        X = hsum_pdp()
        f, g, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        Q = transfer_structure(f, g, fork).target
        top, bottom = Q.base.top, Q.base.bottom
        broken = PseudoDPoset(
            Q.base, edit_table(Q.slash, {(top, bottom): bottom}), Q.bslash
        )
        fake = PDPMorphism(X, broken, fork.q.map)
        report = verify_coequalizer_psdpos(fake, glued(f, g), pdps4, HomSets())
        assert not report.ok
        assert {v.detail for v in report.violations} == {
            "0 difference-preserving factorizations"
        }
        assert report == coequalizer_report_by_hom_sets(f, g, fake, pdps4, {})

    def test_mediator_must_factor_h_through_q(self, pdps4):
        # q glues a and b to 0 in the two-chain: h = (0, a, a, 1) into the
        # three-chain does not factor through q, though the map read off
        # the preimages 0 and 1 preserves the differences
        X = hsum_pdp()
        f, g, fork = identity_fork(X)
        two = [C for C in pdps4 if C.n == 2][0]
        fake = PDPMorphism(X, two, (0, 0, 0, 1))
        report = verify_coequalizer_psdpos(fake, glued(f, g), pdps4, HomSets())
        assert ("h", "(0, 1, 1, 2)") in [v.where[1] for v in report.violations]
        assert report == coequalizer_report_by_hom_sets(f, g, fake, pdps4, {})

    def test_quotient_that_is_not_onto_is_rejected(self, pdps4):
        X = hsum_pdp()
        f, g, fork = identity_fork(X)
        fake = collapse_idempotent(X)
        with pytest.raises(InvalidStructure, match="q: B -> Q' is not onto"):
            verify_coequalizer_psdpos(fake, glued(f, g), pdps4, HomSets())

    def test_targets_may_be_an_iterator(self, pdps4):
        X = hsum_pdp()
        f, g, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        qprime = transfer_structure(f, g, fork)
        from_list = verify_coequalizer_psdpos(
            qprime, glued(f, g), pdps4, HomSets())
        from_iter = verify_coequalizer_psdpos(
            qprime, glued(f, g), iter(pdps4), HomSets())
        assert from_iter == from_list
        assert from_iter.notes[0].endswith(f"over {len(pdps4)} targets")

    def test_notes_count_the_scanned_maps_and_the_mediators(self, pdps4):
        X = hsum_pdp()
        f, g, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        qprime = transfer_structure(f, g, fork)
        report = verify_coequalizer_psdpos(
            qprime, glued(f, g), pdps4, HomSets())
        homs = [h for C in pdps4 for h in enumerate_pdp_morphisms(X, C)]
        coequalizing = [h for h in homs if f.then(h) == g.then(h)]
        # a passing report has exactly one mediator per coequalizing map
        assert report.ok and coequalizing
        assert report.notes == (
            f"checked {len(coequalizing)} coequalizing maps over "
            f"{len(pdps4)} targets",
            f"scanned {len(homs)} difference-preserving maps out of B "
            f"and found {len(coequalizing)} mediators",
        )

    def test_shared_hom_sets_give_the_same_reports(self, pdps5):
        homs = HomSets()
        forks = generate_split_forks(pdps5, 120, 2024, HomSets())
        for f, g, fork in forks:
            qprime = transfer_structure(f, g, fork)
            alone = verify_coequalizer_psdpos(
                qprime, glued(f, g), pdps5, HomSets())
            shared = verify_coequalizer_psdpos(qprime, glued(f, g), pdps5, homs)
            assert shared == alone
        # one hom set out of B per fork and target; none out of Q'
        assert homs.lookups == len(forks) * len(pdps5)
        assert 0 < len(homs) < homs.lookups
        for (S, C), found in homs.items():
            assert found == enumerate_pdp_morphisms(S, C)


    def test_equal_structures_share_one_hom_set(self, pdps5):
        # the cached hash is the value hash: a copy built separately is the
        # same key
        homs = HomSets()
        for X in pdps5:
            copy = PseudoDPoset(deepcopy(X.base), X.slash, X.bslash)
            assert copy is not X and copy.base is not X.base
            assert copy == X and hash(copy) == hash(X)
            assert homs[X, X] is homs[copy, copy]
        assert len(homs) == len(pdps5) and homs.lookups == 2 * len(pdps5)


class TestIntervalPreservation:
    def test_identity_fork(self):
        X = hsum_pdp()
        _, _, fork = identity_fork(X)
        assert i_preserves_fork(fork)

    def test_collapse_fork(self):
        X = hsum_pdp()
        _, _, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        assert i_preserves_fork(fork)

    def test_non_fork_is_rejected(self):
        X = hsum_pdp()
        _, _, fork = split_fork_from_idempotent(
            X, collapse_idempotent(X), identity_pdp(X))
        broken = SplitFork(
            fork.A, fork.B, fork.Q, fork.f, fork.g, fork.q,
            PosetMorphism(fork.Q, fork.B, (0, 0, 0)),
            fork.t,
        )
        with pytest.raises(InvalidStructure):
            i_preserves_fork(broken)

    def test_agrees_with_the_interval_objects_on_every_pooled_fork(self, pdps5):
        forks = pooled_split_forks(pdps5)
        assert len(forks) == 317
        for fork in forks:
            assert is_split_fork(fork)
            assert all(split_fork_equations_by_composition(fork))
            assert i_preserves_fork(fork) == i_preserves_fork_by_coequalizer(fork)

    def test_non_isotone_parallel_pair_is_rejected(self):
        # swapping 0 and a of c3 is its own inverse: the equations hold
        B = c3()
        swap, i = PosetMorphism(B, B, (1, 0, 2)), identity(B)
        fork = SplitFork(B, B, B, swap, swap, i, i, swap)
        assert is_split_fork(fork)
        for decide in (i_preserves_fork, i_preserves_fork_by_coequalizer):
            with pytest.raises(InvalidStructure, match="not isotone"):
                decide(fork)


class TestGenerator:
    def test_same_seed_reproduces_the_sample(self, pdps4):
        first = generate_split_forks(pdps4, 20, 7, HomSets())
        second = generate_split_forks(pdps4, 20, 7, HomSets())
        assert [(f.map, g.map, fork.q.map) for f, g, fork in first] == [
            (f.map, g.map, fork.q.map) for f, g, fork in second
        ]

    def test_inverses_of_bijective_endomorphisms_preserve_the_differences(
        self, pdps6
    ):
        # the lemma that lets generate_split_forks skip checking inverses
        bijective = 0
        for X in pdps6:
            for phi in enumerate_pdp_morphisms(X, X):
                if len(set(phi.map)) == X.n:
                    bijective += 1
                    back = PDPMorphism(X, X, phi.poset_map.inverse().map)
                    assert check_pdp_morphism(back).ok
        assert bijective == 161

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (2024, "cec8b8aeb0b34c20a77783ea39ada3571448dc9f2ed45f35f8a361e0df8a5103"),
            (7, "3db52bbba692cbdeec9c9a8a7b97ffd1c6c99c4900833ab7dc5d591c00793959"),
        ],
    )
    def test_documented_seeds_draw_the_pinned_forks(self, pdps5, seed, digest):
        forks = generate_split_forks(pdps5, 120, seed, HomSets())
        key = repr([
            (pdps5.index(f.source), f.map, g.map, fork.q.map, fork.s.map)
            for f, g, fork in forks
        ])
        assert hashlib.sha256(key.encode()).hexdigest() == digest

    def test_generated_forks_are_split(self, pdps4):
        for f, g, fork in generate_split_forks(pdps4, 25, 3, HomSets()):
            assert is_split_fork(fork)
            assert check_pdp_morphism(f).ok
            assert check_pdp_morphism(g).ok

    def test_quotients_match_the_recomputed_coequalizer(self, pdps4):
        for f, g, fork in generate_split_forks(pdps4, 15, 11, HomSets()):
            Q, q = coequalizer_bposets(fork.f, fork.g)
            comparison = [None] * Q.n
            for x in range(fork.B.n):
                cls = q.map[x]
                if comparison[cls] is None:
                    comparison[cls] = fork.q.map[x]
                assert comparison[cls] == fork.q.map[x]
            iso = PosetMorphism(Q, fork.Q, tuple(comparison))
            assert find_isomorphism(Q, fork.Q) is not None
            assert q.then(iso) == fork.q
            assert sorted(iso.map) == list(range(fork.Q.n))
