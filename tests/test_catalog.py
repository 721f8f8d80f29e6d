import gc
import itertools
import random
from collections import Counter

import pytest

from cancellative import compare_routes
from helpers import (
    brute_force_canonical_rows,
    c2,
    c3,
    c4,
    diamond,
    scanned_poset_classes,
    unfiltered_poset_levels,
)
from pealab import (
    InvalidStructure,
    LimitExceeded,
    Poset,
    PseudoEffectAlgebra,
    build_catalog,
    catalog_pdps,
    check_order,
    check_pdp,
    check_pea,
    enumerate_bounded_posets,
    enumerate_pdp_morphisms,
    enumerate_pea_structures,
    enumerate_posets,
    find_isomorphism,
    is_commutative,
    is_dposet,
    pdp_to_pea,
    pea_to_pdp,
)
from pealab import catalog, io
from pealab.catalog import catalog_to_obj
from pealab.posets import BITS, isomorphisms, iter_bits, transpose_rows


def relabelled(leq, rng):
    """The order rows ``leq`` under a random relabelling drawn from rng."""
    m = len(leq)
    perm = list(range(m))
    rng.shuffle(perm)
    rows = [0] * m
    for i in range(m):
        for j in iter_bits(leq[i]):
            rows[perm[i]] |= 1 << perm[j]
    return rows


def brute_force_poset_classes(m):
    """Iso classes of all m-element posets by scanning every relation."""
    found = []
    for bits in range(1 << m * m):
        rows = [0] * m
        for i in range(m):
            for j in range(m):
                if bits >> (i * m + j) & 1:
                    rows[i] |= 1 << j
        P = Poset(tuple(str(i) for i in range(m)), tuple(rows))
        if check_order(P).ok and not any(find_isomorphism(P, Q) for Q in found):
            found.append(P)
    return found


def dumb_structures(base):
    """All valid addition tables by filtering a full cell-product scan.

    Cells are restricted to the necessary conditions only (values above
    both operands, top sums forced empty); everything else is left to the
    full checker, so this is an independent completeness oracle for the
    catalog search.
    """
    n = base.n
    cells = [(a, b) for a in range(n) for b in range(n)]
    options = []
    for a, b in cells:
        if (b == base.top and a != base.bottom) or (
            a == base.top and b != base.bottom
        ):
            options.append([None])
            continue
        allowed = [
            c for c in range(n) if base.le(a, c) and base.le(b, c)
        ]
        options.append(allowed + [None])
    out = []
    for choice in itertools.product(*options):
        table = [[None] * n for _ in range(n)]
        for (a, b), v in zip(cells, choice):
            table[a][b] = v
        A = PseudoEffectAlgebra(base, tuple(tuple(row) for row in table))
        # check_pea also requires the induced order to be exactly base's
        if check_pea(A).ok:
            out.append(A)
    return out


class TestPosetEnumeration:
    def test_class_counts(self):
        counts = Counter(len(rows) for rows in enumerate_posets(5))
        assert [counts[m] for m in range(6)] == [1, 1, 2, 5, 16, 63]

    def test_matches_brute_force_classification(self):
        counts = Counter(len(rows) for rows in enumerate_posets(3))
        for m in range(4):
            assert counts[m] == len(brute_force_poset_classes(m))

    @pytest.mark.parametrize("m", range(6))
    def test_rows_match_the_relation_scan(self, m):
        assert [
            rows for rows in enumerate_posets(m) if len(rows) == m
        ] == scanned_poset_classes(m)

    def test_generation_matches_the_unfiltered_loop(self):
        # the skip rule and the direct down-sets change no level, and every
        # down-set is either skipped or canonicalised
        generation = []
        posets = enumerate_posets(7, generation)
        oracle = unfiltered_poset_levels(7)
        for k, (level, children) in enumerate(oracle, start=1):
            assert [rows for rows in posets if len(rows) == k] == level
            record = generation[k - 1]
            assert record["n"] == k
            assert record["down_sets"] == children
            assert record["skipped"] + record["canonical_forms"] == children
            assert record["classes"] == len(level)
        assert len(generation) == 7

    def test_one_pass_lists_every_level_by_size(self):
        # the up-to list is the relation scan's classes, size by size
        assert enumerate_posets(5) == [
            rows for k in range(6) for rows in scanned_poset_classes(k)
        ]

    def test_a_child_extends_its_parents_rows_and_columns(self):
        # the lemma of enumerate_posets: a new maximal element k over a
        # down-set I keeps every other column and adds I | 1 << k, and its
        # rows set bit k on I alone
        for rows in enumerate_posets(5):
            k = len(rows)
            down = transpose_rows(rows)
            for ideal in range(1 << k):
                if any(down[x] & ~ideal for x in iter_bits(ideal)):
                    continue
                child = [*rows, 1 << k]
                for i in BITS[ideal]:
                    child[i] |= 1 << k
                assert child == [
                    row | (ideal >> i & 1) << k for i, row in enumerate(rows)
                ] + [1 << k]
                assert (*down, ideal | 1 << k) == transpose_rows(child)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_canonical_form_matches_brute_force(self, m):
        rng = random.Random(m)
        for rows in (rows for rows in enumerate_posets(m) if len(rows) == m):
            rows = relabelled(rows, rng)
            assert catalog._canonical_rows(
                rows, transpose_rows(rows)
            ) == brute_force_canonical_rows(rows, m)

    def test_canonical_form_is_fixed_past_the_brute_force_oracle(self):
        # at 7 points every class is its own canonical form, and a random
        # relabelling of it maps back to it
        rng = random.Random(7)
        for rows in (rows for rows in enumerate_posets(7) if len(rows) == 7):
            assert catalog._canonical_rows(rows, transpose_rows(rows)) == rows
            other = relabelled(rows, rng)
            assert catalog._canonical_rows(other, transpose_rows(other)) == rows

    def test_bit_table_lists_the_bits_of_every_mask(self):
        def plain(mask):
            return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

        # every mask on the largest carrier the catalog can label
        assert len(BITS) == 1 << len(catalog._MIDDLE_LABELS) + 2
        for mask, bits in enumerate(BITS):
            assert bits == plain(mask)
            assert iter_bits(mask) is bits
        # past the table, as for products, the bits are collected in a loop
        rng = random.Random(10)
        beyond = [len(BITS), (1 << 11) - 1, 1 << 40 | 5]
        beyond += [rng.getrandbits(rng.randint(11, 70)) | len(BITS)
                   for _ in range(300)]
        for mask in beyond:
            assert iter_bits(mask) == plain(mask)

    def test_representatives_are_pairwise_non_isomorphic(self):
        posets = [Poset(tuple("abcd"), rows)
                  for rows in enumerate_posets(4) if len(rows) == 4]
        for i, P in enumerate(posets):
            for Q in posets[i + 1 :]:
                assert find_isomorphism(P, Q) is None

    def test_label_alphabet_caps_the_poset_size_before_any_work(
        self, monkeypatch
    ):
        def unreachable(*args):
            raise AssertionError("classes grown past the size check")

        monkeypatch.setattr(catalog, "_canonical_rows", unreachable)
        with pytest.raises(LimitExceeded, match="m=9 exceeds 8"):
            enumerate_posets(9)

    def test_negative_size_is_rejected_by_name(self):
        for m in (-1, -5):
            with pytest.raises(InvalidStructure, match=f"m={m}: "):
                enumerate_posets(m)


class TestBoundedPosetEnumeration:
    def test_class_counts(self):
        # OEIS A000112 shifted by two: posets on n-2 points; one pass lists
        # every size, in order of size
        sizes = [P.n for P in enumerate_bounded_posets(10)]
        assert sizes == sorted(sizes)
        assert [sizes.count(n) for n in range(1, 11)] == [
            1, 1, 1, 2, 5, 16, 63, 318, 2045, 16999,
        ]

    def test_four_element_classes_are_chain_and_diamond(self):
        classes = [P for P in enumerate_bounded_posets(4) if P.n == 4]
        assert any(find_isomorphism(P, c4()) for P in classes)
        assert any(find_isomorphism(P, diamond()) for P in classes)

    def test_small_classes_are_chains(self):
        _, two, three = enumerate_bounded_posets(3)
        assert find_isomorphism(two, c2())
        assert find_isomorphism(three, c3())

    def test_each_class_sits_between_a_new_bottom_and_top(self):
        # the classes of enumerate_posets in its order, labelled 0, a, b, ...,
        # 1 with the bounds at the ends
        classes = enumerate_posets(5)
        bounded = enumerate_bounded_posets(7)
        assert len(bounded) == 1 + len(classes)
        assert (bounded[0].labels, bounded[0].leq) == (("0",), (1,))
        for B, rows in zip(bounded[1:], classes):
            m = len(rows)
            assert B.labels == ("0", *"abcde"[:m], "1")
            assert (B.bottom, B.top) == (0, m + 1)
            assert B.leq[1:-1] == tuple(1 << m + 1 | row << 1 for row in rows)
            assert check_order(B).ok

    def test_label_alphabet_caps_the_size_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("classes enumerated past the size check")

        monkeypatch.setattr(catalog, "enumerate_posets", unreachable)
        with pytest.raises(LimitExceeded, match="n=11 exceeds 10"):
            enumerate_bounded_posets(11)

    def test_environment_sets_no_size_cap(self, monkeypatch):
        # the labels are the only size bound; no environment variable sets one
        monkeypatch.setenv("PEALAB_MAX_N", "3")
        assert sum(P.n == 4 for P in enumerate_bounded_posets(4)) == 2


class TestStructureEnumeration:
    def test_two_chain_has_one_structure(self):
        structures = enumerate_pea_structures(c2())
        assert len(structures) == 1
        assert pdp_to_pea(structures[0]).plus == ((0, 1), (1, None))

    def test_three_chain_structure_is_forced(self):
        structures = enumerate_pea_structures(c3())
        assert len(structures) == 1
        A = pdp_to_pea(structures[0])
        assert A.plus[1][1] == 2  # a+a = 1 is forced

    def test_diamond_has_two_commutative_structures(self):
        structures = [pdp_to_pea(X) for X in enumerate_pea_structures(diamond())]
        assert len(structures) == 2
        assert all(is_commutative(A) for A in structures)
        blocks = {A.plus[1][1:3] + A.plus[2][1:3] for A in structures}
        # one structure pairs each atom with itself, the other crosses them
        assert blocks == {(None, 3, 3, None), (3, None, None, 3)}

    @pytest.mark.parametrize("base", [c2(), c3(), c4(), diamond()])
    def test_matches_dumb_oracle(self, base):
        expected = {A.plus for A in dumb_structures(base)}
        got = {pdp_to_pea(X).plus for X in enumerate_pea_structures(base)}
        assert got == expected

    def test_degree_prefilter_rejects_only_bases_without_a_dual_automorphism(
        self
    ):
        rejected = [base for base in enumerate_bounded_posets(8)
                    if not catalog._degrees_self_dual(base)]
        for base in rejected:
            dual = Poset(base.labels, base.down)
            assert next(isomorphisms(base, dual), None) is None
        # up to six elements, 10 of the 26 classes
        assert sum(base.n <= 6 for base in rejected) == 10

    def test_search_counts_each_class_once(self):
        search = catalog.search_counts()
        entries = build_catalog(7, search=search)
        # each class is rejected, stopped or searched; each table found is
        # re-checked once, and no re-check fails
        stopped = search["prefiltered"] + search["no_dual_automorphism"]
        assert stopped + search["searched"] == len(entries)
        assert stopped <= sum(not e.structures for e in entries)
        assert search["rechecked"] == sum(len(e.structures) for e in entries)
        assert search["recheck_failed"] == 0

    def test_every_structure_survives_recheck(self, catalog5):
        for entry in catalog5:
            for X in entry.structures:
                A = pdp_to_pea(X)
                assert A.base == entry.base and check_pea(A).ok
                assert check_pdp(X).ok

    def test_rows_and_columns_are_bijections_onto_up_sets(self, catalog5):
        for entry in catalog5:
            for A in map(pdp_to_pea, entry.structures):
                for a in range(A.n):
                    up = list(iter_bits(entry.base.leq[a]))
                    row = [c for c in A.plus[a] if c is not None]
                    col = [r[a] for r in A.plus if r[a] is not None]
                    # sorted equality: no value twice, every value of up once
                    assert sorted(row) == up
                    assert sorted(col) == up

    def test_seven_element_catalog(self):
        bases = [b for b in enumerate_bounded_posets(7) if b.n == 7]
        tables = [enumerate_pea_structures(base) for base in bases]
        counts = [len(t) for t in tables]
        assert len(bases) == 63
        # class index -> table count; every other class has no table
        nonzero = {0: 120, 1: 6, 6: 1, 7: 1, 10: 2, 13: 4, 28: 1, 33: 1,
                   38: 1, 62: 1}
        assert counts == [nonzero.get(k, 0) for k in range(63)]
        assert sum(counts) == 138
        assert sum(not is_commutative(pdp_to_pea(X)) for t in tables for X in t) == 96

    def test_eight_element_catalog(self):
        bases = [b for b in enumerate_bounded_posets(8) if b.n == 8]
        tables = [enumerate_pea_structures(b) for b in bases]
        assert len(tables) == 318
        assert sum(len(t) for t in tables) == 836
        assert sum(not is_commutative(pdp_to_pea(X)) for t in tables for X in t) == 680

    def test_nine_element_catalog(self):
        bases = [b for b in enumerate_bounded_posets(9) if b.n == 9]
        tables = [enumerate_pea_structures(b) for b in bases]
        assert len(tables) == 2045
        assert sum(len(t) for t in tables) == 5323
        assert sum(
            not is_commutative(pdp_to_pea(X)) for t in tables for X in t
        ) == 4952

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_cancellative_route(self, n):
        # the second route in cancellative.py fills addition tables cell by
        # cell; both must give the same tables in the same order per class
        *_, differing = compare_routes(n)
        assert differing == []

    def test_enumeration_is_deterministic(self):
        first = enumerate_pea_structures(diamond())
        second = enumerate_pea_structures(diamond())
        assert first == second

    def test_structure_count_equals_difference_structure_count(self, catalog5):
        # conversion is a bijection between the two table kinds over a
        # fixed base, so counting either way must agree
        for entry in catalog5:
            converted = {pdp_to_pea(X) for X in entry.structures}
            assert len(converted) == len(entry.structures)


class TestCommittedResultsFile:
    def test_regeneration_matches_the_committed_catalog(self, tmp_path):
        from pathlib import Path

        committed = Path(__file__).resolve().parent.parent / "catalog.json"
        regenerated = tmp_path / "catalog.json"
        io.write_json(regenerated, catalog_to_obj(build_catalog(6), 6))
        assert regenerated.read_text() == committed.read_text()


class TestSmallestNoncommutative:
    """The noncommutative-witness record of catalog_to_obj names a smallest
    noncommutative structure, since catalog entries come in order of n."""

    def test_none_up_to_two(self):
        obj = catalog_to_obj(build_catalog(2), 2)
        assert obj["noncommutative"] == {"limit": 2, "found": False}

    def test_none_up_to_four(self):
        obj = catalog_to_obj(build_catalog(4), 4)
        assert obj["noncommutative"] == {"limit": 4, "found": False}

    def test_found_at_five(self):
        obj = catalog_to_obj(build_catalog(5), 5)
        record = obj["noncommutative"]
        assert record["found"] and record["size"] == 5
        entry = next(e for e in obj["entries"]
                     if {"plus": record["plus"]} in e["structures"])
        witness = io.parse_structure(
            {"elements": entry["elements"], "covers": entry["covers"],
             "plus": record["plus"]}, "witness"
        )
        assert check_pea(witness).ok
        assert not is_commutative(witness)
        # the witness pairs the three atoms cyclically
        idx = {lab: i for i, lab in enumerate(witness.labels)}
        a, b, c, one = idx["a"], idx["b"], idx["c"], idx["1"]
        assert witness.plus[a][b] == one and witness.plus[b][a] is None
        assert witness.plus[b][c] == one and witness.plus[c][b] is None
        assert witness.plus[c][a] == one and witness.plus[a][c] is None


class TestDifferenceForm:
    """Catalog entries hold the difference tables the search builds.  The
    lemmas that let the catalog skip a second conversion hold for every
    structure up to seven elements."""

    @pytest.fixture(scope="class")
    def pdps7(self):
        return catalog_pdps(7)

    def test_commutative_iff_the_two_tables_agree(self, pdps7):
        # noncommutative_record reads is_dposet
        assert len(pdps7) == 48 + 138
        for X in pdps7:
            assert is_dposet(X) == is_commutative(pdp_to_pea(X))
        assert sum(not is_dposet(X) for X in pdps7) == 16 + 96

    def test_addition_object_is_read_from_the_slash_table(self, pdps7):
        for X in pdps7:
            assert catalog._plus_obj(X) == io.table_obj(pdp_to_pea(X).plus, X.labels)

    def test_conversion_round_trip_returns_the_search_structure(self, pdps7):
        # so hom-set keys and hashes are those of converted structures
        for X in pdps7:
            Y = pea_to_pdp(pdp_to_pea(X))
            assert Y == X and hash(Y) == hash(X)


def test_searches_leave_no_cyclic_garbage():
    """Each recursive search unbinds itself after its top-level call, so
    reference counting frees its state and the cycle collector finds
    nothing, also after a search stopped at its first hit; emitting the
    catalog leaves nothing either."""
    gc.collect()
    gc.disable()
    try:
        entries = build_catalog(6)
        assert gc.collect() == 0
        io.dumps(catalog_to_obj(entries, 6))
        assert gc.collect() == 0
        enumerate_posets(6)
        assert gc.collect() == 0
        pdps = catalog_pdps(4)
        gc.collect()
        for X in pdps:
            for Y in pdps:
                enumerate_pdp_morphisms(X, Y)
        assert gc.collect() == 0
        D = diamond()
        dual = Poset(D.labels, D.down)
        gc.collect()
        # two dual automorphisms, both listed; then the first of two
        # automorphisms, with the search stopped there
        assert len(list(isomorphisms(D, dual, D.down[D.top]))) == 2
        assert gc.collect() == 0
        assert find_isomorphism(D, D).map == (0, 1, 2, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
