import argparse
import gc
import json
from pathlib import Path

import pytest

from helpers import (
    c2, c3, c3_pea, c4, c4_pea, count_builds, d4_hsum, d4_ortho, diamond,
    glued,
)
from pealab import (
    HomSets, PDPMorphism, Poset, catalog, cli, io, pdp_to_pea, pea_to_pdp,
    verify_coequalizer_psdpos,
)
from pealab.cli import main
from pealab.io import dumps, save_structure, structure_to_obj
from pealab.plmaps import pl_map
from pealab.reports import Report, Violation
from pealab.io import plmap_to_obj


SAMPLES = Path(__file__).resolve().parent.parent / "samples"
COLLAPSE_FORK = str(SAMPLES / "collapse_fork.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.json"
    save_structure(c3_pea(), path)
    return str(path)


class TestCheck:
    def test_valid_pea_passes(self, capsys, c3_file):
        code, out = run(capsys, "check", "--pea", c3_file)
        assert code == 0
        assert out.rstrip().endswith("RESULT: PASS check")

    def test_pe4_violation_fails_with_named_axiom(self, capsys, tmp_path):
        obj = structure_to_obj(c3_pea())
        obj["plus"]["1,1"] = "1"
        path = write_json(tmp_path, "broken.json", obj)
        code, out = run(capsys, "check", "--pea", path)
        assert code == 1
        assert "PE4 violated at a=1" in out
        assert out.rstrip().endswith("RESULT: FAIL check")

    def test_pea_violations_are_printed_in_report_order(self, capsys, tmp_path):
        # PE1 broken both ways, with a+(b+c) undefined and with (a+b)+c
        # undefined or another element; PE2; PE3 on both sides; and an
        # induced relation whose top is not above a
        path = write_json(tmp_path, "broken.json", {
            "elements": ["0", "a", "b", "1"],
            "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
            "plus": {"0,0": "0", "0,a": "a", "0,b": "b", "0,1": "1",
                     "a,0": "a", "b,0": "b", "1,0": "1",
                     "a,b": "a", "b,a": "1", "b,b": "a"},
        })
        json_path = tmp_path / "report.json"
        code, out = run(capsys, "check", "--pea", path, "--json", str(json_path))
        assert code == 1
        assert out.splitlines() == [
            "PE1 violated at a=a, b=b, c=b: (a+b)+c exists but a+(b+c) does not",
            "PE1 violated at a=b, b=a, c=b: a+(b+c) exists but (a+b)+c does not"
            " match it",
            "PE1 violated at a=b, b=b, c=b: a+(b+c) exists but (a+b)+c does not"
            " match it",
            "PE2 violated at a=a: 0 elements d satisfy a+d=1",
            "PE2 violated at a=b: 0 elements e satisfy e+a=1",
            "PE3 violated at a=b, b=a: no d with d+a = a+b",
            "PE3 violated at a=b, b=a: no e with b+e = a+b",
            "order violated at a=a: top is not above this element",
            "RESULT: FAIL check",
        ]
        [report] = json.loads(json_path.read_text())["reports"]
        assert [(v["rule"], v["at"], v["detail"]) for v in report["violations"]] == [
            ("PE1", {"a": "a", "b": "b", "c": "b"},
             "(a+b)+c exists but a+(b+c) does not"),
            ("PE1", {"a": "b", "b": "a", "c": "b"},
             "a+(b+c) exists but (a+b)+c does not match it"),
            ("PE1", {"a": "b", "b": "b", "c": "b"},
             "a+(b+c) exists but (a+b)+c does not match it"),
            ("PE2", {"a": "a"}, "0 elements d satisfy a+d=1"),
            ("PE2", {"a": "b"}, "0 elements e satisfy e+a=1"),
            ("PE3", {"a": "b", "b": "a"}, "no d with d+a = a+b"),
            ("PE3", {"a": "b", "b": "a"}, "no e with b+e = a+b"),
            ("order", {"a": "a"}, "top is not above this element"),
        ]

    def test_cycle_fails_as_violation(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "cyc.json",
            {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]},
        )
        code, out = run(capsys, "check", "--bposet", path)
        assert code == 1
        assert "cycle" in out

    def test_violation_exit_writes_the_json_record(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "cyc.json",
            {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]},
        )
        json_path = tmp_path / "report.json"
        code, _ = run(capsys, "check", "--bposet", path,
                      "--json", str(json_path))
        assert code == 1
        payload = json.loads(json_path.read_text())
        assert payload["verb"] == "check"
        assert payload["ok"] is False and payload["exit"] == 1
        assert payload["error"]["kind"] == "InvalidStructure"
        assert "cycle" in payload["error"]["message"]

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, out = run(capsys, "check", "--pea", str(path))
        assert code == 2

    def test_schema_mismatch_exits_two(self, capsys, tmp_path):
        path = write_json(tmp_path, "odd.json",
                          {"elements": ["0"], "covers": [], "bogus": []})
        code, _ = run(capsys, "check", "--bposet", path)
        assert code == 2

    def test_declared_covers_must_match_the_addition(self, capsys, tmp_path):
        obj = structure_to_obj(c3_pea())
        obj["covers"] = [["0", "a"], ["a", "1"], ["0", "1"]]  # redundant, fine
        path = write_json(tmp_path, "c3.json", obj)
        code, _ = run(capsys, "check", "--pea", path)
        assert code == 0
        obj["elements"] = ["0", "a", "b", "1"]
        obj["covers"] = [["0", "a"], ["a", "1"], ["0", "b"], ["b", "1"]]
        path = write_json(tmp_path, "wrong.json", obj)
        code, out = run(capsys, "check", "--pea", path)
        # b has no sums, so the induced relation is no order: its order
        # lines already say that it is not the declared one
        assert code == 1 and "declared covers disagree" not in out
        code, out = run(capsys, "convert", path, "--to", "pdp")
        assert code == 1 and f"{path} fails check_pea: PE2 violated" in out
        hsum = json.loads((SAMPLES / "d4_hsum.json").read_text())
        hsum["covers"] = [["0", "a"], ["a", "b"], ["b", "1"]]
        path = write_json(tmp_path, "chain.json", hsum)
        assert run(capsys, "check", "--pea", path) == (1, (
            "order violated: declared covers disagree with the order "
            "induced by the addition\nRESULT: FAIL check\n"))

    def test_pdp_check(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        save_structure(pea_to_pdp(c3_pea()), path)
        code, out = run(capsys, "check", "--pdp", str(path))
        assert code == 0

    def test_plmap_check(self, capsys, tmp_path):
        good = write_json(tmp_path, "good.json",
                          plmap_to_obj(pl_map((1,), (2, 1))))
        bad = write_json(tmp_path, "bad.json", plmap_to_obj(pl_map((), (3,))))
        assert run(capsys, "check", "--plmap", good)[0] == 0
        code, out = run(capsys, "check", "--plmap", bad)
        assert code == 1 and "band violated" in out

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe\x00bad", "is not UTF-8 text: "),
        (b"[" * 200_000 + b"]" * 200_000, "nests JSON too deeply to read"),
    ], ids=["not-utf8", "too-deep"])
    def test_unreadable_input_exits_two_with_a_record(
        self, capsys, tmp_path, content, message
    ):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        json_path = tmp_path / "o.json"
        code, out = run(capsys, "check", "--pea", str(path),
                        "--json", str(json_path))
        assert code == 2
        assert out.startswith(f"error: {path} {message}")
        assert out.endswith("RESULT: FAIL check\n")
        payload = json.loads(json_path.read_text())
        assert payload["ok"] is False and payload["exit"] == 2
        assert payload["error"]["kind"] == "FormatError"


    @pytest.mark.parametrize("flag, sample, kind", [
        ("--pea", "d4_hsum_pdp.json", "an addition table"),
        ("--pdp", "d4_hsum.json", "difference tables"),
    ])
    def test_structure_without_the_checked_tables_exits_two(
        self, capsys, flag, sample, kind
    ):
        path = str(SAMPLES / sample)
        assert run(capsys, "check", flag, path) == (
            2, f"error: {path} does not carry {kind}\nRESULT: FAIL check\n")

    @pytest.mark.parametrize("table, code, report", [
        ({"0": "0", "x": "x", "y": "y", "1": "1"}, 0, "RESULT: PASS check\n"),
        ({"0": "0", "x": "y", "y": "x", "1": "1"}, 1,
         "isotone violated at x=x, y=y: images y and x are not related\n"
         "RESULT: FAIL check\n"),
    ], ids=["identity", "swap"])
    def test_morphism_check_reports_each_violation(
        self, capsys, tmp_path, table, code, report
    ):
        save_structure(c4_pea(), tmp_path / "chain.json")
        m = write_json(tmp_path, "m.json", {
            "source": "chain.json", "target": "chain.json", "map": table})
        assert run(capsys, "check", "--morphism", m) == (code, report)

    @pytest.mark.parametrize("table, line", [
        ({"0": "a", "a": "a", "1": "1"}, "zero violated at element=0: "
                                         "zero not preserved"),
        ({"0": "0", "a": "a", "1": "a"}, "one violated at element=1: "
                                         "one not preserved"),
    ], ids=["zero", "one"])
    def test_pea_morphism_that_moves_a_bound_names_the_rule(
        self, capsys, tmp_path, table, line
    ):
        c3_path = str(SAMPLES / "c3.json")
        m = write_json(tmp_path, "m.json",
                       {"source": c3_path, "target": c3_path, "map": table})
        code, out = run(capsys, "check", "--pea-morphism", m)
        assert code == 1 and line in out.splitlines()
        assert out.endswith("RESULT: FAIL check\n")


@pytest.mark.parametrize(
    "argv", [("check", "--pea", "{}"), ("convert", "{}", "--to", "pdp"),
             ("iso", "{}", "{}"), ("hom", "{}", "{}"), ("product", "{}", "{}")],
    ids=["check", "convert", "iso", "hom", "product"],
)
def test_input_is_read_once(capsys, monkeypatch, c3_file, argv):
    calls = []
    load_json = io.load_json

    def counting(path):
        calls.append(path)
        return load_json(path)

    monkeypatch.setattr(io, "load_json", counting)
    code, _ = run(capsys, *(a.format(c3_file) for a in argv))
    assert code == 0
    assert calls == [c3_file]


@pytest.mark.parametrize("verb", ["equalize", "coequalize"])
def test_structure_a_morphism_names_is_read_once(
    capsys, monkeypatch, tmp_path, c3_file, verb
):
    m = write_json(tmp_path, "m.json", {"source": c3_file, "target": c3_file,
                                        "map": {"0": "0", "a": "a", "1": "1"}})
    reads, load = [], io.load_json
    monkeypatch.setattr(io, "load_json", lambda p: reads.append(str(p)) or load(p))
    assert run(capsys, verb, m, m)[0] == 0
    # the morphism file, named twice, is read once as well
    assert reads == [m, c3_file]


@pytest.mark.parametrize("verb", ["--morphism", "--pea-morphism"])
def test_map_naming_an_element_outside_the_source_exits_two(
    capsys, tmp_path, verb
):
    c3_path = str(SAMPLES / "c3.json")
    path = write_json(tmp_path, "m.json", {
        "source": c3_path, "target": c3_path,
        "map": {"0": "0", "a": "a", "1": "1", "zzz": "0"}})
    message = f"{path} map names 'zzz', which is not a source element"
    assert run(capsys, "check", verb, path) == (
        2, f"error: {message}\nRESULT: FAIL check\n")


SWAP = {"0": "0", "x": "y", "y": "x", "1": "1"}


@pytest.mark.parametrize("table, violation", [
    (SWAP, "isotone violated at x=x, y=y: images y and x are not related"),
    ({"0": "0", "x": "x", "y": "x", "1": "1"},
     "slash violated at b=y, a=x: f(b/a) differs from f(b)/f(a)"),
], ids=["swap", "squash"])
def test_equalize_rejects_maps_that_are_not_morphisms(
    capsys, tmp_path, table, violation
):
    # the 4-chain with x+x = y: neither map preserves the differences, so
    # the equalizer of a map with itself is no answer; the error names
    # the file and its first violation
    save_structure(c4_pea(), tmp_path / "chain.json")
    m = write_json(tmp_path, "m.json",
                   {"source": "chain.json", "target": "chain.json", "map": table})
    assert run(capsys, "equalize", m, m) == (
        1, f"error: {m} fails check_pdp_morphism: {violation}\n"
           "RESULT: FAIL equalize\n")


def test_coequalize_names_a_map_that_is_not_a_morphism(capsys, tmp_path):
    # exchanging x and y of the 4-chain 0 < x < y < 1 is not isotone
    save_structure(c4_pea(), tmp_path / "chain.json")
    chain = {"source": "chain.json", "target": "chain.json"}
    ident = write_json(tmp_path, "id.json",
                       dict(chain, map={x: x for x in ("0", "x", "y", "1")}))
    swap = write_json(tmp_path, "swap.json", dict(chain, map=SWAP))
    assert run(capsys, "coequalize", ident, swap) == (
        1, f"error: {swap} fails morphism: isotone violated at x=x, y=y: "
           "images y and x are not related\nRESULT: FAIL coequalize\n")


class TestConvert:
    def test_round_trip_is_byte_identical(self, capsys, tmp_path, c3_file):
        pdp_path = str(tmp_path / "c3_pdp.json")
        pea_path = str(tmp_path / "c3_back.json")
        assert run(capsys, "convert", c3_file, "--to", "pdp",
                   "-o", pdp_path)[0] == 0
        assert run(capsys, "convert", pdp_path, "--to", "pea",
                   "-o", pea_path)[0] == 0
        normalized = dumps(structure_to_obj(c3_pea()))
        assert (tmp_path / "c3_back.json").read_text() == normalized

    def test_plain_poset_cannot_convert(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_structure(c3(), path)
        code, _ = run(capsys, "convert", str(path), "--to", "pdp")
        assert code == 2

    def test_interval_dump(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_structure(c2(), path)
        out_path = str(tmp_path / "i.json")
        code, _ = run(capsys, "convert", str(path), "--to", "interval",
                      "-o", out_path)
        assert code == 0
        produced = json.loads((tmp_path / "i.json").read_text())
        assert produced["elements"] == ["[0,0]", "[0,1]", "[1,1]"]
        assert sorted(map(tuple, produced["covers"])) == [
            ("[0,0]", "[0,1]"), ("[1,1]", "[0,1]"),
        ]

    def test_triple_dump(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_structure(c2(), path)
        code, out = run(capsys, "convert", str(path), "--to", "triple")
        assert code == 0
        assert "triple poset on 4 elements" in out


class TestStructureVerbs:
    def test_product(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        save_structure(c2(), a)
        out_path = str(tmp_path / "prod.json")
        code, out = run(capsys, "product", str(a), str(a), "-o", out_path)
        assert code == 0
        produced = json.loads((tmp_path / "prod.json").read_text())
        assert len(produced["elements"]) == 4

    def test_coequalize(self, capsys, tmp_path):
        A = structure_to_obj(c4())
        B = structure_to_obj(c3())
        f = {"source": A, "target": B,
             "map": {"0": "0", "x": "a", "y": "a", "1": "1"}}
        g = {"source": A, "target": B,
             "map": {"0": "0", "x": "0", "y": "a", "1": "1"}}
        fp = write_json(tmp_path, "f.json", f)
        gp = write_json(tmp_path, "g.json", g)
        code, out = run(capsys, "coequalize", fp, gp)
        assert code == 0
        assert "a->0" in out

    def test_equalize(self, capsys, tmp_path):
        X = pea_to_pdp(d4_hsum())
        obj = structure_to_obj(X)
        ident = {"source": obj, "target": obj,
                 "map": {lab: lab for lab in X.labels}}
        swap = {"source": obj, "target": obj,
                "map": {"0": "0", "a": "b", "b": "a", "1": "1"}}
        fp = write_json(tmp_path, "id.json", ident)
        gp = write_json(tmp_path, "swap.json", swap)
        code, out = run(capsys, "equalize", fp, gp)
        assert code == 0
        assert "{0, 1}" in out

    def test_hom_counts(self, capsys, tmp_path):
        src = tmp_path / "c3.json"
        dst = tmp_path / "c2.json"
        save_structure(c3(), src)
        save_structure(c2(), dst)
        code, out = run(capsys, "hom", str(src), str(dst))
        assert code == 0
        assert "2 bound-preserving isotone maps" in out

    def test_iso_found_and_not(self, capsys, tmp_path):
        d = tmp_path / "d.json"
        p = tmp_path / "p.json"
        save_structure(diamond(), d)
        save_structure(c3(), p)
        assert run(capsys, "iso", str(d), str(d))[0] == 0
        code, out = run(capsys, "iso", str(d), str(p))
        assert code == 1
        assert "not isomorphic" in out


class TestEnumerate:
    def test_counts_and_output_file(self, capsys, tmp_path):
        out_path = str(tmp_path / "catalog.json")
        code, out = run(capsys, "enumerate", "--n", "4", "--structures",
                        "-o", out_path)
        assert code == 0
        assert "structure counts [2, 1]" in out
        data = json.loads((tmp_path / "catalog.json").read_text())
        assert data["max_n"] == 4
        assert data["noncommutative"]["found"] is False

    def test_size_cap_exits_two(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "11")
        assert code == 2
        assert "RESULT: FAIL enumerate" in out

    def test_eight_elements_need_no_setting(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code, out = run(capsys, "enumerate", "--n", "8", "--structures",
                        "--json", str(json_path))
        assert code == 0
        assert out.rstrip().endswith("RESULT: PASS enumerate")
        last = json.loads(json_path.read_text())["summary"][-1]
        assert last["n"] == 8
        assert last["classes"] == 318 and sum(last["structures"]) == 836

    def test_oversized_n_is_named_and_recorded(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code, out = run(capsys, "enumerate", "--n", "99", "--structures",
                        "--json", str(json_path))
        assert code == 2
        assert out.startswith("error: n=99 exceeds 10, the largest carrier "
                              "the catalog can label\n")
        assert out.rstrip().endswith("RESULT: FAIL enumerate")
        payload = json.loads(json_path.read_text())
        assert payload == {
            "verb": "enumerate",
            "ok": False,
            "exit": 2,
            "error": {"kind": "LimitExceeded",
                      "message": out.splitlines()[0][len("error: "):]},
        }

    def test_size_past_the_label_alphabet_exits_two(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code, out = run(capsys, "enumerate", "--n", "11", "--json", str(json_path))
        assert code == 2
        message = "n=11 exceeds 10, the largest carrier the catalog can label"
        assert out == f"error: {message}\nRESULT: FAIL enumerate\n"
        payload = json.loads(json_path.read_text())
        assert payload == {
            "verb": "enumerate",
            "ok": False,
            "exit": 2,
            "error": {"kind": "LimitExceeded", "message": message},
        }

    def test_json_records_each_generated_level(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code, out = run(capsys, "enumerate", "--n", "7", "--json", str(json_path))
        assert code == 0
        assert out.splitlines()[-2:] == [
            "n=7: 63 bounded-poset classes", "RESULT: PASS enumerate",
        ]
        payload = json.loads(json_path.read_text())
        fields = ("n", "down_sets", "skipped", "canonical_forms", "classes")
        assert [tuple(r[f] for f in fields) for r in payload["generation"]] == [
            (3, 1, 0, 1, 1),
            (4, 2, 0, 2, 2),
            (5, 7, 1, 6, 5),
            (6, 28, 7, 21, 16),
            (7, 135, 44, 91, 63),
        ]
        assert all(len(r) == len(fields) for r in payload["generation"])

    def test_json_records_what_the_structure_search_skipped(
        self, capsys, tmp_path
    ):
        json_path = tmp_path / "report.json"
        argv = ["enumerate", "--n", "6", "--json", str(json_path)]
        assert run(capsys, *argv)[0] == 0
        assert "search" not in json.loads(json_path.read_text())
        assert run(capsys, *argv, "--structures")[0] == 0
        assert json.loads(json_path.read_text())["search"] == {
            "prefiltered": 10, "no_dual_automorphism": 1, "searched": 15,
            "rechecked": 48, "recheck_failed": 0,
        }

    def test_a_table_the_recheck_rejects_is_dropped_and_counted(
        self, capsys, monkeypatch, tmp_path
    ):
        # by its lemma the re-check passes every table the search builds,
        # so a stand-in rejects the first table it sees on four elements
        check_pea, rejected = catalog.check_pea, []

        def rejecting(A):
            if A.n == 4 and not rejected:
                rejected.append(A.plus)
                return Report("check_pea", (Violation("PE1", (), "rejected"),))
            return check_pea(A)

        def tables(search=None):
            found = catalog.enumerate_pea_structures(diamond(), search)
            return [pdp_to_pea(X).plus for X in found]

        json_path = tmp_path / "report.json"
        argv = ["enumerate", "--n", "4", "--structures", "--json", str(json_path)]
        kept = tables()
        assert run(capsys, *argv)[0] == 0
        before = json.loads(json_path.read_text())
        monkeypatch.setattr(catalog, "check_pea", rejecting)
        search = catalog.search_counts()
        assert tables(search) == [t for t in kept if t not in rejected]
        assert len(rejected) == 1 and rejected[0] in kept
        assert search["recheck_failed"] == 1
        assert search["rechecked"] == len(kept)
        rejected.clear()
        assert run(capsys, *argv)[0] == 0
        after = json.loads(json_path.read_text())
        assert after["search"] == dict(before["search"], recheck_failed=1)
        counted = [sum(r["structures"]) for r in (before, after)
                   for r in r["summary"] if r["n"] == 4]
        assert counted[1] == counted[0] - 1

    def test_nonpositive_n_exits_two(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "0")
        assert code == 2
        assert out.startswith("error: ")
        assert out.rstrip().endswith("RESULT: FAIL enumerate")

    def test_classes_only_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "classes.json"
        code, _ = run(capsys, "enumerate", "--n", "5", "-o", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        committed = json.loads(
            (Path(__file__).resolve().parent.parent / "catalog.json").read_text()
        )
        assert data["schema"] == committed["schema"]
        assert data["max_n"] == 5
        assert "noncommutative" not in data
        assert data["entries"] == [
            {k: v for k, v in entry.items()
             if k not in ("structure_count", "structures")}
            for entry in committed["entries"]
            if entry["n"] <= 5
        ]

    def test_unwritable_json_exits_two_without_a_pass(self, capsys, tmp_path):
        json_path = tmp_path / "missing" / "report.json"
        code, out = run(capsys, "enumerate", "--n", "3",
                        "--json", str(json_path))
        assert code == 2
        assert out.startswith(f"error: cannot write {json_path}: ")
        assert out.count("error: ") == 1
        assert "RESULT: PASS" not in out
        assert out.rstrip().endswith("RESULT: FAIL enumerate")
        assert not json_path.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--n", "5"),
     ("enumerate", "--n", "5", "--structures"),
     ("verify-coeq", "--generate", "3")],
    ids=["enumerate", "enumerate-structures", "verify-coeq"],
)
def test_each_verb_generates_the_classes_once(capsys, monkeypatch, argv):
    # one pass grows every level, so no verb asks for a size twice
    sizes = []
    generate = catalog.enumerate_posets

    def counting(m, generation=None):
        sizes.append(m)
        return generate(m, generation)

    monkeypatch.setattr(catalog, "enumerate_posets", counting)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert sizes == [3]


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--n", "6", "--structures", "-o", "catalog.json"),
     ("verify-coeq", "--generate", "120", "--seed", "2024",
      "--max-target-n", "5"),
     ("enumerate", "--n", "7")],
    ids=["catalog6", "coeq5", "classes7"],
)
def test_benchmark_verbs_leave_no_cyclic_garbage(capsys, tmp_path, argv):
    # the verbs as the benchmark runs them, each with a --json report; the
    # first run builds what a process keeps, such as the parser
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg
            for arg in argv] + ["--json", str(tmp_path / "report.json")]
    assert run(capsys, *argv)[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("structures", [(), ("--structures",)])
def test_enumerate_builds_the_catalog_object_only_for_a_file(
    capsys, monkeypatch, tmp_path, structures
):
    built = []
    to_obj = cli.catalog_to_obj

    def counting(entries, max_n):
        built.append(max_n)
        return to_obj(entries, max_n)

    monkeypatch.setattr(cli, "catalog_to_obj", counting)
    assert run(capsys, "enumerate", "--n", "4", *structures)[0] == 0
    assert built == []
    path = tmp_path / "catalog.json"
    assert run(capsys, "enumerate", "--n", "4", *structures, "-o", str(path))[0] == 0
    assert built == [4] and path.exists()


@pytest.mark.parametrize("output", [False, True])
def test_enumerate_computes_the_noncommutative_record_once(
    capsys, monkeypatch, tmp_path, output
):
    # the written catalog and the summary line share one record
    calls = []
    record = catalog.noncommutative_record

    def counting(entries, max_n):
        calls.append(max_n)
        return record(entries, max_n)

    monkeypatch.setattr(catalog, "noncommutative_record", counting)
    monkeypatch.setattr(cli, "noncommutative_record", counting)
    argv = ["enumerate", "--n", "5", "--structures"]
    if output:
        argv += ["-o", str(tmp_path / "catalog.json")]
    code, out = run(capsys, *argv)
    assert code == 0 and calls == [5]
    assert "smallest noncommutative structure has 5 elements" in out


def test_verify_coeq_builds_the_interval_rows_once_per_b(capsys, monkeypatch):
    # B is a catalog structure shared by many forks; each fork's Q is a new
    # poset and builds its own rows, once
    built = count_builds(monkeypatch, Poset, "interval_rows")
    forks = []
    check = cli.i_preserves_fork

    def recording(fork):
        forks.append(fork)
        return check(fork)

    monkeypatch.setattr(cli, "i_preserves_fork", recording)
    code, _ = run(capsys, "verify-coeq", "--generate", "120",
                  "--max-target-n", "5")
    assert code == 0 and len(forks) == 120
    distinct = {id(fork.B) for fork in forks}
    assert len(distinct) < len(forks)
    quotients = {id(fork.Q) for fork in forks}
    assert len(quotients) == len(forks) and not quotients & distinct
    assert sorted(map(id, built)) == sorted(distinct | quotients)


FORK_VERBS = {
    "transfer": ["transfer", "--fork", "{fork}"],
    "verify-coeq": ["verify-coeq", "--fork", "{fork}", "--max-target-n", "3"],
    "check": ["check", "--fork", "{fork}"],
}


@pytest.mark.parametrize(
    "verb, pea",
    [(verb, False) for verb in FORK_VERBS] + [(verb, True) for verb in FORK_VERBS],
    ids=[*FORK_VERBS, *(f"{verb}-pea" for verb in FORK_VERBS)],
)
def test_fork_ends_are_read_and_checked_once(
    capsys, monkeypatch, tmp_path, verb, pea
):
    # all eight ends of the fork's arrows name one structure file: it is
    # read and checked once, and an addition table is converted once
    end = str(SAMPLES / ("d4_hsum.json" if pea else "d4_hsum_pdp.json"))
    fork = str(tmp_path / "fork.json")
    text = Path(COLLAPSE_FORK).read_text()
    Path(fork).write_text(text.replace('"d4_hsum_pdp.json"', json.dumps(end)))
    reads, load = [], io.load_json
    monkeypatch.setattr(io, "load_json", lambda p: reads.append(str(p)) or load(p))
    calls = {name: [] for name in ("check_pea", "check_pdp", "pea_to_pdp",
                                   "pdp_to_pea")}
    for name, seen in calls.items():
        monkeypatch.setattr(cli, name, lambda X, f=getattr(cli, name), seen=seen:
                            seen.append(X) or f(X))
    assert run(capsys, *(a.format(fork=fork) for a in FORK_VERBS[verb]))[0] == 0
    assert reads == [fork, end]
    # check --fork takes only the orders, the other two verbs the differences
    assert {name: len(seen) for name, seen in calls.items()} == {
        "check_pea": int(pea), "check_pdp": int(not pea),
        "pea_to_pdp": int(pea and verb != "check"), "pdp_to_pea": 0,
    }


COLLAPSE = {"0": "0", "a": "a", "b": "a", "1": "1"}
SQUASH = {"0": "0", "a": "0", "b": "0", "1": "1"}
TWO = {"elements": ["0", "1"], "covers": [["0", "1"]]}


class TestTransferVerbs:
    def _fork_bundle(self, tmp_path, edits=()):
        """The collapse fork on the horizontal-sum diamond, each arrow named
        in edits updated with its fields there."""
        X = pea_to_pdp(d4_hsum())
        obj = structure_to_obj(X)
        quotient = {
            "elements": ["0", "a", "1"],
            "covers": [["0", "a"], ["a", "1"]],
        }
        ident = {lab: lab for lab in X.labels}
        fork = {
            "f": {"source": obj, "target": obj, "map": ident},
            "g": {"source": obj, "target": obj, "map": COLLAPSE},
            "q": {"source": obj, "target": quotient, "map": COLLAPSE},
            "s": {"source": quotient, "target": obj,
                  "map": {"0": "0", "a": "a", "1": "1"}},
            "t": {"source": obj, "target": obj, "map": ident},
        }
        for name in edits:
            fork[name].update(edits[name])
        return write_json(tmp_path, "fork.json", fork)

    def test_check_fork(self, capsys, tmp_path):
        path = self._fork_bundle(tmp_path)
        code, out = run(capsys, "check", "--fork", path)
        assert code == 0
        assert "hold" in out

    def test_transfer_writes_the_quotient_structure(self, capsys, tmp_path):
        path = self._fork_bundle(tmp_path)
        out_path = str(tmp_path / "q.json")
        code, out = run(capsys, "transfer", "--fork", path, "-o", out_path)
        assert code == 0
        produced = json.loads((tmp_path / "q.json").read_text())
        assert produced["slash"]["1,a"] == "a"

    def test_transfer_record_holds_its_report(self, capsys, tmp_path):
        json_path = tmp_path / "transfer.json"
        argv = ("transfer", "--fork", COLLAPSE_FORK, "--json", str(json_path))
        assert run(capsys, *argv)[0] == 0
        assert json.loads(json_path.read_text())["reports"] == [{
            "subject": "transfer", "ok": True, "violations": [],
            "notes": ["verified commutation of / and \\ over 9 source intervals",
                      "transferred structure passes the axioms",
                      "quotient map preserves both differences"],
        }]

    @pytest.mark.parametrize("verb", ["transfer", "verify-coeq"])
    @pytest.mark.parametrize("edits, message", [
        # g starts at another structure on the same diamond, so the fork's
        # posets fit and only the pseudo D-posets differ
        ({"g": {"source": structure_to_obj(pea_to_pdp(d4_ortho()))}},
         "the parallel pair does not share its boundaries"),
        # g sends a and b to 0, but a = 1/a maps to 0, not to 1/0 = 1
        ({"g": {"map": SQUASH}, "q": {"target": TWO, "map": SQUASH},
          "s": {"source": TWO, "map": {"0": "0", "1": "1"}}},
         "fork invalid: the parallel pair must preserve the differences"),
        # f o t is the collapse, not the identity
        ({"t": {"map": COLLAPSE}},
         "fork invalid: the split-fork equations fail"),
    ], ids=["unshared-ends", "not-difference-preserving", "not-split"])
    def test_invalid_fork_exits_one_naming_the_fault(
        self, capsys, tmp_path, edits, message, verb
    ):
        path = self._fork_bundle(tmp_path, edits)
        assert run(capsys, verb, "--fork", path) == (
            1, f"error: {message}\nRESULT: FAIL {verb}\n")

    def test_verify_coeq_on_the_bundle(self, capsys, tmp_path):
        path = self._fork_bundle(tmp_path)
        code, out = run(capsys, "verify-coeq", "--fork", path,
                        "--max-target-n", "3")
        assert code == 0
        assert "failures: 0" in out

    def test_verify_coeq_generated(self, capsys, tmp_path):
        json_path = str(tmp_path / "report.json")
        code, out = run(capsys, "verify-coeq", "--generate", "5",
                        "--seed", "1", "--max-source-n", "4",
                        "--max-target-n", "3", "--json", json_path)
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["forks"] == 5 and payload["failures"] == 0

    def test_verify_coeq_benchmark_command(self, capsys, tmp_path):
        json_path = str(tmp_path / "report.json")
        code, out = run(capsys, "verify-coeq", "--generate", "120",
                        "--seed", "2024", "--max-target-n", "5",
                        "--json", json_path)
        assert code == 0
        assert out.rstrip().endswith("RESULT: PASS verify-coeq")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["forks"] == 120 and payload["failures"] == 0
        assert payload["targets"] == 14
        # every fork's report is recorded, passing ones included
        assert len(payload["reports"]) == 120
        assert all(r["ok"] and len(r["notes"]) == 2 for r in payload["reports"])
        # forks drawn from a pool of 108 repeat: 73 distinct (B, q', glued
        # pairs) are verified, each with one lookup per target for the maps
        # out of B; plus one endomorphism set per source, 14 + 14 * 73
        # lookups of 157 distinct (source, target) pairs
        assert payload["verified_instances"] == 73
        assert payload["hom_sets"] == {"lookups": 1036, "enumerated": 157}
        # a second run in the same process enumerates as much again:
        # no hom set survives from one invocation to the next
        code, _ = run(capsys, "verify-coeq", "--generate", "120",
                      "--seed", "2024", "--max-target-n", "5",
                      "--json", json_path)
        assert code == 0
        again = json.loads((tmp_path / "report.json").read_text())
        assert again["hom_sets"] == payload["hom_sets"]
        assert again["verified_instances"] == 73

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_verify_coeq_shares_reports_only_where_they_are_equal(
        self, capsys, monkeypatch, tmp_path, pdps5, seed
    ):
        # a fork whose instance was verified before gets that report; each
        # equals the report of its own fresh verification
        triples, quotients = [], []
        generate, transfer = cli.generate_split_forks, cli.transfer_structure

        def generating(*args):
            triples.extend(generate(*args))
            return triples

        def transferring(*args):
            quotients.append(transfer(*args))
            return quotients[-1]

        monkeypatch.setattr(cli, "generate_split_forks", generating)
        monkeypatch.setattr(cli, "transfer_structure", transferring)
        json_path = tmp_path / "report.json"
        code, _ = run(capsys, "verify-coeq", "--generate", "120", "--seed",
                      str(seed), "--max-target-n", "5", "--json", str(json_path))
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["verified_instances"] < len(triples) == 120
        assert payload["reports"] == [
            verify_coequalizer_psdpos(q, glued(f, g), pdps5, HomSets()).to_obj()
            for (f, g, _), q in zip(triples, quotients)
        ]

    def test_verify_coeq_keys_each_report_by_glued_pairs_and_quotient(
        self, capsys, monkeypatch, tmp_path, pdps4
    ):
        # forks 0 and 1 share q' but not the glued pairs; forks 2 and 3
        # share B, Q' and the glued pairs but not q's table.  Each pair's
        # reports differ, so a key without the glued pairs or without q's
        # table would hand the second fork of a pair the first one's report
        X = pea_to_pdp(d4_hsum())
        [three] = [C for C in pdps4 if C.n == 3]
        ident = PDPMorphism(X, X, (0, 1, 2, 3))
        collapse = PDPMorphism(X, X, (0, 1, 1, 3))
        triples = [
            (ident, ident, ident),
            (ident, collapse, ident),
            (ident, ident, PDPMorphism(X, three, (0, 1, 1, 2))),
            (ident, ident, PDPMorphism(X, three, (0, 0, 1, 2))),
        ]
        # each triple's fork is its quotient q'
        monkeypatch.setattr(cli, "generate_split_forks", lambda *a: triples)
        monkeypatch.setattr(cli, "transfer_structure", lambda f, g, q: q)
        monkeypatch.setattr(cli, "i_preserves_fork", lambda q: True)
        json_path = tmp_path / "report.json"
        run(capsys, "verify-coeq", "--generate", "4", "--max-target-n", "4",
            "--json", str(json_path))
        payload = json.loads(json_path.read_text())
        fresh = [verify_coequalizer_psdpos(
            q, glued(f, g), pdps4, HomSets()).to_obj()
                 for f, g, q in triples]
        assert fresh[0] != fresh[1] and fresh[2] != fresh[3]
        assert payload["verified_instances"] == 4
        assert payload["reports"] == fresh

    def test_verify_coeq_records_each_fork_once(self, capsys, tmp_path,
                                                monkeypatch):
        # a fork whose interval check is made to fail is printed; every
        # fork, failing or not, gets exactly one report in the payload
        verdicts = iter([True, False, True])
        monkeypatch.setattr("pealab.cli.i_preserves_fork",
                            lambda fork: next(verdicts))
        json_path = str(tmp_path / "report.json")
        code, out = run(capsys, "verify-coeq", "--generate", "3",
                        "--seed", "1", "--max-source-n", "4",
                        "--max-target-n", "3", "--json", json_path)
        assert code == 1
        assert "fork #1: FAILED" in out
        assert "fork #1: interval construction does not preserve" in out
        assert "fork #0" not in out and "fork #2" not in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["failures"] == 1
        assert len(payload["reports"]) == 3
        assert all(r["subject"] == "verify-coeq" for r in payload["reports"])

    @pytest.mark.parametrize("argv", [
        pytest.param(["--generate", "0"], id="0"),
        pytest.param(["--generate", "-3"], id="-3"),
        pytest.param(["--generate", "5", "--max-target-n", "0"],
                     id="max-target-n=0"),
        pytest.param(["--generate", "5", "--max-target-n", "-2"],
                     id="max-target-n=-2"),
        pytest.param(["--generate", "5", "--max-source-n", "0"],
                     id="max-source-n=0"),
        pytest.param(["--fork", COLLAPSE_FORK, "--max-source-n", "0"],
                     id="fork-max-source-n=0"),
    ])
    def test_verify_coeq_nonpositive_count_exits_two(self, capsys, argv):
        code, out = run(capsys, "verify-coeq", *argv)
        assert code == 2
        assert out.startswith("error: ")
        assert "RESULT: PASS" not in out
        assert out.rstrip().endswith("RESULT: FAIL verify-coeq")

    def test_verify_coeq_fork_caps_only_the_target_size(self, capsys):
        # a fork file brings its own sources, so --max-source-n builds
        # nothing and is not held against the labels
        code, out = run(capsys, "verify-coeq", "--fork", COLLAPSE_FORK,
                        "--max-target-n", "4", "--max-source-n", "11")
        assert code == 0
        assert out.rstrip().endswith("RESULT: PASS verify-coeq")
        code, out = run(capsys, "verify-coeq", "--fork", COLLAPSE_FORK,
                        "--max-target-n", "11")
        assert code == 2
        assert out.startswith("error: n=11 exceeds 10, the largest carrier "
                              "the catalog can label\n")

    def test_verify_coeq_past_the_labels_builds_nothing(self, capsys,
                                                        monkeypatch):
        def unreachable(m, generation=None):
            raise AssertionError("classes enumerated past the size check")

        monkeypatch.setattr(catalog, "enumerate_posets", unreachable)
        code, out = run(capsys, "verify-coeq", "--generate", "1",
                        "--max-target-n", "11")
        assert code == 2
        assert out == ("error: n=11 exceeds 10, the largest carrier the "
                       "catalog can label\nRESULT: FAIL verify-coeq\n")


class TestWitness:
    def test_witness_verb(self, capsys, tmp_path):
        json_path = str(tmp_path / "w.json")
        code, out = run(capsys, "witness-noncomm", "--json", json_path)
        assert code == 0
        assert "RESULT: PASS witness-noncomm" in out
        payload = json.loads((tmp_path / "w.json").read_text())
        assert payload["violation"]["point"] == "3/4"

    def test_unwritable_output_exits_two_with_a_record(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "w.json"
        json_path = tmp_path / "w.json"
        code, out = run(capsys, "witness-noncomm", "-o", str(out_path),
                        "--json", str(json_path))
        assert code == 2
        assert out.startswith(f"error: cannot write {out_path}: ")
        assert out.rstrip().endswith("RESULT: FAIL witness-noncomm")
        payload = json.loads(json_path.read_text())
        assert payload["ok"] is False and payload["exit"] == 2
        assert payload["error"]["kind"] == "FormatError"
        assert payload["error"]["message"].startswith(
            f"cannot write {out_path}: ")


# Outputs of the commands on valid sample files, as they read before
# structures were checked where they enter; they must not change.
def _sample(name):
    return str(SAMPLES / name)


SAMPLE_OUTPUTS = [
    (["check", "--pea", _sample("c3.json")], 0,
     "pseudo effect algebra on 3 elements; commutative: True\n"),
    (["check", "--pdp", _sample("d4_hsum_pdp.json")], 0,
     "pseudo D-poset on 4 elements\n"),
    (["check", "--bposet", _sample("c3.json")], 0,
     "bounded poset on 3 elements (bottom 0, top 1)\n"),
    (["check", "--plmap", _sample("steep_map.json")], 1,
     "band violated: value 5 at x = 2 escapes [2, 4]\n"),
    (["check", "--fork", COLLAPSE_FORK], 0, "split-fork equations hold\n"),
    (["convert", _sample("d4_hsum_pdp.json"), "--to", "pea"], 0,
     (SAMPLES / "d4_hsum.json").read_text()),
    (["convert", _sample("d4_hsum.json"), "--to", "pdp"], 0,
     (SAMPLES / "d4_hsum_pdp.json").read_text()),
    (["product", _sample("c3.json"), _sample("c3.json")], 0,
     "product pseudo D-poset on 9 elements\n"),
    (["product", _sample("c3.json"), _sample("d4_hsum_pdp.json")], 0,
     "product pseudo D-poset on 12 elements\n"),
    (["product"], 0, "product pseudo D-poset on 1 elements\n"),
    (["transfer", "--fork", COLLAPSE_FORK], 0,
     "verified commutation of / and \\ over 9 source intervals\n"
     "transferred structure passes the axioms\n"
     "quotient map preserves both differences\n"),
    (["verify-coeq", "--fork", COLLAPSE_FORK], 0,
     "verified 1 forks against 6 targets of size <= 4; failures: 0\n"),
    (["hom", _sample("c3.json"), _sample("d4_hsum.json")], 0,
     "4 bound-preserving isotone maps\n"
     "  0->0, a->0, 1->1\n  0->0, a->a, 1->1\n"
     "  0->0, a->b, 1->1\n  0->0, a->1, 1->1\n"),
    (["iso", _sample("d4_hsum.json"), _sample("d4_hsum_pdp.json")], 0,
     "isomorphism: 0->0, a->a, b->b, 1->1\n"),
    (["iso", _sample("c3.json"), _sample("d4_hsum.json")], 1, "not isomorphic\n"),
]


@pytest.mark.parametrize(
    "argv, code, expected", SAMPLE_OUTPUTS,
    ids=["-".join(Path(a).stem.lstrip("-") for a in case[0])
         for case in SAMPLE_OUTPUTS],
)
def test_valid_samples_keep_their_output(capsys, argv, code, expected):
    verdict = "PASS" if code == 0 else "FAIL"
    assert run(capsys, *argv) == (code, f"{expected}RESULT: {verdict} {argv[0]}\n")


class TestInputsAreCheckedWhereTheyEnter:
    """Every verb takes its structures in through one checked routine: an
    input that breaks an axiom exits 1 with an error naming it and its
    first violation, and one without the tables a verb needs exits 2."""

    # what follows the input's name in the error line
    PD2 = (" fails check_pdp: PD2 violated at a=0, b=a, c=1: "
           "(c/a)\\(c/b) differs from b/a")
    PE1 = (" fails check_pea: PE1 violated at a=a, b=a, c=1: "
           "(a+b)+c exists but a+(b+c) does not")
    # a <= b <= a: the addition is checked before its order is taken
    CYCLE = (" fails check_pea: PE1 violated at a=a, b=a, c=b: "
             "a+(b+c) exists but (a+b)+c does not match it")
    # an addition that passes PE1-PE4 but induces another order
    DECLARED = (" fails check_pea: order violated: declared covers disagree "
                "with the order induced by the addition")

    @pytest.fixture
    def files(self, tmp_path):
        pdp = json.loads((SAMPLES / "d4_hsum_pdp.json").read_text())
        pdp["slash"]["1,a"] = "1"  # breaks PD2 at a=0, b=a, c=1
        pea = json.loads((SAMPLES / "d4_hsum.json").read_text())
        pea["plus"]["1,1"] = "1"  # breaks PE1 at a=a, b=a, c=1
        cyclic = json.loads((SAMPLES / "d4_hsum.json").read_text())
        cyclic["plus"].update({"a,b": "b", "b,a": "a"})  # a <= b <= a
        plain = {"elements": pdp["elements"], "covers": pdp["covers"]}
        covers = json.loads((SAMPLES / "d4_hsum.json").read_text())
        covers["covers"] = [["0", "a"], ["a", "b"], ["b", "1"]]
        ident = {"0": "0", "a": "a", "b": "b", "1": "1"}
        paths = {"c3": _sample("c3.json")}
        for name, obj in (("pdp", pdp), ("pea", pea), ("cyclic", cyclic),
                          ("plain", plain), ("covers", covers)):
            paths[name] = write_json(tmp_path, f"{name}.json", obj)
            paths[f"m_{name}"] = write_json(
                tmp_path, f"m_{name}.json",
                {"source": f"{name}.json", "target": f"{name}.json",
                 "map": ident})
        paths["cover_cycle"] = write_json(
            tmp_path, "cover_cycle.json",
            {"elements": ["0", "a", "b", "1"],
             "covers": [["0", "a"], ["a", "b"], ["b", "a"], ["b", "1"]]})
        fork = (SAMPLES / "collapse_fork.json").read_text()
        for name, end in (("fork", "pdp.json"), ("pea_fork", "pea.json")):
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(fork.replace("d4_hsum_pdp.json", end))
        return paths

    BROKEN = [
        (["product", "{pdp}"], "pdp", PD2),
        (["product", "{pea}", "{c3}"], "pea", PE1),
        (["equalize", "{m_pdp}", "{m_pdp}"], "pdp", PD2),
        (["convert", "{pdp}", "--to", "pdp"], "pdp", PD2),
        (["convert", "{pea}", "--to", "pea"], "pea", PE1),
        (["transfer", "--fork", "{fork}"], "pdp", PD2),
        (["verify-coeq", "--fork", "{fork}", "--max-target-n", "3"], "pdp", PD2),
        (["check", "--pdp-morphism", "{m_pdp}"], "pdp", PD2),
        (["check", "--pea-morphism", "{m_pea}"], "pea", PE1),
        (["hom", "{cyclic}", "{c3}"], "cyclic", CYCLE),
        (["iso", "{c3}", "{cyclic}"], "cyclic", CYCLE),
        (["coequalize", "{m_cyclic}", "{m_cyclic}"], "cyclic", CYCLE),
        (["check", "--bposet", "{cyclic}"], "cyclic", CYCLE),
        (["hom", "{cover_cycle}", "{c3}"], "cover_cycle",
         ": cycle detected through a and b"),
    ]

    @pytest.mark.parametrize(
        "argv, bad, violation", BROKEN,
        ids=["-".join(a.strip("{}-") for a in case[0][:2]) for case in BROKEN],
    )
    def test_axiom_breaking_input_exits_one_naming_it(
        self, capsys, tmp_path, files, argv, bad, violation
    ):
        self.exits_one_naming(capsys, tmp_path, files, argv, bad, violation)

    # verbs that compute with the order alone still check the addition
    ORDER_ONLY = [
        ["hom", "{pea}", "{c3}"],
        ["iso", "{c3}", "{pea}"],
        ["coequalize", "{m_pea}", "{m_pea}"],
        ["check", "--bposet", "{pea}"],
        ["check", "--morphism", "{m_pea}"],
        ["check", "--fork", "{pea_fork}"],
        ["convert", "{pea}", "--to", "interval"],
        ["convert", "{pea}", "--to", "triple"],
    ]

    @pytest.mark.parametrize(
        "argv", ORDER_ONLY, ids=["-".join(a.strip("{}-") for a in argv)
                                 for argv in ORDER_ONLY],
    )
    def test_order_only_verb_rejects_a_broken_addition(
        self, capsys, tmp_path, files, argv
    ):
        self.exits_one_naming(capsys, tmp_path, files, argv, "pea", self.PE1)

    # every verb takes the order the file declares, so it must be the one
    # that the addition induces
    DECLARED_ORDER = [
        ["hom", "{covers}", "{c3}"],
        ["iso", "{covers}", "{covers}"],
        ["product", "{covers}", "{c3}"],
        ["coequalize", "{m_covers}", "{m_covers}"],
        ["check", "--morphism", "{m_covers}"],
        ["check", "--pea-morphism", "{m_covers}"],
        ["check", "--bposet", "{covers}"],
        ["convert", "{covers}", "--to", "pdp"],
        ["convert", "{covers}", "--to", "interval"],
    ]

    @pytest.mark.parametrize(
        "argv", DECLARED_ORDER, ids=["-".join(a.strip("{}-") for a in argv)
                                     for argv in DECLARED_ORDER],
    )
    def test_declared_order_must_be_the_induced_one(
        self, capsys, tmp_path, files, argv
    ):
        self.exits_one_naming(capsys, tmp_path, files, argv, "covers",
                              self.DECLARED)

    def exits_one_naming(self, capsys, tmp_path, files, argv, bad, violation):
        json_path = tmp_path / "report.json"
        argv = [a.format(**files) for a in argv]
        code, out = run(capsys, *argv, "--json", str(json_path))
        message = files[bad] + violation
        assert code == 1
        assert out == f"error: {message}\nRESULT: FAIL {argv[0]}\n"
        assert json.loads(json_path.read_text()) == {
            "verb": argv[0], "ok": False, "exit": 1,
            "error": {"kind": "InvalidStructure", "message": message},
        }

    @pytest.mark.parametrize("argv", [
        ["product", "{plain}", "{pdp}"],
        ["check", "--pdp-morphism", "{m_plain}"],
    ], ids=["product", "pdp-morphism"])
    def test_input_without_tables_exits_two(self, capsys, files, argv):
        code, out = run(capsys, *(a.format(**files) for a in argv))
        assert code == 2
        message = f"{files['plain']} carries no addition or difference tables"
        assert out == f"error: {message}\nRESULT: FAIL {argv[0]}\n"

    def test_addition_and_difference_ends_convert(self, capsys, tmp_path):
        # an end with the other kind of tables is checked, then converted
        ident = {"0": "0", "a": "a", "b": "b", "1": "1"}
        pea, pdp = _sample("d4_hsum.json"), _sample("d4_hsum_pdp.json")
        for verb, end in (("--pdp-morphism", pea), ("--pea-morphism", pdp)):
            m = write_json(tmp_path, "m.json",
                           {"source": end, "target": end, "map": ident})
            assert run(capsys, "check", verb, m) == (0, "RESULT: PASS check\n")


def test_check_fork_reports_each_arrow_that_is_no_morphism(capsys, tmp_path):
    # f, g and t swap 0 and a on the 3-chain: the split-fork equations hold,
    # but those three maps are neither isotone nor bottom-preserving
    chain = structure_to_obj(pea_to_pdp(c3_pea()))
    swap, ident = {"0": "a", "a": "0", "1": "1"}, {"0": "0", "a": "a", "1": "1"}
    fork = {name: {"source": chain, "target": chain, "map": table}
            for name, table in (("f", swap), ("g", swap), ("q", ident),
                                ("s", ident), ("t", swap))}
    path = write_json(tmp_path, "swap_fork.json", fork)
    json_path = tmp_path / "report.json"
    code, out = run(capsys, "check", "--fork", path, "--json", str(json_path))
    assert code == 1
    expected = [
        f"{path}.{name}: {line}"
        for name in ("f", "g", "t")
        for line in ("isotone violated at x=0, y=a: images a and 0 are not related",
                     "bounds violated at element=0: bottom not preserved")
    ]
    assert out.splitlines() == expected + [
        "split-fork equations hold", "RESULT: FAIL check"]
    payload = json.loads(json_path.read_text())
    assert [r["subject"] for r in payload["reports"]] == [
        f"{path}.{name}" for name in ("f", "g", "t")]
    assert payload["ok"] is False and payload["exit"] == 1
    # transfer rejects the same fork
    code, out = run(capsys, "transfer", "--fork", path)
    assert code == 1
    assert out.startswith("error: fork invalid: f is not a bounded-poset morphism\n")


class TestOneParserPerProcess:
    def test_build_parser_returns_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_each_call_reads_as_if_it_ran_first(self, capsys, monkeypatch, tmp_path):
        calls = [
            ["enumerate", "--n", "4", "--json", str(tmp_path / "A.json")],
            ["enumerate", "--n", "four"],  # a usage error, exit 2
            ["enumerate", "--n", "0", "--json", str(tmp_path / "zero.json")],
            ["verify-coeq", "--fork", COLLAPSE_FORK],
            ["verify-coeq", "--generate", "3"],
            ["enumerate", "--n", "4", "--json", str(tmp_path / "B.json")],
        ]

        def call(argv):
            code = main(argv)
            captured = capsys.readouterr()
            record = Path(argv[-1]).read_text() if "--json" in argv else None
            return code, captured.out, captured.err, record

        first = []
        for argv in calls:  # each on a parser of its own
            monkeypatch.setattr(cli, "_PARSER", [])
            first.append(call(argv))
        reused = [call(argv) for argv in calls]  # all on the last one
        assert reused == first
        assert [r[0] for r in reused] == [0, 2, 2, 0, 0, 0]
        assert reused[0][3] == reused[5][3]
        # no option of an earlier parse carries over to a later one
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "_PARSER", [])
        fresh = cli.build_parser()
        assert fresh is not parser
        for argv in calls[:1] + calls[2:]:
            assert vars(parser.parse_args(argv)) == vars(fresh.parse_args(argv))


REQUIRED_KIND = ("one of the arguments --pea --pdp --bposet --morphism "
                 "--pdp-morphism --pea-morphism --plmap --fork is required")


@pytest.mark.parametrize("argv, verb, message", [
    (["enumerate", "--n", "abc"], "enumerate",
     "argument --n: invalid int value: 'abc'"),
    (["verify-coeq", "--fork", "F", "--generate", "3"], "verify-coeq",
     "argument --generate: not allowed with argument --fork"),
    (["check"], "check", REQUIRED_KIND),
], ids=["bad-int", "exclusive", "missing-kind"])
@pytest.mark.parametrize(
    "json_flag",
    [("--json", "{}"), ("--json={}",), ("--jso", "{}"), ("--js={}",)],
    ids=["json-path", "json-equals", "jso-path", "js-equals"],
)
def test_usage_error_exits_two_with_a_record(
    capsys, tmp_path, argv, verb, message, json_flag
):
    json_path = tmp_path / "out.json"
    flag = [a.format(json_path) for a in json_flag]
    code = main(argv + flag)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, f"error: {message}\nRESULT: FAIL {verb}\n")
    assert captured.err.startswith("usage: pealab")
    assert json.loads(json_path.read_text()) == {
        "verb": verb, "ok": False, "exit": 2,
        "error": {"kind": "UsageError", "message": message},
    }


def test_json_is_the_only_long_option_starting_with_j():
    # so that a usage error's record finds every abbreviation of --json
    parser = cli.build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    options = {o for p in (parser, *verbs.values())
               for a in p._actions for o in a.option_strings}
    assert {o for o in options if o.startswith("--j")} == {"--json"}


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pealab enumerate")
