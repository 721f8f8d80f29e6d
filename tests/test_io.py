import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import c3, c3_pea, d4_ortho
from pealab import (
    BoundedPoset,
    FormatError,
    PealabError,
    PosetMorphism,
    PseudoDPoset,
    pdp_to_pea,
    pea_to_pdp,
)
from pealab.io import (
    dumps,
    load_fork,
    load_morphism,
    load_plmap,
    load_structure,
    parse_fork,
    parse_morphism,
    parse_plmap,
    parse_structure,
    plmap_to_obj,
    save_structure,
    structure_to_obj,
)
from pealab.plmaps import pl_map


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def peas_of(catalog5):
    return [pdp_to_pea(X) for entry in catalog5 for X in entry.structures]


class TestStructureFiles:
    def test_bounded_poset_round_trip(self, tmp_path, catalog5):
        path = tmp_path / "base.json"
        for P in [c3()] + [entry.base for entry in catalog5]:
            save_structure(P, path)
            assert load_structure(path) == P

    def test_pea_round_trip(self, tmp_path, catalog5):
        path = tmp_path / "pea.json"
        for A in [d4_ortho()] + peas_of(catalog5):
            save_structure(A, path)
            assert load_structure(path) == A

    def test_pdp_round_trip(self, tmp_path, catalog5):
        path = tmp_path / "pdp.json"
        for A in [c3_pea()] + peas_of(catalog5):
            X = pea_to_pdp(A)
            save_structure(X, path)
            loaded = load_structure(path)
            assert isinstance(loaded, PseudoDPoset)
            assert loaded == X

    def test_emission_is_idempotent_after_one_normalization(self, catalog5):
        peas = [c3_pea()] + peas_of(catalog5)
        bases = [entry.base for entry in catalog5]
        for A in peas + [pea_to_pdp(A) for A in peas] + bases:
            once = dumps(structure_to_obj(A))
            again = parse_structure(json.loads(once), "structure")
            again = dumps(structure_to_obj(again))
            assert once == again

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(FormatError, match="unknown keys"):
            parse_structure({"elements": ["0"], "covers": [], "extra": 1},
                            "structure")

    def test_mixed_tables_are_rejected(self):
        with pytest.raises(FormatError, match="both"):
            parse_structure(
                {"elements": ["0"], "covers": [], "plus": {}, "slash": {},
                 "bslash": {}}, "structure"
            )

    def test_lonely_difference_table_is_rejected(self):
        with pytest.raises(FormatError, match="both 'slash' and 'bslash'"):
            parse_structure({"elements": ["0"], "covers": [], "slash": {}},
                            "structure")

    def test_comma_labels_with_tables_are_rejected(self):
        with pytest.raises(FormatError, match="comma"):
            parse_structure(
                {"elements": ["0", "x,y", "1"],
                 "covers": [["0", "x,y"], ["x,y", "1"]],
                 "plus": {}}, "structure"
            )

    def test_unknown_table_elements_are_rejected(self):
        with pytest.raises(FormatError, match="unknown"):
            parse_structure(
                {"elements": ["0", "1"], "covers": [["0", "1"]],
                 "plus": {"0,z": "1"}}, "structure"
            )


class TestMorphismFiles:
    def test_inline_and_path_references(self, tmp_path):
        save_structure(c3(), tmp_path / "src.json")
        obj = {
            "source": "src.json",
            "target": structure_to_obj(c3()),
            "map": {"0": "0", "a": "a", "1": "1"},
        }
        path = write(tmp_path, "m.json", obj)
        mf = load_morphism(path, {})
        m = PosetMorphism(mf.source, mf.target, mf.map)
        assert m.map == (0, 1, 2)

    @pytest.mark.parametrize("edit, problem", [
        ({"a": None}, "map misses element 'a'"),
        ({"zzz": "0"}, "map names 'zzz', which is not a source element"),
        ({"a": "nope"}, "map sends 'a' to 'nope', which is not a target element"),
    ], ids=["missing", "extra", "unknown-image"])
    def test_map_names_exactly_the_source_elements(self, tmp_path, edit, problem):
        # the reader resolves the map, so each error names the file
        table = {"0": "0", "a": "a", "1": "1", **edit}
        obj = {"source": structure_to_obj(c3()), "target": structure_to_obj(c3()),
               "map": {k: v for k, v in table.items() if v is not None}}
        path = write(tmp_path, "m.json", obj)
        with pytest.raises(FormatError) as caught:
            load_morphism(path, {})
        assert str(caught.value) == f"{path} {problem}"

    def test_fork_bundle(self, tmp_path):
        P = structure_to_obj(c3())
        ident = {"source": P, "target": P,
                 "map": {"0": "0", "a": "a", "1": "1"}}
        path = write(tmp_path, "fork.json",
                     {k: ident for k in ("f", "g", "q", "s", "t")})
        ff = load_fork(path)
        q = PosetMorphism(ff.q.source, ff.q.target, ff.q.map)
        assert q.map == (0, 1, 2)

    def test_fork_requires_all_five(self, tmp_path):
        P = structure_to_obj(c3())
        ident = {"source": P, "target": P,
                 "map": {"0": "0", "a": "a", "1": "1"}}
        path = write(tmp_path, "fork.json", {"f": ident})
        with pytest.raises(FormatError, match="needs morphisms"):
            load_fork(path)


# each reader, with the name of the kind it reads for its messages
READERS = {
    "parse_structure": lambda obj: parse_structure(obj, "structure"),
    "parse_morphism": lambda obj: parse_morphism(obj, ".", "morphism", loaded={}),
    "parse_fork": lambda obj: parse_fork(obj, ".", "fork"),
    "parse_plmap": lambda obj: parse_plmap(obj, "plmap"),
}

READER_ERRORS = [
    ("parse_structure", [], "structure must be a JSON object"),
    ("parse_structure", {"elements": [], "covers": [], "x": 1},
     "structure has unknown keys: ['x']"),
    ("parse_structure", {"elements": []},
     "structure needs 'elements' and 'covers'"),
    ("parse_morphism", 3, "morphism must be a JSON object"),
    ("parse_morphism", {"map": {}, "y": 0, "x": 0},
     "morphism has unknown keys: ['x', 'y']"),
    ("parse_morphism", {"map": {}},
     "morphism needs 'source', 'target' and 'map'"),
    ("parse_fork", None, "fork must be a JSON object"),
    ("parse_fork", {"f": 0, "h": 0}, "fork has unknown keys: ['h']"),
    ("parse_fork", {"f": 0}, "fork needs morphisms f, g, q, s, t"),
    ("parse_plmap", "x", "plmap must be a JSON object"),
    ("parse_plmap", {"slopes": [], "z": 1}, "plmap has unknown keys: ['z']"),
    ("parse_plmap", {"slopes": []}, "plmap needs 'breakpoints' and 'slopes'"),
    ("parse_plmap", {"breakpoints": ["x"], "slopes": ["1", "1"]},
     "plmap: not a rational number: 'x'"),
]


@pytest.mark.parametrize(
    "reader, obj, message", READER_ERRORS,
    ids=[f"{reader}-{k}" for k, (reader, _, _) in enumerate(READER_ERRORS)],
)
def test_each_reader_words_its_shape_errors(reader, obj, message):
    with pytest.raises(FormatError) as caught:
        READERS[reader](obj)
    assert str(caught.value) == message


@pytest.mark.parametrize("obj, problem", [
    ({"elements": ["0", "0"], "covers": []}, "declares duplicate elements"),
    ({"elements": ["0", "1"], "covers": [["0", "z"]]},
     "cover ['0', 'z'] uses unknown elements"),
], ids=["duplicate", "unknown-cover-element"])
def test_file_labels_are_checked_by_the_reader_first(tmp_path, obj, problem):
    # posets.validate_bounded_poset checks the same for library callers;
    # on file input the reader's FormatError, which names the file, comes first
    path = write(tmp_path, "s.json", obj)
    with pytest.raises(FormatError) as caught:
        load_structure(path)
    assert str(caught.value) == f"{path} {problem}"


class TestPlmapFiles:
    def test_fraction_strings_round_trip(self, tmp_path):
        f = pl_map(("1", "3/2"), ("2", "1/2", "1"))
        path = write(tmp_path, "f.json", plmap_to_obj(f))
        assert load_plmap(path) == f
        assert plmap_to_obj(f)["breakpoints"] == ["1", "3/2"]

    def test_bad_rational_is_rejected(self, tmp_path):
        path = write(tmp_path, "f.json",
                     {"breakpoints": ["x"], "slopes": ["1", "1"]})
        with pytest.raises(FormatError):
            load_plmap(path)

    def test_not_json_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FormatError, match="valid JSON"):
            load_structure(path)


# Arbitrary JSON-shaped values, and objects shaped like each file format,
# mostly well-formed, with one slot sometimes replaced by an arbitrary value.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10,
)


@st.composite
def structure_objects(draw):
    middle = draw(st.lists(st.sampled_from(["a", "b", "c,d", ""]),
                           unique=True, max_size=3))
    elements = ["0", *middle, "1"]
    names = st.sampled_from(elements + ["z"])
    covers = [["0", x] for x in middle] + [[x, "1"] for x in middle]
    covers += draw(st.lists(st.lists(names, min_size=2, max_size=2),
                            max_size=2))
    obj = {"elements": elements, "covers": covers or [["0", "1"]]}
    tables = draw(st.sampled_from(
        [(), ("plus",), ("slash", "bslash"), ("slash",), ("plus", "slash")]
    ))
    for key in tables:
        obj[key] = draw(st.dictionaries(st.builds("{},{}".format, names, names),
                                        names, max_size=12))
    if draw(st.booleans()):
        obj[draw(st.sampled_from([*obj, "extra"]))] = draw(json_values)
    return obj


morphism_objects = st.fixed_dictionaries(
    {"source": structure_objects() | st.sampled_from(["missing.json", ""]),
     "target": structure_objects(),
     "map": st.dictionaries(st.sampled_from(["0", "a", "b", "1"]),
                            st.sampled_from(["0", "a", "b", "1", "z"]))},
)
rationals = st.sampled_from(["0", "1/2", "1", "3/2", "2", "-1", "1/0", "x"])
plmap_objects = st.fixed_dictionaries(
    {"breakpoints": st.lists(rationals, max_size=3) | json_values,
     "slopes": st.lists(rationals, min_size=1, max_size=4) | json_values},
)


def poset_map(mf):
    """The bounded-poset map of a parsed morphism, whose ends are bounded
    posets or structures on one."""
    src, dst = (end if isinstance(end, BoundedPoset) else end.base
                for end in (mf.source, mf.target))
    return PosetMorphism(src, dst, mf.map)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("empty")


@pytest.mark.parametrize("kind", ["structure", "morphism", "plmap"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_workbench_errors(empty_dir, kind, data):
    parse = {
        "structure": READERS["parse_structure"],
        # file references resolve inside an empty directory
        "morphism": lambda obj: poset_map(
            parse_morphism(obj, empty_dir, "morphism", loaded={})),
        "plmap": READERS["parse_plmap"],
    }[kind]
    objects = {"structure": structure_objects(), "morphism": morphism_objects,
               "plmap": plmap_objects}[kind]
    try:
        parse(data.draw(objects | json_values))
    except PealabError:
        pass


def stdlib_dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_matches_the_stdlib_emission(value):
    assert dumps(value) == stdlib_dumps(value)


@pytest.mark.parametrize("value", [
    ("a", (1, ()), [(), {}]),
    {"a": {}, "b": [], "c": [{}, [[]], {"d": {}}]},
    {"été": "∀x \U0001d4ab", "\ud800": "lone \udfff surrogate"},
    ["\x00\x01\x1f\x7f", "tab\tnew\nline\r", '"quoted"', "back\\slash", "/"],
    [-(10 ** 40), -1, 0, 10 ** 30],
    [True, 1, False, 0, None, 1.0, 0.0, -0.0],
    [float("nan"), float("inf"), -float("inf"), 1e300, 2.5e-10],
    {"b": 1, "a": 2, "B": 3, "": 4, "a b": 5},
    "just a string",
    7,
    True,
    None,
], ids=["tuples", "nested-empty", "non-ascii", "escapes", "big-ints",
        "bools-and-ints", "floats", "key-order", "str", "int", "bool", "null"])
def test_dumps_matches_the_stdlib_emission_on_edge_cases(value):
    assert dumps(value) == stdlib_dumps(value)


@pytest.mark.parametrize("value", [{1, 2}, {"a": [{1}]}, {1: "a"}, {"a": 1, 2: "b"}],
                         ids=["set", "nested-set", "int-key", "mixed-keys"])
def test_dumps_raises_type_error_on_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        dumps(value)
