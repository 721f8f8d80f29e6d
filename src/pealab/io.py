"""Shared JSON wire formats.

Structure file::

    {"elements": ["0","a","1"], "covers": [["0","a"],["a","1"]],
     "plus":   {"a,a": "1", ...},          # pseudo effect algebra
     "slash":  {"b,a": "z", ...},          # pseudo D-poset, keyed "b,a" -> b/a
     "bslash": {"b,a": "z", ...}}

Morphism file::

    {"source": <path or structure object>,
     "target": <path or structure object>,
     "map": {"a": "1", ...}}

Fork bundle: an object with keys f, g, q, s, t, each a morphism.
PL map file: {"breakpoints": ["1","3/2"], "slopes": ["2","1","1"]}.

Emission is canonical (sorted keys, two-space indent, trailing newline),
so parse -> emit is idempotent after one normalization.  Every JSON file
the workbench writes goes through write_json, and every JSON text through
dumps, which writes the emission itself: byte for byte it is
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, but a key
that is not a ``str`` raises TypeError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import FormatError, InvalidStructure
from .pdp import PseudoDPoset
from .pea import PseudoEffectAlgebra
from .plmaps import BandViolation, PLMap
from .posets import BoundedPoset, validate_bounded_poset


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _read_object(obj, what: str, required, optional=(), needs=None) -> None:
    """Require obj to be a JSON object with every required key and no
    keys but those; needs words the missing-key message."""
    _require(isinstance(obj, dict), f"{what} must be a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    _require(not unknown, f"{what} has unknown keys: {sorted(unknown)}")
    if needs is None:
        *rest, last = map(repr, required)
        needs = f"{', '.join(rest)} and {last}"
    _require(all(k in obj for k in required), f"{what} needs {needs}")


def _string_list(value, what: str) -> list[str]:
    _require(isinstance(value, list), f"{what} must be a list")
    _require(all(isinstance(x, str) for x in value), f"{what} must hold strings")
    return value


def _parse_table(obj, labels, name: str):
    _require(isinstance(obj, dict), f"{name} table must be an object")
    index = {lab: i for i, lab in enumerate(labels)}
    _require(
        all("," not in lab for lab in labels),
        f"element labels must not contain commas when a {name} table is present",
    )
    n = len(labels)
    table = [[None] * n for _ in range(n)]
    for key, value in obj.items():
        _require(isinstance(key, str) and isinstance(value, str),
                 f"{name} table entries must map strings to strings")
        parts = key.split(",")
        _require(len(parts) == 2, f"{name} key {key!r} is not of the form 'x,y'")
        _require(parts[0] in index and parts[1] in index and value in index,
                 f"{name} entry {key!r} -> {value!r} uses unknown elements")
        table[index[parts[0]]][index[parts[1]]] = index[value]
    return tuple(tuple(row) for row in table)


def parse_structure(obj, what: str):
    """Parse a structure object into the most specific value it encodes,
    over the bounded poset that its elements and covers declare."""
    _read_object(obj, what, ("elements", "covers"), ("plus", "slash", "bslash"))
    elements = _string_list(obj["elements"], f"{what} elements")
    _require(len(set(elements)) == len(elements),
             f"{what} declares duplicate elements")
    covers = obj["covers"]
    _require(isinstance(covers, list), f"{what} covers must be a list")
    for pair in covers:
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, str) for x in pair),
            f"{what} covers must be pairs of element names",
        )
        _require(pair[0] in elements and pair[1] in elements,
                 f"{what} cover {pair} uses unknown elements")
    try:
        base = validate_bounded_poset(elements, covers)
    except InvalidStructure as exc:  # a cycle, or no unique bound
        raise InvalidStructure(f"{what}: {exc}") from exc
    has_plus = "plus" in obj
    has_diff = "slash" in obj or "bslash" in obj
    _require(not (has_plus and has_diff),
             f"{what} carries both an addition and difference tables")
    if has_plus:
        plus = _parse_table(obj["plus"], base.labels, "plus")
        return PseudoEffectAlgebra(base, plus)
    if has_diff:
        _require("slash" in obj and "bslash" in obj,
                 f"{what} needs both 'slash' and 'bslash'")
        slash = _parse_table(obj["slash"], base.labels, "slash")
        bslash = _parse_table(obj["bslash"], base.labels, "bslash")
        return PseudoDPoset(base, slash, bslash)
    return base


def table_obj(table, labels) -> dict:
    """Operation-table object keyed "x,y" for every defined cell table[x][y]."""
    out = {}
    for x in range(len(labels)):
        for y in range(len(labels)):
            v = table[x][y]
            if v is not None:
                out[f"{labels[x]},{labels[y]}"] = labels[v]
    return out


def structure_to_obj(structure) -> dict:
    if isinstance(structure, PseudoEffectAlgebra):
        obj = poset_obj(structure.base)
        obj["plus"] = table_obj(structure.plus, structure.labels)
        return obj
    if isinstance(structure, PseudoDPoset):
        obj = poset_obj(structure.base)
        obj["slash"] = table_obj(structure.slash, structure.labels)
        obj["bslash"] = table_obj(structure.bslash, structure.labels)
        return obj
    if isinstance(structure, BoundedPoset):
        return poset_obj(structure)
    raise FormatError(f"not a structure: {type(structure).__name__}")


def poset_obj(base) -> dict:
    """Elements-and-covers object for any poset.

    Derived posets (intervals, triples) are generally not bounded, so the
    result may be dump-only: it re-parses as a structure file only when
    the poset has unique bounds.
    """
    return {
        "elements": list(base.labels),
        "covers": [
            [base.labels[a], base.labels[b]] for a, b in base.cover_pairs()
        ],
    }


def _emit(obj, indent: str) -> str:
    """obj as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it, each
    nested line starting with indent plus two spaces."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # sorted or encode_basestring_ascii raises TypeError on a key that
        # is not a str
        body = (",\n" + inner).join(
            [encode_basestring_ascii(key) + ": " + _emit(obj[key], inner)
             for key in sorted(obj)])
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = (",\n" + inner).join([_emit(value, inner) for value in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(obj)  # floats; json's own TypeError for the rest


def dumps(obj) -> str:
    """obj in the canonical emission: byte for byte
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, written here
    because with an indent the stdlib takes its pure-Python encoder, which
    is twice as slow and leaves cyclic garbage on every call.  A dict key
    that is not a ``str`` raises TypeError, where json would convert it."""
    return _emit(obj, "") + "\n"


def write_json(path, obj) -> None:
    """Write obj to path in the canonical emission."""
    try:
        Path(path).write_text(dumps(obj))
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path} nests JSON too deeply to read") from exc


def load_structure(path):
    return parse_structure(load_json(path), str(path))


def save_structure(structure, path) -> None:
    write_json(path, structure_to_obj(structure))


@dataclass
class MorphismFile:
    source: object
    target: object
    map: tuple[int, ...]  # the target index of each source element
    # what errors call each end: its file, or "<what> source|target" inline
    names: tuple[str, str]


def parse_morphism(obj, base_dir, what: str, *, loaded: dict) -> MorphismFile:
    """The morphism in obj, whose map must name exactly the source's
    elements and send each to an element of the target.  ``loaded`` maps
    each path already parsed to its structure, so that a file several ends
    name is read once."""
    _read_object(obj, what, ("source", "target", "map"))

    def resolve(side):
        value, name = obj[side], f"{what} {side}"
        if not isinstance(value, str):
            return parse_structure(value, name), name
        path = Path(base_dir) / value  # an absolute value stands as it is
        name = str(path)
        if name not in loaded:
            loaded[name] = parse_structure(load_json(path), name)
        return loaded[name], name

    (source, source_name), (target, target_name) = map(resolve, ("source", "target"))
    mapping = obj["map"]
    _require(isinstance(mapping, dict)
             and all(isinstance(k, str) and isinstance(v, str)
                     for k, v in mapping.items()),
             f"{what} map must send element names to element names")
    for lab in mapping:
        _require(lab in source.labels,
                 f"{what} map names {lab!r}, which is not a source element")
    index = {lab: k for k, lab in enumerate(target.labels)}
    for lab in source.labels:
        _require(lab in mapping, f"{what} map misses element {lab!r}")
        _require(mapping[lab] in index, f"{what} map sends {lab!r} to "
                 f"{mapping[lab]!r}, which is not a target element")
    values = tuple(index[mapping[lab]] for lab in source.labels)
    return MorphismFile(source, target, values, (source_name, target_name))


def load_morphism(path, loaded) -> MorphismFile:
    return parse_morphism(
        load_json(path), Path(path).parent, str(path), loaded=loaded)


@dataclass
class ForkFile:
    f: MorphismFile
    g: MorphismFile
    q: MorphismFile
    s: MorphismFile
    t: MorphismFile


def parse_fork(obj, base_dir, what: str) -> ForkFile:
    names = ("f", "g", "q", "s", "t")
    _read_object(obj, what, names, needs="morphisms f, g, q, s, t")
    loaded = {}  # each file the five arrows name is parsed once
    parts = {
        name: parse_morphism(obj[name], base_dir, f"{what}.{name}", loaded=loaded)
        for name in names
    }
    return ForkFile(**parts)


def load_fork(path) -> ForkFile:
    return parse_fork(load_json(path), Path(path).parent, str(path))


def parse_plmap(obj, what: str) -> PLMap:
    _read_object(obj, what, ("breakpoints", "slopes"))
    _require(isinstance(obj["breakpoints"], list) and isinstance(obj["slopes"], list),
             f"{what} breakpoints and slopes must be lists")
    try:
        return PLMap(tuple(obj["breakpoints"]), tuple(obj["slopes"]))
    except Exception as exc:
        raise FormatError(f"{what}: {exc}") from exc


def load_plmap(path) -> PLMap:
    return parse_plmap(load_json(path), str(path))


def plmap_to_obj(f: PLMap) -> dict:
    return {
        "breakpoints": [str(b) for b in f.breakpoints],
        "slopes": [str(s) for s in f.slopes],
    }


def band_violation_to_obj(hit: BandViolation) -> dict:
    return {"point": str(hit.point), "value": str(hit.value)}
