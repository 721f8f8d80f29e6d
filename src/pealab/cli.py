"""Command-line surface.

Exit codes: 0 on pass/success, 1 on a verified violation (with a report),
2 on malformed input, a command line included, or an exceeded size bound.
Text reports end with a single line ``RESULT: PASS|FAIL <verb>``;
``--json PATH`` additionally writes a machine-readable summary on every
exit, with ``"error": {"kind", "message"}`` when an error ended the verb.
"""

from __future__ import annotations

import argparse
import sys
from itertools import groupby

from . import io
from .catalog import (
    CatalogEntry,
    build_catalog,
    catalog_pdps,
    catalog_to_obj,
    enumerate_bounded_posets,
    noncommutative_record,
    search_counts,
)
from .errors import (
    FormatError,
    InvalidStructure,
    LimitExceeded,
    TransferError,
    UsageError,
)
from .functors import interval_poset, triple_poset
from .pdp import (
    PDPMorphism,
    PseudoDPoset,
    check_pdp,
    check_pdp_morphism,
    equalizer_pdp,
    product_pdp,
)
from .pea import (
    PseudoEffectAlgebra,
    check_pea,
    check_pea_morphism,
    is_commutative,
    pdp_to_pea,
    pea_to_pdp,
)
from .plmaps import find_band_violation, pl_noncommutativity_witness
from .posets import (
    BoundedPoset,
    PosetMorphism,
    SplitFork,
    check_morphism,
    coequalizer_bposets,
    enumerate_morphisms,
    find_isomorphism,
    is_split_fork,
    product_bposets,
)
from .reports import Report
from .transfer import (
    HomSets,
    generate_split_forks,
    i_preserves_fork,
    transfer_structure,
    verify_coequalizer_psdpos,
)


class _Output:
    def __init__(self, verb: str, json_path):
        self.verb = verb
        self.json_path = json_path
        self.lines: list[str] = []
        self.payload: dict = {"verb": verb}

    def say(self, line: str) -> None:
        self.lines.append(line)

    def write(self, path, obj) -> bool:
        """Write obj to the -o path, if one was given, and say so."""
        if not path:
            return False
        io.write_json(path, obj)
        self.say(f"wrote {path}")
        return True

    def result(self, path, obj) -> bool:
        """Record obj, the structure a verb made, in the payload and write
        it to the -o path, if one was given."""
        self.payload["structure"] = obj
        return self.write(path, obj)

    def finish(self, ok: bool, code: int | None = None) -> int:
        code = (0 if ok else 1) if code is None else code
        self.payload["ok"] = ok
        self.payload["exit"] = code
        if self.json_path:  # first, so that a failed write prints no verdict
            io.write_json(self.json_path, self.payload)
        for line in self.lines:
            print(line)
        print(f"RESULT: {'PASS' if ok else 'FAIL'} {self.verb}")
        return code


def _arrows(label_map: dict[str, str]) -> str:
    return ", ".join(f"{k}->{v}" for k, v in label_map.items())


def _report_into(out: _Output, report: Report, named: bool = False) -> bool:
    for line in report.lines():
        out.say(f"{report.subject}: {line}" if named else line)
    for note in report.notes:
        out.say(note)
    out.payload.setdefault("reports", []).append(report.to_obj())
    return report.ok


class _Intake:
    """The structures one verb computes with, each checked where it enters.

    check_pea or check_pdp runs on every input that carries tables, once
    per distinct structure however many ends name it, and InvalidStructure
    names the input and the first violation.  A checked structure is then
    taken as the kind the verb asks for, at most once per kind: its base
    for a BoundedPoset, itself, or its tables converted to the other kind.
    An input without tables raises FormatError unless the kind is
    BoundedPoset.  Each structure or morphism file is read once, however
    many ends or arguments name it.
    """

    def __init__(self):
        self.values = {}  # checked structure -> {kind: its value as kind}
        self.files = {}  # path -> the structure parsed from it
        self.morphisms = {}  # path -> the morphism file parsed from it

    def checked(self, structure, kind, name: str):
        if isinstance(structure, BoundedPoset):
            if kind is BoundedPoset:
                return structure
            raise FormatError(f"{name} carries no addition or difference tables")
        pea = isinstance(structure, PseudoEffectAlgebra)
        values = self.values.get(structure)
        if values is None:
            report = (check_pea if pea else check_pdp)(structure)
            if not report.ok:
                raise InvalidStructure(
                    f"{name} fails {report.subject}: {report.violations[0]}")
            values = self.values[structure] = {
                type(structure): structure, BoundedPoset: structure.base}
        if kind not in values:
            values[kind] = pea_to_pdp(structure) if pea else pdp_to_pea(structure)
        return values[kind]

    def parse(self, path):
        if path not in self.files:
            self.files[path] = io.load_structure(path)
        return self.files[path]

    def load(self, path, kind):
        return self.checked(self.parse(path), kind, path)

    def morphism(self, path, kind):
        """(source, target, map table) of the morphism file at path."""
        if path not in self.morphisms:
            self.morphisms[path] = io.load_morphism(path, self.files)
        return self.arrow(self.morphisms[path], kind)

    def checked_morphism(self, path, kind):
        """The morphism file at path as a PosetMorphism, or a PDPMorphism
        if kind is PseudoDPoset; InvalidStructure names the file and the
        first violation unless its map is a morphism of that kind."""
        if kind is PseudoDPoset:
            m = PDPMorphism(*self.morphism(path, kind))
            report = check_pdp_morphism(m)
        else:
            m = PosetMorphism(*self.morphism(path, kind))
            report = check_morphism(m)
        if not report.ok:
            raise InvalidStructure(
                f"{path} fails {report.subject}: {report.violations[0]}")
        return m

    def arrow(self, mf: io.MorphismFile, kind):
        """(source, target, map table) of a morphism file, ends taken as kind."""
        source = self.checked(mf.source, kind, mf.names[0])
        target = self.checked(mf.target, kind, mf.names[1])
        return source, target, mf.map

    def fork(self, ff: io.ForkFile) -> SplitFork:
        arrows = (ff.f, ff.g, ff.q, ff.s, ff.t)
        f, g, q, s, t = (PosetMorphism(*self.arrow(m, BoundedPoset)) for m in arrows)
        return SplitFork(f.source, f.target, q.target, f, g, q, s, t)

    def pdp_fork(self, ff: io.ForkFile):
        """The parallel pair, A and B taken as pseudo D-posets, and the fork."""
        f, g = (PDPMorphism(*self.arrow(mf, PseudoDPoset)) for mf in (ff.f, ff.g))
        return f, g, self.fork(ff)


def _cmd_check(args) -> int:
    out = _Output("check", args.json)
    ok = True
    if args.pea:
        A = io.load_structure(args.pea)
        if not isinstance(A, PseudoEffectAlgebra):
            raise FormatError(f"{args.pea} does not carry an addition table")
        ok = _report_into(out, check_pea(A))
        if ok:
            out.say(f"pseudo effect algebra on {A.n} elements; "
                    f"commutative: {is_commutative(A)}")
    elif args.pdp:
        X = io.load_structure(args.pdp)
        if not isinstance(X, PseudoDPoset):
            raise FormatError(f"{args.pdp} does not carry difference tables")
        ok = _report_into(out, check_pdp(X))
        if ok:
            out.say(f"pseudo D-poset on {X.n} elements")
    elif args.bposet:
        base = _Intake().load(args.bposet, BoundedPoset)
        out.say(f"bounded poset on {base.n} elements "
                f"(bottom {base.labels[base.bottom]}, top {base.labels[base.top]})")
    elif args.morphism:
        m = PosetMorphism(*_Intake().morphism(args.morphism, BoundedPoset))
        ok = _report_into(out, check_morphism(m))
    elif args.pdp_morphism:
        h = PDPMorphism(*_Intake().morphism(args.pdp_morphism, PseudoDPoset))
        ok = _report_into(out, check_pdp_morphism(h))
    elif args.pea_morphism:
        A, B, m = _Intake().morphism(args.pea_morphism, PseudoEffectAlgebra)
        ok = _report_into(out, check_pea_morphism(m, A, B))
    elif args.plmap:
        f = io.load_plmap(args.plmap)
        hit = find_band_violation(f)
        if hit is not None:
            out.say(f"band violated: {hit}")
            out.payload["violation"] = io.band_violation_to_obj(hit)
            ok = False
        else:
            out.say("map stays inside the band x <= f(x) <= 2x")
    elif args.fork:
        fork = _Intake().fork(io.load_fork(args.fork))
        for name in ("f", "g", "q", "s", "t"):  # named as io names them
            arrow = Report(f"{args.fork}.{name}",
                           check_morphism(getattr(fork, name)).violations)
            if not arrow.ok:
                ok = _report_into(out, arrow, named=True)
        equations = is_split_fork(fork)
        out.say("split-fork equations " + ("hold" if equations else "fail"))
        ok = ok and equations
    else:  # pragma: no cover - argparse enforces the group
        raise FormatError("nothing to check")
    return out.finish(ok)


def _cmd_convert(args) -> int:
    out = _Output("convert", args.json)
    if args.to in ("interval", "triple"):
        base = _Intake().load(args.input, BoundedPoset)
        made = (interval_poset if args.to == "interval" else triple_poset)(base)
        obj = io.poset_obj(made)
        out.say(f"{args.to} poset on {made.n} elements (dump-only: "
                "derived posets need not be bounded)")
    else:
        kind = PseudoEffectAlgebra if args.to == "pea" else PseudoDPoset
        obj = io.structure_to_obj(_Intake().load(args.input, kind))
    if not out.result(args.output, obj):
        out.say(io.dumps(obj).rstrip("\n"))
    return out.finish(True)


def _cmd_product(args) -> int:
    out = _Output("product", args.json)
    intake = _Intake()
    structures = [intake.parse(p) for p in args.inputs]
    # plain orders multiply as orders; any tables make it a pseudo D-poset,
    # and so does the empty product
    plain = structures and all(isinstance(s, BoundedPoset) for s in structures)
    kind = BoundedPoset if plain else PseudoDPoset
    factors = [intake.load(p, kind) for p in args.inputs]
    result = (product_bposets if plain else product_pdp)(factors)
    out.say(f"product {'bounded poset' if plain else 'pseudo D-poset'} "
            f"on {result.n} elements")
    out.result(args.output, io.structure_to_obj(result))
    return out.finish(True)


def _cmd_equalize(args) -> int:
    out = _Output("equalize", args.json)
    intake = _Intake()
    f, g = (intake.checked_morphism(p, PseudoDPoset) for p in (args.f, args.g))
    E, inclusion = equalizer_pdp(f, g)
    out.say(f"equalizer carrier: {{{', '.join(E.labels)}}}")
    out.result(args.output, io.structure_to_obj(E))
    out.payload["inclusion"] = inclusion.label_map()
    return out.finish(True)


def _cmd_coequalize(args) -> int:
    out = _Output("coequalize", args.json)
    intake = _Intake()
    f, g = (intake.checked_morphism(p, BoundedPoset) for p in (args.f, args.g))
    Q, q = coequalizer_bposets(f, g)
    out.say(f"coequalizer object on {Q.n} elements")
    out.say("quotient map: " + _arrows(q.label_map()))
    out.result(args.output, io.structure_to_obj(Q))
    out.payload["quotient"] = q.label_map()
    return out.finish(True)


def _cmd_transfer(args) -> int:
    out = _Output("transfer", args.json)
    f, g, fork = _Intake().pdp_fork(io.load_fork(args.fork))
    qprime = transfer_structure(f, g, fork)  # returns once descent and axioms hold
    _report_into(out, Report("transfer", notes=(
        f"verified commutation of / and \\ over {len(f.target.pairs)} "
        "source intervals", "transferred structure passes the axioms",
        "quotient map preserves both differences")))
    out.result(args.output, io.structure_to_obj(qprime.target))
    return out.finish(True)


def _cmd_verify_coeq(args) -> int:
    out = _Output("verify-coeq", args.json)
    if args.generate is not None and args.generate < 1:
        raise FormatError(
            f"--generate needs a positive count, got {args.generate}"
        )
    for flag, value in (("--max-target-n", args.max_target_n),
                        ("--max-source-n", args.max_source_n)):
        if value < 1:
            raise FormatError(f"{flag} needs at least one element, got {value}")
    source_n = 0 if args.fork else args.max_source_n  # a fork file brings its own
    # catalog_pdps checks the labels against the one size it builds
    pdps = catalog_pdps(max(args.max_target_n, source_n))
    targets = [X for X in pdps if X.n <= args.max_target_n]
    homs = HomSets()
    if args.fork:
        triples = [_Intake().pdp_fork(io.load_fork(args.fork))]
    else:
        sources = [X for X in pdps if X.n <= args.max_source_n]
        triples = generate_split_forks(sources, args.generate, args.seed, homs)
        out.say(f"generated {len(triples)} split forks with seed {args.seed}")
    failures = 0
    out.payload["reports"] = []
    verified = {}  # one report per (q', glued pairs); the targets are fixed
    for k, (f, g, fork) in enumerate(triples):
        qprime = transfer_structure(f, g, fork)
        glued = frozenset((x, y) for x, y in zip(f.map, g.map) if x != y)
        key = (qprime, glued)
        if key not in verified:
            verified[key] = verify_coequalizer_psdpos(*key, targets, homs)
        report = verified[key]
        preserved = i_preserves_fork(fork)
        if not report.ok or not preserved:
            failures += 1
            out.say(f"fork #{k}: FAILED")
            _report_into(out, report)
            if not preserved:
                out.say(
                    "fork #%d: interval construction does not preserve the "
                    "coequalizer" % k
                )
        else:
            out.payload["reports"].append(report.to_obj())
    out.say(
        f"verified {len(triples)} forks against {len(targets)} targets "
        f"of size <= {args.max_target_n}; failures: {failures}"
    )
    out.payload["forks"] = len(triples)
    out.payload["targets"] = len(targets)
    out.payload["max_target_n"] = args.max_target_n
    out.payload["failures"] = failures
    out.payload["hom_sets"] = {"lookups": homs.lookups, "enumerated": len(homs)}
    out.payload["verified_instances"] = len(verified)
    return out.finish(not failures)


def _cmd_enumerate(args) -> int:
    out = _Output("enumerate", args.json)
    if args.n < 1:
        raise FormatError(f"--n needs at least one element, got {args.n}")
    generation: list[dict] = []
    if args.structures:
        search = search_counts()
        entries = build_catalog(args.n, generation, search)
        out.payload["search"] = search
    else:
        entries = [
            CatalogEntry(b, None)
            for b in enumerate_bounded_posets(args.n, generation)
        ]
    summary = []
    for n, group in groupby(entries, key=lambda e: e.base.n):
        group = list(group)
        record = {"n": n, "classes": len(group)}
        line = f"n={n}: {len(group)} bounded-poset classes"
        if args.structures:
            record["structures"] = [len(e.structures) for e in group]
            line += f", structure counts {record['structures']}"
        out.say(line)
        summary.append(record)
    # the catalog object is built only to be written; it holds the record
    catalog = catalog_to_obj(entries, args.n) if args.output else {}
    if args.structures:
        noncomm = (catalog.get("noncommutative")
                   or noncommutative_record(entries, args.n))
        out.say(
            f"smallest noncommutative structure has {noncomm['size']} elements"
            if noncomm["found"]
            else f"all structures up to {args.n} elements are commutative"
        )
    if args.output:
        out.write(args.output, catalog)
    out.payload["summary"] = summary
    # by bounded size, as in the summary: a poset on n points gains two bounds
    out.payload["generation"] = [dict(r, n=r["n"] + 2) for r in generation]
    return out.finish(True)


def _cmd_hom(args) -> int:
    out = _Output("hom", args.json)
    intake = _Intake()
    P, R = (intake.load(p, BoundedPoset) for p in (args.source, args.target))
    maps = [PosetMorphism(P, R, m).label_map() for m in enumerate_morphisms(P, R)]
    out.say(f"{len(maps)} bound-preserving isotone maps")
    for m in maps:
        out.say("  " + _arrows(m))
    out.payload["count"] = len(maps)
    out.payload["maps"] = maps
    return out.finish(True)


def _cmd_iso(args) -> int:
    out = _Output("iso", args.json)
    intake = _Intake()
    P, R = (intake.load(p, BoundedPoset) for p in (args.source, args.target))
    iso = find_isomorphism(P, R)
    if iso is None:
        out.say("not isomorphic")
        out.payload["isomorphic"] = False
        return out.finish(False)
    out.say("isomorphism: " + _arrows(iso.label_map()))
    out.payload["isomorphic"] = True
    out.payload["map"] = iso.label_map()
    return out.finish(True)


def _cmd_witness_noncomm(args) -> int:
    out = _Output("witness-noncomm", args.json)
    f, g, report = pl_noncommutativity_witness()
    out.say(f"f: {io.plmap_to_obj(f)}")
    out.say(f"g: {io.plmap_to_obj(g)}")
    for line in report.lines():
        out.say(line)
    out.payload["f"] = io.plmap_to_obj(f)
    out.payload["g"] = io.plmap_to_obj(g)
    out.payload["forward_sum"] = io.plmap_to_obj(report.forward_sum)
    out.payload["violation"] = io.band_violation_to_obj(report.violation)
    out.write(args.output, out.payload)
    return out.finish(True)


class _Parser(argparse.ArgumentParser):
    """A parser that raises its usage errors, so that main ends them as
    any other exit 2; its prog's last word is the verb, or pealab."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message, self.prog.split()[-1])


# The parser build_parser made, filled once and never rebound.  Not
# functools.cache: perfbench's self-test takes any module attribute with a
# __wrapped__ for a tracing wrapper left behind.
_PARSER: list[argparse.ArgumentParser] = []


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every later
    one: parse_args makes a fresh namespace on every call, so no option
    carries over between calls."""
    if _PARSER:
        return _PARSER[0]
    parser = _Parser(
        prog="pealab",
        description="Finite-model workbench for pseudo effect algebras "
        "and pseudo D-posets",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, func, output=True):
        """The options every verb ends with, and the verb's command."""
        if output:
            p.add_argument("-o", "--output", metavar="FILE")
        p.add_argument("--json", metavar="PATH",
                       help="write a machine-readable report to PATH")
        p.set_defaults(func=func)

    p = sub.add_parser("check", help="validate a structure, morphism or map")
    kinds = p.add_mutually_exclusive_group(required=True)
    kinds.add_argument("--pea", metavar="FILE")
    kinds.add_argument("--pdp", metavar="FILE")
    kinds.add_argument("--bposet", metavar="FILE")
    kinds.add_argument("--morphism", metavar="FILE")
    kinds.add_argument("--pdp-morphism", metavar="FILE")
    kinds.add_argument("--pea-morphism", metavar="FILE")
    kinds.add_argument("--plmap", metavar="FILE")
    kinds.add_argument("--fork", metavar="FILE")
    common(p, _cmd_check, output=False)

    p = sub.add_parser("convert", help="convert between addition and differences")
    p.add_argument("input", metavar="FILE")
    p.add_argument("--to", choices=("pea", "pdp", "interval", "triple"),
                   required=True)
    common(p, _cmd_convert)

    p = sub.add_parser("product", help="finite product of structures")
    p.add_argument("inputs", metavar="FILE", nargs="*")
    common(p, _cmd_product)

    p = sub.add_parser("equalize", help="equalizer of two parallel morphisms")
    p.add_argument("f", metavar="F_FILE")
    p.add_argument("g", metavar="G_FILE")
    common(p, _cmd_equalize)

    p = sub.add_parser("coequalize", help="coequalizer of two parallel morphisms")
    p.add_argument("f", metavar="F_FILE")
    p.add_argument("g", metavar="G_FILE")
    common(p, _cmd_coequalize)

    p = sub.add_parser("transfer", help="equip a fork's coequalizer with differences")
    p.add_argument("--fork", metavar="FILE", required=True)
    common(p, _cmd_transfer)

    p = sub.add_parser("verify-coeq",
                       help="verify the universal property over catalog targets")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fork", metavar="FILE")
    src.add_argument("--generate", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-target-n", type=int, default=4)
    p.add_argument("--max-source-n", type=int, default=5)
    common(p, _cmd_verify_coeq, output=False)

    p = sub.add_parser("enumerate", help="catalog poset classes and labelled tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--structures", action="store_true",
                   help="also enumerate the addition tables per class")
    common(p, _cmd_enumerate)

    p = sub.add_parser("hom", help="enumerate bound-preserving isotone maps")
    p.add_argument("source", metavar="SRC_FILE")
    p.add_argument("target", metavar="DST_FILE")
    common(p, _cmd_hom, output=False)

    p = sub.add_parser("iso", help="search for an order isomorphism")
    p.add_argument("source", metavar="SRC_FILE")
    p.add_argument("target", metavar="DST_FILE")
    common(p, _cmd_iso, output=False)

    p = sub.add_parser("witness-noncomm",
                       help="emit the noncommutativity witness pair")
    common(p, _cmd_witness_noncomm)

    _PARSER.append(parser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return _fail(exc.verb, _json_path(argv), exc, 2)
    try:
        return args.func(args)
    except (FormatError, LimitExceeded) as exc:
        return _fail(args.verb, args.json, exc, 2)
    except (InvalidStructure, TransferError) as exc:
        return _fail(args.verb, args.json, exc, 1)


def _json_path(argv):
    """The PATH of the last ``--json PATH`` or ``--json=PATH`` in argv."""
    path = None
    for k, arg in enumerate(argv):
        if arg == "--json" and k + 1 < len(argv):
            path = argv[k + 1]
        elif arg.startswith("--json="):
            path = arg[len("--json="):]
    return path


def _fail(verb: str, json_path, exc: Exception, code: int) -> int:
    out = _Output(verb, json_path)
    out.say(f"error: {exc}")
    out.payload["error"] = {"kind": type(exc).__name__, "message": str(exc)}
    try:
        return out.finish(False, code)
    except FormatError as unwritable:  # the --json record itself
        out.json_path = None
        if str(unwritable) != str(exc):
            out.say(f"error: {unwritable}")
        return out.finish(False, 2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
