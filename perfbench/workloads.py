"""The benchmark's workloads: which pealab verb each runs, and how its output is checked.

Each workload is one CLI invocation, sized so that a single repetition takes
seconds on a 2-core machine.  The sizes are parameters only so that the
self-test can run the same code on tiny inputs; the benchmark uses the
defaults of ``make_workloads``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Bounded-poset classes on n = 1..8 elements: OEIS A000112 (posets on n-2
# points) shifted by two, with n = 1 the one-element poset.
BOUNDED_POSET_CLASSES = (1, 1, 1, 2, 5, 16, 63, 318)

# verify-coeq seed used when none is given.
DEFAULT_SEED = 2024


class OutputMismatch(Exception):
    """A verb exited non-zero or produced an output that fails its check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OutputMismatch(message)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # What one repetition completes, as returned by ``check``.
    unit: str
    # End-to-end metric -> the per-layer metrics expected to move it here.
    moves: dict
    # Environment the verb needs, e.g. a raised PEALAB_MAX_N.
    env: dict
    # (seed, work directory) -> CLI arguments.
    argv: Callable[[int, Path], list]
    # (work directory, --json payload, repository root) -> units completed;
    # raises OutputMismatch.
    check: Callable[[Path, dict, Path], int]


def _catalog(n: int) -> Workload:
    def argv(seed, workdir):
        return ["enumerate", "--n", str(n), "--structures",
                "-o", str(workdir / "catalog.json")]

    def check(workdir, payload, root):
        produced = (workdir / "catalog.json").read_bytes()
        committed = (root / "catalog.json").read_bytes()
        committed_obj = json.loads(committed)
        if n == committed_obj["max_n"]:
            _require(produced == committed,
                     "catalog output differs from the committed catalog.json")
        else:
            expected = [e for e in committed_obj["entries"] if e["n"] <= n]
            _require(json.loads(produced)["entries"] == expected,
                     f"catalog entries up to n={n} differ from catalog.json")
        return sum(sum(row["structures"]) for row in payload["summary"])

    return Workload(
        name=f"catalog{n}",
        why=(f"enumerate --n {n} --structures: the catalog, ~99% in the "
             "addition-table search; poset classes cost ~5 ms"),
        unit="tables",
        moves={
            "norm_wall_s": [
                "catalog.enumerate_pea_structures.s",
                "catalog.enumerate_pea_structures.self_s",
                "catalog.enumerate_pea_structures.max_class_s",
                "pea.check_pea.s",
                "catalog.recheck_accept_ratio",
                "io.dumps.s",
            ],
        },
        env={},
        argv=argv,
        check=check,
    )


def _coeq(forks: int) -> Workload:
    def argv(seed, workdir):
        return ["verify-coeq", "--generate", str(forks), "--seed", str(seed),
                "--max-target-n", "5"]

    def check(workdir, payload, root):
        _require(payload["failures"] == 0,
                 f"verify-coeq reported {payload['failures']} failures")
        _require(payload["forks"] == forks,
                 f"verify-coeq ran {payload['forks']} forks, not {forks}")
        return payload["forks"]

    transfer = [
        f"transfer.{fn}.{m}"
        for fn in ("generate_split_forks", "transfer_structure",
                   "verify_coequalizer_psdpos", "i_preserves_fork")
        for m in ("s", "self_s")
    ]
    return Workload(
        name="coeq5",
        why=(f"verify-coeq --generate {forks} --max-target-n 5: ~96% in PDP "
             "morphism enumeration; the catalog part is ~1%; only user of --seed"),
        unit="forks",
        moves={
            "norm_wall_s": [
                "pdp.enumerate_pdp_morphisms.calls",
                "pdp.enumerate_pdp_morphisms.s",
                "pdp.enumerate_pdp_morphisms.self_s",
                "posets.enumerate_morphisms.s",
                "pdp.check_pdp_morphism.calls",
                "pdp.check_pdp_morphism.s",
                "pdp.hom_accept_ratio",
                *transfer,
                "functors.interval_map.s",
                "functors.interval_poset.s",
                "posets.coequalizer_posets.s",
                "pdp.check_pdp.s",
                "pea.pea_to_pdp.s",
            ],
        },
        env={},
        argv=argv,
        check=check,
    )


def _classes(n: int) -> Workload:
    def argv(seed, workdir):
        return ["enumerate", "--n", str(n)]

    def check(workdir, payload, root):
        counts = tuple(row["classes"] for row in payload["summary"])
        _require(counts == BOUNDED_POSET_CLASSES[:n],
                 f"class counts {counts} differ from A000112")
        return sum(counts)

    return Workload(
        name=f"classes{n}",
        why=(f"enumerate --n {n} (classes only): all in enumerate_posets and its "
             "m! canonical form; the only workload for poset-class generation"),
        unit="classes",
        moves={
            "norm_wall_s": ["catalog.enumerate_posets.s",
                            "catalog.enumerate_posets.self_s"],
        },
        env={"PEALAB_MAX_N": str(n)},
        argv=argv,
        check=check,
    )


def make_workloads(catalog_n: int = 6, forks: int = 120,
                   classes_n: int = 7) -> dict:
    """The benchmark's workloads by name, at the given sizes."""
    return {w.name: w for w in (_catalog(catalog_n), _coeq(forks),
                                _classes(classes_n))}
