"""Fast self-test of the benchmark on tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``; the
repository's own test suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import hostspeed
import run
from tracing import LAYERS, layer_metric_units
from workloads import OutputMismatch, make_workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = make_workloads(catalog_n=4, forks=3, classes_n=5)


@pytest.fixture(scope="module")
def cli():
    return run.import_cli(run.ROOT)


def _pealab_modules():
    return {name: m for name, m in sys.modules.items()
            if name == "pealab" or name.startswith("pealab.")}


def _units(specs):
    return {m["name"]: m["unit"] for m in specs}


def test_spec_matches_the_code():
    workloads = make_workloads()
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.items()}
    assert _units(SPEC["end_to_end"]) == run.END_TO_END_UNITS
    assert _units(SPEC["per_layer"]) == layer_metric_units()


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(cli, name):
    result, record = run.run_workload(cli, TINY[name], 2024, 0.0, False,
                                      setup_repeats=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("commit", "python", "nproc", "cpu_model", "PEALAB_MAX_N",
                "seed", "why", "moves"):
        assert key in record


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_layers_and_removes_its_wrappers(cli, name):
    before = {mod: dict(vars(m)) for mod, m in _pealab_modules().items()}
    result, _ = run.run_workload(cli, TINY[name], 2024, 0.0, True)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        layer_metric_units()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] == 1
    assert metrics["trace_overhead"] > 0
    for mod, m in _pealab_modules().items():
        for attr, value in vars(m).items():
            assert not hasattr(value, "__wrapped__"), f"{mod}.{attr}"
            if attr in before.get(mod, {}):
                assert value is before[mod][attr], f"{mod}.{attr}"
    for module, fn in LAYERS:
        assert getattr(sys.modules[f"pealab.{module}"], fn).__module__ == \
            f"pealab.{module}"


def test_traced_counts_cover_the_exercised_layers(cli):
    result, _ = run.run_workload(cli, TINY["coeq5"], 2024, 0.0, True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["transfer.transfer_structure.calls"] == 3
    assert metrics["pdp.enumerate_pdp_morphisms.returned"] > 0
    assert 0 < metrics["pdp.hom_accept_ratio"] <= 1
    assert metrics["catalog.recheck_accept_ratio"] == 1.0


def test_repetitions_run_distinct_seeds_starting_with_the_given_one(cli):
    seen = []

    def argv(seed, workdir):
        seen.append(seed)
        return TINY["coeq5"].argv(seed, workdir)

    recording = dataclasses.replace(TINY["coeq5"], argv=argv)
    loop = run.Loop()
    for _ in range(3):
        loop.once(cli, recording, 2024, run.ROOT, run.ROOT / run.OUT_DIR)
    assert loop.failed == 0
    assert seen[0] == 2024 and len(set(seen)) == 3


def test_host_speed_sampling_counts_its_probes_and_restores_the_handler():
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with hostspeed.sampling(interval=0.01) as samples:
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                pass
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    # One probe before, one after, and several from the timer in between.
    assert len(samples.times) >= 4
    assert 0 < samples.busy < 0.1
    assert samples.speed() > 0
    assert samples.normalise(2.0) == pytest.approx(2.0 * samples.speed())


def test_a_failed_check_counts_and_gives_no_number(cli):
    def reject(workdir, payload, root):
        raise OutputMismatch("rejected on purpose")

    broken = dataclasses.replace(TINY["classes5"], check=reject)
    result, record = run.run_workload(cli, broken, 2024, 0.0, False,
                                      setup_repeats=1)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["metrics"] == {}
    assert record["errors"] == ["OutputMismatch: rejected on purpose"]


def test_refuses_to_run_without_the_sources():
    out = run.ROOT / run.OUT_DIR
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "catalog6",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
