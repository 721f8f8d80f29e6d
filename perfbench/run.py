"""Benchmark of the pealab CLI verbs.

Run from the repository root:

    python3 perfbench/run.py --workload catalog6 --seed 2024 --seconds 36 --trace 0

One process is the only caller.  It runs the workload's verb in-process
through ``pealab.cli.main``, one repetition after another (a closed loop),
until ``--seconds`` is spent, and checks every output.  Times are normalised
by a host-speed probe timed during each repetition (see ``hostspeed.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time on untraced repetitions and then traces at least one repetition, and at
least 2 s of them, for the per-layer metrics, given per repetition.
The last line of standard output is the JSON result; the full record (machine,
commit, every repetition) and the traced spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
from tracing import Tracer, layer_metric_units
from workloads import DEFAULT_SEED, OutputMismatch, make_workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 21

# The traced run traces repetitions until they add up to this many seconds.
TRACED_SECONDS = 2.0

# Seed offset between repetitions: repetition i runs the verb with seed
# ``seed + i * SEED_STRIDE``, so a run averages over several inputs.
SEED_STRIDE = 1_000_000

# Probes the set-up child times after its set-up, to normalise it.
SETUP_PROBES = 20

# Child process for setup_s: import pealab and parse the verb's arguments,
# then print the monotonic clock, which on Linux is shared by all processes,
# and the times of SETUP_PROBES host-speed probes taken after that instant.
_SETUP_CHILD = (
    "import sys, time\n"
    "from pealab.cli import build_parser\n"
    "build_parser().parse_args(sys.argv[1:])\n"
    "now = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
    "import hostspeed\n"
    f"print(now, *[hostspeed.probe() for _ in range({SETUP_PROBES})])\n"
)


class MissingSource(Exception):
    """The checkout lacks the pealab sources or the committed catalog."""


def import_cli(root: Path):
    """Import pealab.cli from ``root/src``, never from an installed copy."""
    package = root / "src" / "pealab"
    for needed in (package / "cli.py", root / "catalog.json"):
        if not needed.is_file():
            raise MissingSource(f"{needed} not found; run from a pealab checkout")
    sys.path.insert(0, str(root / "src"))
    from pealab import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"imported pealab from {cli.__file__}, not {package}")
    return cli


@contextlib.contextmanager
def environment(values: dict):
    saved = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def repetition_seed(seed: int, index: int) -> int:
    return seed + index * SEED_STRIDE


def run_verb(cli, workload, seed: int, root: Path, workspace: Path):
    """One checked repetition: (seconds, normalised seconds, units completed).

    Raises on failure.  The probe handler's time is not counted.
    """
    with tempfile.TemporaryDirectory(dir=workspace) as tmp:
        workdir = Path(tmp)
        report = workdir / "report.json"
        argv = workload.argv(seed, workdir) + ["--json", str(report)]
        captured = io.StringIO()
        with hostspeed.sampling() as samples:
            start = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
            elapsed = time.perf_counter() - start - samples.busy
        if code != 0:
            tail = captured.getvalue().strip().splitlines()[-3:]
            raise OutputMismatch(f"exit {code}: {' | '.join(tail)}")
        units = workload.check(workdir, json.loads(report.read_text()), root)
    return elapsed, samples.normalise(elapsed), units


class Loop:
    """Closed-loop repetitions with their times and failures."""

    def __init__(self):
        self.times: list[float] = []
        self.norm_times: list[float] = []
        self.units: list[int] = []
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times) + self.failed

    def once(self, cli, workload, seed, root, workspace) -> float:
        """Run repetition number ``attempted``; returns the seconds it took."""
        seed = repetition_seed(seed, self.attempted)
        start = time.perf_counter()
        try:
            elapsed, norm, units = run_verb(cli, workload, seed, root, workspace)
        except Exception as exc:  # a failed repetition is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - start
        self.times.append(elapsed)
        self.norm_times.append(norm)
        self.units.append(units)
        return elapsed

    def run_for(self, seconds, cli, workload, seed, root, workspace) -> None:
        """Repeat until the next repetition would likely end past the deadline."""
        deadline = time.perf_counter() + seconds
        durations = []
        while True:
            durations.append(self.once(cli, workload, seed, root, workspace))
            if time.perf_counter() + statistics.median(durations) > deadline:
                return


def measure_setup(root: Path, argv: list, repeats: int) -> tuple:
    """Median (seconds, normalised seconds) from spawning ``python3`` to
    pealab imported and the arguments parsed.

    Each child is normalised by probes it times itself right after its
    set-up; probes timed in this process while it waited tracked the child
    worse.
    """
    child_env = {**os.environ, "PYTHONPATH": str(root / "src")}
    raw, norm = [], []
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, *argv],
            cwd=root, env=child_env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        now, *probes = map(float, proc.stdout.split())
        raw.append(now - start)
        norm.append(hostspeed.Samples(probes).normalise(now - start))
    return statistics.median(raw), statistics.median(norm)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "pealab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(root: Path, workload, seed: int) -> dict:
    return {
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "PEALAB_MAX_N": os.environ.get("PEALAB_MAX_N"),
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
        "moves": workload.moves,
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(cli, workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS):
    """Measure one workload; returns (result, record)."""
    root = ROOT
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    loop = Loop()
    traced = Loop()
    with environment(workload.env):
        record = machine_record(root, workload, seed)
        if not trace:
            setup_raw, setup = measure_setup(root, workload.argv(seed, out),
                                             setup_repeats)
            record["setup_raw_s"] = setup_raw
            loop.run_for(seconds, cli, workload, seed, root, out)
        else:
            loop.run_for(seconds / 2, cli, workload, seed, root, out)
            # A fresh Loop restarts the repetition seeds, so the traced
            # repetitions, and their counts, repeat for a given --seed.
            tracer = Tracer()
            with tracer.installed():
                while (not traced.attempted
                       or sum(traced.times) < min(TRACED_SECONDS, seconds / 2)):
                    traced.once(cli, workload, seed, root, out)
            tracer.write(out / f"trace_{workload.name}.json")
    attempted = loop.attempted + traced.attempted
    failed = loop.failed + traced.failed
    correct = failed == 0
    metrics = {}
    if correct and not trace:
        metrics = _metrics({
            "norm_wall_s": statistics.median(loop.norm_times),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - failed / attempted,
        }, END_TO_END_UNITS)
    elif correct:
        values = tracer.metrics(len(traced.times))
        # Traced repetition i against untraced repetition i: same seed.
        values["trace_overhead"] = statistics.median(
            t / u for t, u in zip(traced.norm_times, loop.norm_times))
        metrics = _metrics(values, layer_metric_units())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(seconds=seconds, trace=trace, repetitions_s=loop.times,
                  norm_repetitions_s=loop.norm_times, units=loop.units,
                  traced_repetitions_s=traced.times, unit=workload.unit,
                  errors=loop.errors + traced.errors, result=result)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(make_workloads()))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli(ROOT)
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = make_workloads()[args.workload]
    result, record = run_workload(cli, workload, args.seed, args.seconds,
                                  bool(args.trace))
    name = f"result_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    (ROOT / OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
