"""Spans around pealab's layer functions, recorded from outside the package.

``Tracer.installed`` wraps each listed function and rebinds every name that
refers to it in the loaded ``pealab`` modules: ``from .pdp import f`` copies
the binding into the importing module, so patching only the defining module
would miss the calls that matter.  Every rebound name is restored on exit.

Spans are kept in memory as parallel lists (layer, parent span, start, end)
and summarised at the end; a layer's self time is its span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs timed by the traced run, outermost first.
# cli.main is the root span: its self time is what no listed layer covers.
LAYERS = (
    ("cli", "main"),
    ("catalog", "enumerate_posets"),
    ("catalog", "enumerate_pea_structures"),
    ("pea", "check_pea"),
    ("pea", "pea_to_pdp"),
    ("transfer", "generate_split_forks"),
    ("transfer", "transfer_structure"),
    ("transfer", "verify_coequalizer_psdpos"),
    ("transfer", "i_preserves_fork"),
    ("pdp", "enumerate_pdp_morphisms"),
    ("pdp", "check_pdp_morphism"),
    ("pdp", "check_pdp"),
    ("posets", "enumerate_morphisms"),
    ("posets", "coequalizer_posets"),
    ("functors", "interval_map"),
    ("functors", "interval_poset"),
    ("io", "dumps"),
)

# Layers whose returned list is counted, and the name of that count.
COUNTED = {
    "catalog.enumerate_posets": "classes",
    "catalog.enumerate_pea_structures": "tables",
    "pdp.enumerate_pdp_morphisms": "returned",
    "posets.enumerate_morphisms": "returned",
}

# Derived metrics: name -> (numerator, denominator), both metric names.
RATIOS = {
    # Tables accepted per full re-check; a weaker pruning rule lowers it.
    "catalog.recheck_accept_ratio": ("catalog.enumerate_pea_structures.tables",
                                     "pea.check_pea.calls"),
    # Difference-preserving maps per bounded-poset map scanned.
    "pdp.hom_accept_ratio": ("pdp.enumerate_pdp_morphisms.returned",
                             "posets.enumerate_morphisms.returned"),
}


def layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, fn in LAYERS:
        label = f"{module}.{fn}"
        units[f"{label}.calls"] = "count"
        units[f"{label}.s"] = "s"
        units[f"{label}.self_s"] = "s"
        if label in COUNTED:
            units[f"{label}.{COUNTED[label]}"] = "count"
    units["catalog.enumerate_pea_structures.max_class_s"] = "s"
    for name in RATIOS:
        units[name] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.labels = [f"{m}.{f}" for m, f in LAYERS]
        self.layer = []
        self.parent = []
        self.start = []
        self.end = []
        self.returned = [0] * len(LAYERS)
        self._stack = [-1]

    def _wrap(self, index: int, fn):
        counted = self.labels[index] in COUNTED
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, returned = self._stack, self.returned
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(layer)
            layer.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counted:
                returned[index] += len(result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every pealab name of every layer to its wrapper; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pealab" or name.startswith("pealab.")]
        rebound = []
        try:
            for index, (module, fn) in enumerate(LAYERS):
                original = getattr(sys.modules[f"pealab.{module}"], fn)
                wrapper = self._wrap(index, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
                            rebound.append((mod, name, original))
            yield self
        finally:
            for mod, name, original in reversed(rebound):
                setattr(mod, name, original)

    def metrics(self, repetitions: int) -> dict:
        """Per-layer metric values per verb repetition (without trace_overhead).

        Calls, times and counts are divided by ``repetitions``, the number of
        traced verb calls; max_class_s is the slowest span over all of them.
        """
        k = len(LAYERS)
        calls, total, self_time = [0] * k, [0.0] * k, [0.0] * k
        max_span = [0.0] * k
        for span, index in enumerate(self.layer):
            duration = self.end[span] - self.start[span]
            calls[index] += 1
            total[index] += duration
            self_time[index] += duration
            max_span[index] = max(max_span[index], duration)
            up = self.parent[span]
            if up >= 0:
                self_time[self.layer[up]] -= duration
        out = {}
        for index, label in enumerate(self.labels):
            out[f"{label}.calls"] = calls[index] / repetitions
            out[f"{label}.s"] = total[index] / repetitions
            out[f"{label}.self_s"] = self_time[index] / repetitions
            if label in COUNTED:
                out[f"{label}.{COUNTED[label]}"] = self.returned[index] / repetitions
        pea_search = self.labels.index("catalog.enumerate_pea_structures")
        out["catalog.enumerate_pea_structures.max_class_s"] = max_span[pea_search]
        for name, (num, den) in RATIOS.items():
            out[name] = out[num] / out[den] if out[den] else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write every span, times in seconds from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        spans = [
            [self.layer[i], self.parent[i],
             round(self.start[i] - origin, 7), round(self.end[i] - origin, 7)]
            for i in range(len(self.layer))
        ]
        path.write_text(json.dumps(
            {"layers": self.labels,
             "columns": ["layer", "parent_span", "start_s", "end_s"],
             "spans": spans},
            separators=(",", ":")))
