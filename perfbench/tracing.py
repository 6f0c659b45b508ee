"""In-process tracer: spans and counters around satqlink's public seams.

The tracer measures the package from outside. It replaces public module
attributes that the CLI calls through with wrappers and restores them when
the traced pass ends; no file of the package changes.

* A span wraps a coarse call (config builders, scenario evaluation and
  writers, the protocol solve and each ``solve_ivp`` phase, the kymograph
  writer). It records name, start, end, parent span and run id.
* A counter wraps a per-cell call (link budget, geometry, key rate, the
  radial Laplacian) and only counts, so tracing stays cheap; per-cell cost is
  derived from the enclosing span.

A seam that no longer exists is reported as absent, never as zero.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute): span name is "<module>.<attribute>".
SPAN_SEAMS = (
    ("config", "load_config"),
    ("config", "apply_overrides"),
    ("config", "scenario_config"),
    ("config", "ensemble_params"),
    ("scenario", "compare_scenarios"),
    ("scenario", "downlink_probability_map"),
    ("scenario", "gain_map"),
    ("scenario", "markdown_comparison"),
    ("scenario", "record_comparison"),
    ("scenario", "csv_comparison"),
    ("scenario", "linkmap_csv"),
    ("scenario", "gainmap_csv"),
    ("spindyn", "simulate_protocol"),
    ("spindyn", "solve_ivp"),
    ("spindyn", "write_kymograph_csv"),
)

# Calls the scenario layer makes into the modules beneath it are counted at
# that boundary (through scenario's own module references), so a nested call
# inside linkbudget is not counted twice.
BOUNDARY_COUNTERS = (
    ("scenario", "linkbudget", ("single_link_efficiency", "atmospheric_transmission",
                                "collected_fraction")),
    ("scenario", "geometry", ("elevation_from_slant_range", "slant_range_from_elevation",
                              "buffer_time")),
    ("scenario", "skr", ("yield_dual", "yield_buffered", "instantaneous_skr", "feasibility")),
)
COUNTER_SEAMS = (("spindyn", "radial_laplacian"),)


def _extra(name, args, result) -> dict:
    """Work done by one span, taken from its arguments or result."""
    if name in ("scenario.downlink_probability_map", "scenario.gain_map"):
        return {"cells": int(result.size)}
    if name in ("scenario.linkmap_csv", "scenario.gainmap_csv"):
        return {"rows": int(args[2].size)}
    if name == "spindyn.write_kymograph_csv":
        return {"rows": int(args[1].kymograph_alkali.size)}
    if name == "spindyn.solve_ivp":
        return {"nfev": int(result.nfev), "njev": int(result.njev),
                "nlu": int(result.nlu), "status": int(result.status)}
    return {}


class _CountingModule:
    """Stand-in for a module reference: counts calls to selected functions."""

    def __init__(self, module, names, counts: Counter, prefix: str):
        self._module = module
        for name in names:
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _key=f"{prefix}.{name}", **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            setattr(self, name, counted)

    def __getattr__(self, name):
        # Only reached for attributes that are not counted.
        return getattr(self._module, name)


class Tracer:
    """Records spans and counts for the passes run between install and remove."""

    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        span_id = len(self.spans)
        span = {"run": self.run_id, "id": span_id,
                "parent": self._stack[-1] if self._stack else None, "name": name}
        self.spans.append(span)
        self._stack.append(span_id)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        span.update(_extra(name, args, result))
        return result

    def _patch(self, module, attr, replacement):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for mod_name, attr in SPAN_SEAMS:
            module = getattr(self.package, mod_name)
            if not callable(getattr(module, attr, None)):
                self.absent.add(f"{mod_name}.{attr}")
                continue
            fn = getattr(module, attr)

            def spanned(*args, _fn=fn, _name=f"{mod_name}.{attr}", **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            self._patch(module, attr, spanned)
        for mod_name, ref, names in BOUNDARY_COUNTERS:
            module = getattr(self.package, mod_name)
            target = getattr(module, ref, None)
            present = [n for n in names if callable(getattr(target, n, None))]
            self.absent.update(f"{ref}.{n}" for n in names if n not in present)
            if present:
                self._patch(module, ref, _CountingModule(target, present, self.counts, ref))
        for mod_name, attr in COUNTER_SEAMS:
            module = getattr(self.package, mod_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(f"{mod_name}.{attr}")
                continue

            def counted(*args, _fn=fn, _key=f"{mod_name}.{attr}", **kwargs):
                self.counts[_key] += 1
                return _fn(*args, **kwargs)

            self._patch(module, attr, counted)

    def remove(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
