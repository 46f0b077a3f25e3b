"""Span tracing of fraclap's public functions from outside the library.

A `Tracer` wraps functions so that every call records a span.  A span's
self time is its duration minus the durations of the spans it directly
caused, so the self times of all spans plus the time outside any span add up
to the traced wall time.  The library runs its experiments on one thread
(`--threads 1`), so one stack of open spans suffices and no span waits on
another.

`traced(tracer)` installs the wrappers in every `fraclap.*` module namespace
that holds a traced function (the CLI imports names directly, so patching
the defining module alone would miss its calls) and restores the originals
on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# layer (fraclap module) -> public functions traced in it: those that the
# workloads call (README.md lists the ones left out)
LAYERS = {
    "space": ("fixture", "build_space"),
    "spectral": ("decompose", "heat_kernel", "heat_kernel_series", "subordination_check"),
    "quadrature": ("integrate_halfline",),
    "energy": ("besov_energy", "comparability_report", "stiffness_matrix"),
    "extension": ("build_grid",),
    "dirichlet": (
        "solve_spectral",
        "solve_extension",
        "strong_maximum_check",
        "maximum_principle_check",
    ),
}

# experiment kinds the workloads run, each reported as `cli.<kind>_s`
CLI_KINDS = ("heat_properties", "energy_comparability", "dirichlet_routes", "max_principle_batch")


class Tracer:
    """Per-function call counts and self times, plus the time in top-level
    spans (spans not caused by another traced span)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.top_s = 0.0
        self._child_s: list[float] = []  # per open span: time in its children

    def wrap(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self.calls[name] += 1
                self.self_s[name] += duration - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration
                else:
                    self.top_s += duration

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """`<layer>.<function>.self_s|calls` and `<layer>.self_s` for every
        function in LAYERS, zero for functions never called."""
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            total = 0.0
            for fn in functions:
                key = f"{layer}.{fn}"
                out[f"{key}.self_s"] = self.self_s.get(key, 0.0)
                out[f"{key}.calls"] = self.calls.get(key, 0)
                total += out[f"{key}.self_s"]
            out[f"{layer}.self_s"] = total
        return out


def _fraclap_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "fraclap" or name.startswith("fraclap."))
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install `tracer`'s wrappers for every function in LAYERS; restore the
    original objects on exit, also when the traced code raises."""
    modules = _fraclap_modules()
    patched = []  # (module, attribute, original)
    try:
        for layer, functions in LAYERS.items():
            home = sys.modules[f"fraclap.{layer}"]
            for fn in functions:
                original = getattr(home, fn)
                wrapper = tracer.wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    if getattr(mod, fn, None) is original:
                        setattr(mod, fn, wrapper)
                        patched.append((mod, fn, original))
        yield tracer
    finally:
        for mod, fn, original in reversed(patched):
            setattr(mod, fn, original)
