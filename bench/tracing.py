"""Spans around rabsim's public functions, and the per-layer metrics from them.

:func:`install` replaces every public function of ``rabsim.cli``,
``rabsim.analysis``, ``rabsim.dynamics`` and ``rabsim.models`` (and the
``TimeGrid.build`` constructor) with a wrapper that records a span: name,
start, end, parent span, and the work counts read from the call's arguments
and result.  The wrappers are installed from outside; ``src/`` is not
edited.  Spans are kept in memory and written out once the run ends.

The package calls these functions through module attributes
(``dynamics.propagate_process(...)``) or module globals, so replacing the
attribute on the module is enough for every call to pass through its
wrapper.  Only the process that installs the wrappers records spans, which
is why the traced run caps the sweeps' pool at one worker.
"""

from __future__ import annotations

import functools
import inspect
import time

BYTES_PER_DENSITY_MATRIX = 81 * 16  # 9x9 complex128
PROCESS_BATCH = 16  # Hermitian seed matrices of one process-map propagation
MB = 1e6


def _propagator_counts(batch: int, step_factor: int = 1, trajectories: int = 1):
    """Counts for a propagator called as f(params, [state,] grid, ...).

    It runs ``step_factor`` times the grid's steps and keeps ``trajectories``
    trajectories of ``batch`` matrices per stored sample.
    """

    def counts(args, kwargs, result):
        grid = kwargs.get("grid") or next(a for a in args if hasattr(a, "n_steps"))
        stored = len(grid.sample_steps) * batch * trajectories
        return {"steps": grid.n_steps * step_factor,
                "trajectory_bytes": stored * BYTES_PER_DENSITY_MATRIX}

    return counts


# Work counts read at the layer boundaries, keyed by span name.
COUNTS = {
    "dynamics.propagate_process": _propagator_counts(PROCESS_BATCH),
    "dynamics.propagate_density": _propagator_counts(1),
    "dynamics.propagate_state": _propagator_counts(1),
    # One run at dt and one at dt/2, both kept: 1 + 2 grids' worth of steps.
    "dynamics.convergence_check": _propagator_counts(1, step_factor=3, trajectories=2),
    "dynamics.TimeGrid.build": lambda a, k, grid: {"steps": grid.n_steps},
    "analysis.fidelity_time_series": lambda a, k, report: {"samples": len(report.fbar)},
    "analysis.average_gate_fidelity": lambda a, k, report: {"samples": len(report.fbar)},
    "analysis.sweep_heatmap": lambda a, k, grid: {"cells": int(grid.p_rr.size)},
    "analysis.fidelity_vs_gamma": lambda a, k, points: {"points": len(points)},
}

LAYER_MODULES = ("cli", "analysis", "dynamics", "models")


class Recorder:
    """In-memory span list; a stack gives each span its parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None, "counts": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return traced


def install(rabsim) -> Recorder:
    """Wrap the public functions of the four layer modules of ``rabsim``."""
    recorder = Recorder()
    for short in LAYER_MODULES:
        module = getattr(rabsim, short)
        for name, obj in list(vars(module).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                setattr(module, name, recorder.wrap(f"{short}.{name}", obj))
    grid_cls = rabsim.dynamics.TimeGrid
    grid_cls.build = classmethod(recorder.wrap("dynamics.TimeGrid.build", grid_cls.build.__func__))
    return recorder


def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one traced scenario run, in seconds and counts.

    ``<layer>.s`` is the total time inside that layer's spans; the
    fidelity and ``cli.self.s`` figures are self times (a span minus the
    spans it called, which run inside it one after another).
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)

    def ancestors(index):
        parent = spans[index]["parent"]
        while parent is not None:
            yield spans[parent]["name"]
            parent = spans[parent]["parent"]

    def self_time(index):
        return _duration(spans[index]) - sum(_duration(spans[c]) for c in children.get(index, ()))

    def named(name):
        return [i for i, span in enumerate(spans) if span["name"] == name]

    def total(name):
        return sum(_duration(spans[i]) for i in named(name))

    def count(name, key):
        return sum(spans[i]["counts"].get(key, 0) for i in named(name))

    propagators = ("dynamics.propagate_process", "dynamics.propagate_density",
                   "dynamics.propagate_state", "dynamics.convergence_check")
    # The heatmap's columns run the batched RK4 directly on grids from
    # TimeGrid.build, so those grids count as propagated steps too.
    column_steps = sum(spans[i]["counts"]["steps"] for i in named("dynamics.TimeGrid.build")
                       if "analysis.sweep_heatmap" in ancestors(i))
    trajectory = max((spans[i]["counts"]["trajectory_bytes"] for name in propagators
                      for i in named(name)), default=0)

    process_s = total("dynamics.propagate_process")
    process_steps = count("dynamics.propagate_process", "steps")
    fidelity = named("analysis.fidelity_time_series") + named("analysis.average_gate_fidelity")
    fidelity_s = sum(self_time(i) for i in fidelity)
    fidelity_samples = sum(spans[i]["counts"]["samples"] for i in fidelity)
    heatmap_s = total("analysis.sweep_heatmap")
    cells = count("analysis.sweep_heatmap", "cells")
    models_s = sum(_duration(span) for i, span in enumerate(spans)
                   if span["name"].startswith("models.")
                   and not any(a.startswith("models.") for a in ancestors(i)))
    return {
        "dynamics.propagate_process.s": process_s,
        "dynamics.propagate_process.us_per_step":
            1e6 * process_s / process_steps if process_steps else 0.0,
        "dynamics.propagate_density.s": total("dynamics.propagate_density"),
        "dynamics.convergence_check.s": total("dynamics.convergence_check"),
        "dynamics.grid_steps": sum(count(name, "steps") for name in propagators) + column_steps,
        "dynamics.trajectory_mb": trajectory / MB,
        "analysis.fidelity.s": fidelity_s,
        "analysis.fidelity.samples": fidelity_samples,
        "analysis.fidelity.us_per_sample":
            1e6 * fidelity_s / fidelity_samples if fidelity_samples else 0.0,
        "analysis.sweep_heatmap.s": heatmap_s,
        "analysis.heatmap.ms_per_cell": 1e3 * heatmap_s / cells if cells else 0.0,
        "analysis.fidelity_vs_gamma.s": total("analysis.fidelity_vs_gamma"),
        "cli.parse.s": total("cli.parse_config"),
        "models.s": models_s,
        "cli.self.s": sum(self_time(i) for i in named("cli.run_scenario")),
    }
