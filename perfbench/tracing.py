"""Span and counter tracing installed around cyberprov's public functions.

Nothing under ``src/`` knows about tracing: :func:`install` wraps functions
and methods at run time and :func:`uninstall` restores them. A module-level
function is replaced under every name that refers to it in any loaded
``cyberprov`` module, because ``sweep``, ``solver`` and ``cli`` import
``solve``, ``compound_fft`` and friends by name; a method is replaced on its
class, which covers every caller.

Two kinds of wrapper exist:

* a *span* records ``(name, start, end, parent, child_s, attrs)`` for every
  call and is used at layer boundaries that run a few thousand times per
  run at most;
* a *hot* wrapper is used for the per-query calls (``CompensationGrid``
  queries, ``index_range``, ``cut_below``, ``claim_level_array``; about
  three thousand per bm solve). It records no span, only a call count and
  the summed self time per (name, enclosing span name).

Self time of a span or hot call is its duration minus the time covered by
the spans and hot calls directly inside it. Spans stay in memory until
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, child_s, attrs)
        self.hot = {}  # (name, enclosing span name) -> [calls, self_s]
        # Open frames: [start, child_s, span index or -1, enclosing span name].
        self._stack = []

    def span(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [perf_counter(), 0.0, index, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - frame[0]
                spans[index] = (
                    name,
                    frame[0],
                    end,
                    parent[2] if parent is not None else -1,
                    frame[1],
                    None,
                )
            if attrs is not None:
                spans[index] = spans[index][:5] + (attrs(args, kwargs, result),)
            return result

        return wrapper

    def hot_call(self, name, fn):
        hot, stack = self.hot, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            owner = parent[3] if parent is not None else ""
            frame = [perf_counter(), 0.0, -1, owner]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                entry = hot.get((name, owner))
                if entry is None:
                    hot[(name, owner)] = [1, dur - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += dur - frame[1]

        return wrapper

    def dump(self, path, extra=None) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "child_s", "attrs"],
            "spans": self.spans,
            "hot": [
                {"name": n, "parent": p, "calls": c, "self_s": s}
                for (n, p), (c, s) in sorted(self.hot.items())
            ],
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _fft_attrs(args, kwargs, result):
    return {"atoms": int(result.probs.size)}


def _solve_attrs(args, kwargs, result):
    variant = "flat" if len(result.contract.rule.levels) == 1 else "bm"
    return {"variant": variant, "kernel_bytes": int(result.kernels.nbytes)}


def _simulate_attrs(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"path_years": int(cfg.n_paths) * int(args[0].contract.horizon)}


class _JsonWithDump:
    """Stand-in for ``json`` inside ``cyberprov.sweep`` with a traced ``dump``."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> list:
    """Wrap the traced entry points; returns the undo list for uninstall."""
    import cyberprov.compound as compound
    import cyberprov.config as config
    import cyberprov.contract as contract
    import cyberprov.intervals as intervals
    import cyberprov.severity as severity
    import cyberprov.simulate as simulate
    import cyberprov.solver as solver
    import cyberprov.sweep as sweep

    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("cyberprov")]

    def function(module, attr, wrap):
        orig = getattr(module, attr, None)
        if orig is None:
            return
        new = wrap(orig)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, name, orig))
                    setattr(mod, name, new)

    def method(cls, attr, wrap):
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            return
        undo.append((cls, attr, orig))
        setattr(cls, attr, wrap(orig))

    span, hot = tracer.span, tracer.hot_call

    function(config, "load_config", lambda f: span("config.load", f))
    function(config, "build_contract", lambda f: span("config.build_contract", f))
    for name in ("build_severity", "build_frequency", "build_menu", "build_discretization"):
        function(config, name, lambda f: span("config.build_model", f))

    for cls in (getattr(severity, "SeverityParams", None), getattr(severity, "LognormalParams", None)):
        method(cls, "cdf", lambda f: span("severity.cdf", f, _points))
        method(cls, "sample", lambda f: span("severity.sample", f, _points))

    function(compound, "compound_fft", lambda f: span("compound.fft", f, _fft_attrs))
    function(compound, "expected_aggregate_loss", lambda f: span("compound.expected_loss", f))
    grid = getattr(compound, "CompensationGrid", None)
    method(grid, "__post_init__", lambda f: span("compound.layer_grid_build", f))
    for name in ("probability", "expectation_above", "compensation_mass"):
        method(grid, name, lambda f: hot("compound.layer_query", f))

    function(intervals, "index_range", lambda f: hot("intervals", f))
    method(getattr(intervals, "Interval", None), "cut_below", lambda f: hot("intervals", f))

    function(solver, "solve", lambda f: span("solver.solve", f, _solve_attrs))
    function(solver, "occupancy_summaries", lambda f: span("solver.report", f))
    function(solver, "insurer_profit", lambda f: span("solver.report", f))

    method(getattr(contract, "BonusMalusRule", None), "claim_level_array",
           lambda f: hot("contract.claim_level", f))

    function(simulate, "simulate", lambda f: span("simulate.simulate", f, _simulate_attrs))

    context = getattr(sweep, "SweepContext", None)
    method(context, "__init__", lambda f: span("sweep.context", f))
    method(context, "solve_row", lambda f: span("sweep.row", f))
    function(sweep, "run_sweep", lambda f: span("sweep.run_sweep", f))
    function(sweep, "write_csv", lambda f: span("sweep.write", f))
    if getattr(sweep, "json", None) is json:
        undo.append((sweep, "json", json))
        sweep.json = _JsonWithDump(json, span("sweep.write", json.dump))
    return undo


def uninstall(undo: list) -> None:
    for owner, name, orig in reversed(undo):
        setattr(owner, name, orig)
