"""Block tasks: the same bits on one worker as on two."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

import cyberprov.parallel as parallel
from cyberprov.compound import compound_fft
from cyberprov.config import build_discretization
from cyberprov.severity import _BLOCK, _y_inverse


def _one_then_two(monkeypatch, fn):
    """``fn()`` with the helper held to one worker, then to two."""
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
    inline = fn()
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    return inline, fn()


class TestMapTasks:
    def test_worker_count_is_affinity(self):
        assert parallel.cpu_count() == len(os.sched_getaffinity(0))

    def test_without_affinity_counts_all_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parallel.cpu_count() == (os.cpu_count() or 1)

    def test_one_worker_runs_inline(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        here = threading.get_ident()
        assert parallel.map_tasks(lambda _: threading.get_ident(), range(3)) == [here] * 3

    def test_one_task_runs_inline(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        assert parallel.map_tasks(lambda _: threading.get_ident(), [0]) == [
            threading.get_ident()
        ]

    def test_two_threads_share_the_tasks(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        # Tasks 0 and 1 pass the barrier only while running at once.
        barrier = threading.Barrier(2, timeout=60)

        def task(x):
            if x < 2:
                barrier.wait()
            return x, threading.get_ident()

        out = parallel.map_tasks(task, range(9))
        assert [x for x, _ in out] == list(range(9))
        idents = {ident for _, ident in out}
        assert len(idents) == 2
        assert threading.get_ident() in idents

    def test_task_error_propagates(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)

        def task(x):
            if x == 3:
                raise ValueError("task 3")
            return x

        with pytest.raises(ValueError, match="task 3"):
            parallel.map_tasks(task, range(6))


@pytest.fixture(scope="module")
def midpoint_grids(reference_context):
    """``Y^{-1}`` arguments of the reference CDF sweep, one per measure."""
    ctx = reference_context
    disc = build_discretization(ctx.config)
    mids = np.arange(disc.n_atoms) * disc.step + 0.5 * disc.step
    sev = ctx.severity
    return sev, [(mids + ctx.menu.gammas[d] - sev.alpha) / sev.sigma for d in ctx.menu.measures]


class TestInverseWorkers:
    def test_reference_midpoint_grid(self, midpoint_grids, monkeypatch):
        sev, grids = midpoint_grids
        for y in grids:
            inline, threaded = _one_then_two(monkeypatch, lambda: _y_inverse(sev.g, sev.h, y))
            assert np.array_equal(inline, threaded)

    def test_nan_entries(self, midpoint_grids, monkeypatch):
        sev, grids = midpoint_grids
        y = grids[0][: 5 * _BLOCK + 17].copy()
        nan = np.zeros(y.shape, dtype=bool)
        nan[:: _BLOCK // 3] = True
        y[nan] = np.nan
        inline, threaded = _one_then_two(monkeypatch, lambda: _y_inverse(sev.g, sev.h, y))
        assert np.array_equal(inline, threaded, equal_nan=True)
        assert np.isnan(threaded[nan]).all()
        assert np.array_equal(threaded[~nan], _y_inverse(sev.g, sev.h, y[~nan]))

    def test_out_of_range_entry_is_minus_inf(self, monkeypatch):
        # With h = 0 the range of Y is (-1/g, inf): one value below it, in
        # the last of several blocks, inverts to -inf on any worker count
        # and leaves the other entries as they are without it.
        g = 1.8
        y = np.linspace(-0.5, 40.0, 3 * _BLOCK)
        y[-1] = np.nextafter(-1.0 / g, -np.inf)
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "cpu_count", lambda n=workers: n)
            z = _y_inverse(g, 0.0, y)
            assert z[-1] == -np.inf
            assert np.array_equal(z[:-1], _y_inverse(g, 0.0, y[:-1]))


def test_compound_fft_workers(reference_context, monkeypatch):
    ctx = reference_context
    disc = build_discretization(ctx.config)
    for d in ctx.menu.measures:
        gamma = ctx.menu.gammas[d]
        inline, threaded = _one_then_two(
            monkeypatch, lambda: compound_fft(ctx.severity, ctx.frequency, gamma, disc)
        )
        assert np.array_equal(inline.atoms, threaded.atoms)
        assert np.array_equal(inline.probs, threaded.probs)
