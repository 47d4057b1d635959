"""Block tasks: the same bits on one worker as on two."""

from __future__ import annotations

import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cyberprov.parallel as parallel
from cyberprov.compound import _BLOCK as _SCAN_BLOCK
from cyberprov.compound import CompensationGrid, DiscreteLossDistribution, compound_fft
from cyberprov.config import VARIANTS, build_contract, build_discretization
from cyberprov.severity import _BLOCK, _y_inverse
from cyberprov.solver import layer_tables
from oracles import FullLayerTable


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


def _same_tables(got: CompensationGrid, want: CompensationGrid) -> bool:
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(
            (got.comp, got._cum_p, got._cum_pc), (want.comp, want._cum_p, want._cum_pc)
        )
    )


class TestLayerTableWorkers:
    """The tables' block scans run as tasks: the same bits on any worker count."""

    def _check(self, monkeypatch, contracts, distributions):
        inline, threaded = _one_then_two(
            monkeypatch, lambda: layer_tables(contracts, distributions)
        )
        assert inline.keys() == threaded.keys()
        for (d, dtb, cap), grid in threaded.items():
            assert _same_tables(grid, inline[d, dtb, cap])
            assert _same_tables(grid, CompensationGrid(distributions[d], dtb, cap))
        return threaded

    def test_reference_tables(self, reference_context, monkeypatch):
        ctx = reference_context
        contracts = [build_contract(ctx.config, ctx.menu, 4.7, v) for v in VARIANTS]
        tables = self._check(monkeypatch, contracts, ctx.distributions)
        assert len(tables) == 4

    def test_scan_allocates_no_array(self, reference_context):
        # Every array is allocated with the table; the scan, which may run
        # on a worker thread, allocates less than one block buffer (256 KiB).
        dist = reference_context.distributions[0]
        scans = []
        grid = CompensationGrid(dist, 0.5, 1000.0, scans=scans)
        tracemalloc.start()
        try:
            scans.pop()()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**14
        assert _same_tables(grid, CompensationGrid(dist, 0.5, 1000.0))

    def test_cap_mid_block(self, reference_context, monkeypatch):
        # The first capped atom falls inside a block, the sums below it span
        # two or three blocks and those past it several: every entry, the
        # total included, must be the full-length cumsum's.
        block = _SCAN_BLOCK
        n = 5 * block + 123
        probs = np.random.default_rng(7).random(n)
        dist = DiscreteLossDistribution(atoms=np.arange(n, dtype=float), probs=probs / probs.sum())
        firsts = (block + block // 2 + 7, 3 * block - 5)
        contract = build_contract(reference_context.config, reference_context.menu, 4.7, "bm")
        sched = contract.schedules
        caps = np.full(sched.max_comp.shape, firsts[1] - 0.5)
        caps[0] = firsts[0] - 0.5
        schedules = replace(sched, deductible=np.full(caps.shape, 0.5), max_comp=caps)
        contracts = [replace(contract, schedules=schedules)]
        tables = self._check(monkeypatch, contracts, dict.fromkeys(contract.menu.measures, dist))
        assert len(tables) == 2 * len(contract.menu.measures)
        for (_, dtb, cap), grid in tables.items():
            m = len(grid.comp) - 1
            assert m in firsts and m % block
            full = FullLayerTable(dist, dtb, cap)
            assert np.array_equal(grid.comp[:m], full.comp[:m])
            assert np.array_equal(grid._cum_pc[: m + 1], full.cum_pc[: m + 1])
            assert grid._cum_pc[m + 1] == full.cum_pc[n]
            assert grid._cum_p[m + 1] == dist.cum_p[n]
