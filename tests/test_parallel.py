"""Block tasks: the same bits on one worker as on two."""

from __future__ import annotations

import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

import cyberprov.compound as compound
import cyberprov.parallel as parallel
from cyberprov.compound import _BLOCK as _SCAN_BLOCK
from cyberprov.compound import (
    CompensationGrid,
    DiscreteLossDistribution,
    build_tables,
    compound_fft,
)
from cyberprov.config import VARIANTS, build_contract, build_discretization
from cyberprov.contract import MitigationMenu
from cyberprov.severity import _BLOCK, LognormalParams, _y_inverse
from cyberprov.solver import layer_tables
from oracles import FullLayerTable, one_table


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


def test_lognormal_cdf_workers(monkeypatch):
    # Blocks of the log-normal CDF, the last one short, on one worker and
    # on two: the bits of the plain expression, 0 at and below 0, NaN for
    # NaN, the shape kept and a float for a 0-d argument.
    law = LognormalParams(mu=0.5, s=1.2)
    x = np.linspace(-1.0, 60.0, 3 * _BLOCK + 17)
    x[[0, 5, _BLOCK, -1]] = [np.nan, 0.0, -0.0, np.inf]
    inline, threaded = _one_then_two(monkeypatch, lambda: law.cdf(x))
    with np.errstate(divide="ignore"):
        want = ndtr((np.log(np.maximum(x, 1e-300)) - law.mu) / law.s)
    want[x <= 0] = 0.0
    assert inline.tobytes() == threaded.tobytes() == want.tobytes()
    grid = law.cdf(x[1:].reshape(16, -1))
    assert grid.shape == (16, (x.size - 1) // 16)
    assert grid.tobytes() == want[1:].tobytes()
    at_two = law.cdf(2.0)
    assert type(at_two) is float
    assert at_two == ndtr((np.log(2.0) - law.mu) / law.s)


def _same_tables(got: CompensationGrid, want: CompensationGrid) -> bool:
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip((got.comp, got.cum_p, got.cum_pc), (want.comp, want.cum_p, want.cum_pc))
    )


def _same_as_full_length(grid: CompensationGrid, distributions, key) -> bool:
    """Every entry of the table at ``key`` on ``distributions`` bytewise
    equal to the full-length tables' (the cumsum oracle), which are the
    entries a table had when it was scanned alone."""
    d, dtb, cap = key
    dist, m = distributions[d], len(grid.comp) - 1
    n = len(dist.probs)
    full = FullLayerTable(dist, dtb, cap)
    want = (
        np.append(full.comp[:m], cap),
        np.append(full.cum_p[: m + 1], full.cum_p[n]),
        np.append(full.cum_pc[: m + 1], full.cum_pc[n]),
    )
    got = (grid.comp, grid.cum_p, grid.cum_pc)
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _mid_block_dists(n):
    """Two distributions on the grid ``0..n-1`` with different probabilities."""
    out = []
    for seed in (7, 8):
        probs = np.random.default_rng(seed).random(n)
        probs /= probs.sum()
        out.append(DiscreteLossDistribution(atoms=np.arange(n, dtype=float), probs=probs))
    return out


class TestLayerTableWorkers:
    """The tables' paired block scans run as tasks: the same bits on any
    worker count, in either lane, as a table scanned alone."""

    def _check(self, monkeypatch, contracts, distributions):
        inline, threaded = _one_then_two(
            monkeypatch, lambda: layer_tables(contracts, distributions)
        )
        assert inline.keys() == threaded.keys()
        for (d, dtb, cap), grid in threaded.items():
            assert _same_tables(grid, inline[d, dtb, cap])
            assert _same_tables(grid, one_table(distributions[d], dtb, cap))
        return threaded

    def test_reference_tables(self, reference_context, monkeypatch):
        ctx = reference_context
        contracts = [build_contract(ctx.config, ctx.menu, 4.7, v) for v in VARIANTS]
        tables = self._check(monkeypatch, contracts, ctx.distributions)
        assert len(tables) == 4

    def test_scan_allocates_no_array(self, reference_context, monkeypatch):
        # Every array is allocated before the tasks start: each task, which
        # may run on a worker thread, fills and scans one distribution's two
        # tables, and allocates less than a sixteenth of a block buffer.
        refs = reference_context.distributions
        dists = {d: DiscreteLossDistribution(atoms=r.atoms, probs=r.probs) for d, r in refs.items()}
        peaks = []

        def traced(fn, items):
            for item in items:
                tracemalloc.start()
                try:
                    fn(item)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

        monkeypatch.setattr(compound, "map_tasks", traced)
        tables = build_tables(dists, [(d, dtb, 1000.0) for d in dists for dtb in (0.5, 5.0)])
        monkeypatch.undo()
        assert len(peaks) == len(dists) == 2  # one task per distribution
        assert max(peaks) < 2**14
        for (d, dtb, cap), grid in tables.items():
            assert _same_tables(grid, one_table(refs[d], dtb, cap))
            assert _same_as_full_length(grid, dists, (d, dtb, cap))

    def test_shared_distribution_is_one_task(self, monkeypatch):
        # One distribution under two measures, as test_cap_mid_block passes
        # it: its four tables are filled by one task.
        dist, _ = _mid_block_dists(2 * _SCAN_BLOCK + 9)
        tasks = []

        def recording(fn, items):
            tasks.extend(items)
            return parallel.map_tasks(fn, items)

        monkeypatch.setattr(compound, "map_tasks", recording)
        keys = [(d, 0.5, cap) for d in (0, 1) for cap in (7.25, 1000.0)]
        dists = {0: dist, 1: dist}
        tables = build_tables(dists, keys)
        assert len(tasks) == 1
        assert list(tables) == keys
        for key, grid in tables.items():
            assert _same_as_full_length(grid, dists, key)

    def test_build_leaves_distributions_unchanged(self, reference_context):
        # The tables sum their own probabilities: a build caches nothing on
        # the distributions it reads, cold or warm.
        dists = {**reference_context.distributions, 2: _mid_block_dists(2 * _SCAN_BLOCK + 9)[0]}
        before = {d: dict(vars(dist)) for d, dist in dists.items()}
        keys = [(d, dtb, cap) for d in dists for dtb in (0.5, 5.0) for cap in (7.25, 1000.0)]
        for _ in range(2):
            build_tables(dists, keys)
            for d, dist in dists.items():
                assert vars(dist).keys() == before[d].keys()
                assert all(vars(dist)[name] is value for name, value in before[d].items())

    def test_pair_on_two_distributions(self, monkeypatch):
        # Each table's first capped atom falls mid-block, one in the second
        # block and one in the third. On one distribution the two tables
        # pair, in either lane order, and the blocks start at both; on two
        # distributions each table pairs with itself. Each lane must still
        # carry its own table's full-length cumsum.
        n = 5 * _SCAN_BLOCK + 123
        first, second = _mid_block_dists(n)
        m = (_SCAN_BLOCK + _SCAN_BLOCK // 2 + 7, 3 * _SCAN_BLOCK - 5)
        for dists in ((first, first), (first, second)):
            for order in ((0, 1), (1, 0)):
                keys = [(j, 0.5, m[k] - 0.5) for j, k in enumerate(order)]
                inline, threaded = _one_then_two(
                    monkeypatch, lambda: build_tables(dict(enumerate(dists)), keys)
                )
                for (j, dtb, cap), grid in threaded.items():
                    assert len(grid.comp) - 1 in m and (len(grid.comp) - 1) % _SCAN_BLOCK
                    assert _same_tables(grid, inline[j, dtb, cap])
                    assert _same_tables(grid, one_table(dists[j], dtb, cap))
                    assert _same_as_full_length(grid, dict(enumerate(dists)), (j, dtb, cap))

    def test_pair_with_no_atom_or_every_atom_below_the_cap(self, monkeypatch):
        # cap 0 caps every atom (m = 0); a cap above every compensation caps
        # none (m = n), so the total is the last prefix sum.
        n = 2 * _SCAN_BLOCK + 9
        first, second = _mid_block_dists(n)
        keys = [(0, 0.5, 0.0), (1, 0.5, float(n))]
        for dists in ((first, first), (first, second)):
            inline, threaded = _one_then_two(
                monkeypatch, lambda: build_tables(dict(enumerate(dists)), keys)
            )
            assert [len(threaded[key].comp) - 1 for key in keys] == [0, n]
            for key, grid in threaded.items():
                assert _same_tables(grid, inline[key])
                assert _same_as_full_length(grid, dict(enumerate(dists)), key)

    def test_odd_key_count(self, reference_context, monkeypatch):
        # One measure and three (deductible, cap) pairs: three tables, the
        # last of which pairs with itself.
        n = 3 * _SCAN_BLOCK + 77
        dist, _ = _mid_block_dists(n)
        contract = build_contract(reference_context.config, reference_context.menu, 4.7, "bm")
        sched = contract.schedules
        deductibles = np.full(sched.deductible.shape, 0.5)
        caps = np.full(sched.max_comp.shape, 2.5 * _SCAN_BLOCK)
        caps[0] = _SCAN_BLOCK + 3.0
        deductibles[1] = caps[1] = 7.25
        one_measure = replace(
            contract,
            menu=MitigationMenu(betas=(0.0,), gammas=(0.0,)),
            schedules=replace(sched, deductible=deductibles, max_comp=caps),
        )
        tables = self._check(monkeypatch, [one_measure], {0: dist})
        assert len(tables) == 3
        for key, grid in tables.items():
            assert _same_as_full_length(grid, {0: dist}, key)

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
            assert np.array_equal(grid.cum_p[: m + 1], full.cum_p[: m + 1])
            assert np.array_equal(grid.cum_pc[: m + 1], full.cum_pc[: m + 1])
            assert grid.cum_pc[m + 1] == full.cum_pc[n]
            assert grid.cum_p[m + 1] == full.cum_p[n]


class TestTablePool:
    """One build carves every table's arrays out of one pool, which it
    write-protects; the entries are the full-length tables' on any block
    size, worker count and pairing."""

    def test_one_write_protected_base(self):
        dists = dict(enumerate(_mid_block_dists(2 * _SCAN_BLOCK + 9)))
        keys = [(d, dtb, cap) for d in dists for dtb in (0.5, 3.5) for cap in (7.25, 1000.0)]
        tables = build_tables(dists, keys)
        arrays = [a for grid in tables.values() for a in (grid.comp, grid.cum_p, grid.cum_pc)]
        pool = arrays[0].base
        assert all(a.base is pool for a in arrays)
        assert pool.size == sum(a.size for a in arrays)
        assert not pool.flags.writeable
        with pytest.raises(ValueError):
            tables[0, 0.5, 7.25].cum_pc.base[0] = 1.0
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])

    @pytest.mark.parametrize("block", [8, 64])
    def test_small_blocks_match_full_length(self, monkeypatch, block):
        # Blocks of a few atoms, so that each pair's blocks straddle its first
        # capped atoms (m = dtb + cap on the grid 0..n-1), one per task:
        # measure 0 pairs two tables with one cap and both cuts in one block,
        # measure 1 two caps, measure 2 one cap with the cuts two blocks
        # apart, measure 3 caps 0.0 and -0.0, which weight the atoms apart
        # (a config may give -0.0), and measure 4 is a lone table.
        monkeypatch.setattr(compound, "_BLOCK", block)
        n = 40 * block + 5
        laws = _mid_block_dists(n) * 3
        dists = {d: DiscreteLossDistribution(atoms=law.atoms, probs=law.probs)
                 for d, law in enumerate(laws[:5])}
        cap = 11 * block + 2.5
        keys = [(0, 0.5, cap), (0, 3.5, cap), (1, 0.5, cap), (1, 0.5, 23 * block + 4.5),
                (2, 0.5, cap), (2, 2 * block + 0.5, cap), (3, 0.5, 0.0), (3, 1.5, -0.0),
                (4, 3.5, 30 * block - 0.5)]
        inline, threaded = _one_then_two(monkeypatch, lambda: build_tables(dists, keys))
        firsts = [len(threaded[key].comp) - 1 for key in keys]
        b = block
        assert firsts == [11 * b + 3, 11 * b + 6, 11 * b + 3, 23 * b + 5, 11 * b + 3,
                          13 * b + 3, 0, 0, 30 * b + 3]
        for key, grid in threaded.items():
            assert _same_tables(grid, inline[key])
            assert _same_tables(grid, one_table(dists[key[0]], *key[1:]))
            if key[0] != 3:
                assert _same_as_full_length(grid, dists, key)
        assert math.copysign(1.0, threaded[3, 1.5, -0.0].cum_pc[-1]) == -1.0
