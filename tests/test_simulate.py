"""Forward Monte Carlo: determinism, substreams, policy evaluation."""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import poisson

import cyberprov.parallel as parallel
import cyberprov.simulate as simulate_mod
from cyberprov.config import build_contract
from cyberprov.contract import STATUS_NO, STATUS_ON
from cyberprov.errors import DomainError
from cyberprov.simulate import (
    FixedPolicy,
    SimulationConfig,
    _counter_prefix,
    _draw,
    _poisson_cdf_table,
    mc_verdict,
    simulate,
)
from cyberprov.solver import solve
from oracles import (
    ContractState,
    aggregate_loss,
    claim_level,
    compensation,
    random_tiny_instance,
    stage_cost,
    step,
    uniform,
)


@pytest.fixture(scope="module")
def setup(reference_context):
    ctx = reference_context
    contract = build_contract(ctx.config, ctx.menu, base_premium=4.70, variant="bm")
    solution = solve(contract, ctx.distributions, ctx.expected_losses)
    els = ctx.expected_losses
    return ctx.config, ctx.severity, ctx.frequency, contract, solution, els


class TestDeterminism:
    def test_bit_identical_rerun(self, setup):
        _, severity, frequency, _, solution, _ = setup
        cfg = SimulationConfig(n_paths=2000, seed=9)
        first = simulate(solution, severity, frequency, cfg)
        second = simulate(solution, severity, frequency, cfg)
        assert first.mean == second.mean
        assert np.array_equal(first.path_costs, second.path_costs)
        assert np.array_equal(first.state_frequency, second.state_frequency)

    def test_path_substreams_stable_under_growth(self, setup):
        # Adding paths must not disturb the costs of existing paths.
        _, severity, frequency, _, solution, _ = setup
        small = simulate(
            solution,
            severity,
            frequency,
            SimulationConfig(n_paths=500, seed=21),
        )
        large = simulate(
            solution,
            severity,
            frequency,
            SimulationConfig(n_paths=3000, seed=21),
        )
        assert np.array_equal(small.path_costs, large.path_costs[:500])

    def test_different_seeds_differ(self, setup):
        _, severity, frequency, _, solution, _ = setup
        a = simulate(solution, severity, frequency, SimulationConfig(1000, seed=1))
        b = simulate(solution, severity, frequency, SimulationConfig(1000, seed=2))
        assert a.mean != b.mean

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            SimulationConfig(n_paths=0, seed=1)


class TestPoissonTable:
    @pytest.mark.parametrize("rate", [0.5, 0.8, 2.0, 50.0, 700.0, 740.0, 800.0, 1e4])
    def test_matches_scipy(self, rate):
        # exp(-rate) underflows above a rate of about 708; the table must not.
        table = _poisson_cdf_table(rate)
        assert np.abs(table - poisson.cdf(np.arange(len(table)), rate)).max() <= 1e-10

    def test_rate_zero(self):
        assert _poisson_cdf_table(0.0).tolist() == [1.0]


class TestCounterHash:
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, -1])
    def test_split_hash_matches_oracle(self, seed):
        # A scalar (year, slot) prefix plus the path and seed rounds give the
        # oracle's four-round draws exactly.
        rng = np.random.default_rng(17)
        paths = rng.integers(0, 2**64, size=257, dtype=np.uint64, endpoint=False)
        slots = np.arange(13, dtype=np.uint64)
        for year in range(1, 41):
            prefix = _counter_prefix(year, slots)
            for slot in slots:
                want = uniform(seed, paths, year, np.full(len(paths), slot))
                assert np.array_equal(_draw(paths, prefix[slot], seed), want)


class TestPathBlocks:
    """Block size changes neither a draw nor a sum."""

    @pytest.fixture(scope="class")
    def policies(self, reference_context):
        # At 4.98 cover lapses on some paths; random tables lapse and
        # re-activate cover and claim whenever positive.
        ctx = reference_context
        out = []
        for premium in (4.70, 4.98):
            contract = build_contract(ctx.config, ctx.menu, premium, variant="bm")
            solution = solve(contract, ctx.distributions, ctx.expected_losses)
            rng = np.random.default_rng(31)
            fixed = FixedPolicy(
                contract,
                d_opt=rng.integers(0, 2, size=solution.d_opt.shape),
                iota_opt=rng.integers(0, 2, size=solution.d_opt.shape),
                claim="whenever_positive",
            )
            out.append((solution, fixed))
        return ctx, out

    @staticmethod
    def _replays(ctx, policies, n_paths):
        cfg = SimulationConfig(n_paths=n_paths, seed=20240601)
        results = []
        for solution, fixed in policies:
            results.append(simulate(solution, ctx.severity, ctx.frequency, cfg))
            results.append(simulate(fixed, ctx.severity, ctx.frequency, cfg))
        return results

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("n_paths", [1, 7, 8, 65, 200])
    def test_bitwise_equal_across_blocks(self, policies, monkeypatch, block, n_paths):
        ctx, cases = policies
        default = self._replays(ctx, cases, n_paths)
        monkeypatch.setattr(simulate_mod, "_BLOCK", block)
        for want, got in zip(default, self._replays(ctx, cases, n_paths)):
            assert np.array_equal(got.path_costs, want.path_costs)
            assert np.array_equal(got.state_frequency, want.state_frequency)
            assert got.mean == want.mean
            assert got.std_error == want.std_error

    @pytest.mark.parametrize(
        "block, n_paths",
        # Partial last blocks; 4, 10 and 3 blocks.
        [(64, 200), (7, 65), (simulate_mod._BLOCK, 2 * simulate_mod._BLOCK + 5)],
    )
    def test_bitwise_equal_across_workers(self, policies, monkeypatch, block, n_paths):
        ctx, cases = policies
        monkeypatch.setattr(simulate_mod, "_BLOCK", block)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        inline = self._replays(ctx, cases, n_paths)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        for want, got in zip(inline, self._replays(ctx, cases, n_paths)):
            assert np.array_equal(got.path_costs, want.path_costs)
            assert np.array_equal(got.state_frequency, want.state_frequency)
            assert got.mean == want.mean
            assert got.std_error == want.std_error

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_block_layout(self, monkeypatch, cpus):
        # Equal blocks, as many as fill every CPU equally, none above _BLOCK.
        monkeypatch.setattr(simulate_mod, "cpu_count", lambda: cpus)
        block = simulate_mod._BLOCK
        for n in (1, 2, 3, 7, block - 1, block, block + 1, 2 * block + 5, 10**5, 10**6):
            blocks = simulate_mod._blocks(n)
            starts, stops = zip(*blocks)
            assert starts[0] == 0 and stops[-1] == n and starts[1:] == stops[:-1]
            sizes = [stop - start for start, stop in blocks]
            assert max(sizes) - min(sizes) <= 1 and 1 <= min(sizes) and max(sizes) <= block
            assert len(blocks) == min(n, cpus * -(-n // (cpus * block)))
        monkeypatch.setattr(simulate_mod, "cpu_count", lambda: 2)
        assert simulate_mod._blocks(10**5) == [(0, 50_000), (50_000, 100_000)]

    def test_1e5_paths_on_one_and_two_workers(self, policies, monkeypatch):
        # The benchmark's replay size: two blocks of 50000 paths on one
        # worker and on two, and one block of all of them, give one result.
        ctx, cases = policies
        solution, _ = cases[0]
        cfg = SimulationConfig(n_paths=10**5, seed=20240601)
        results = []
        for cpus, block in ((1, simulate_mod._BLOCK), (2, simulate_mod._BLOCK), (1, 10**5)):
            monkeypatch.setattr(simulate_mod, "_BLOCK", block)
            monkeypatch.setattr(simulate_mod, "cpu_count", lambda n=cpus: n)
            monkeypatch.setattr(parallel, "cpu_count", lambda n=cpus: n)
            results.append(simulate(solution, ctx.severity, ctx.frequency, cfg))
        want = results[0]
        for got in results[1:]:
            assert np.array_equal(got.path_costs, want.path_costs)
            assert np.array_equal(got.state_frequency, want.state_frequency)
            assert got.mean == want.mean
            assert got.std_error == want.std_error

    def test_more_workers_than_cpus(self, policies, monkeypatch):
        # 29 blocks on 4 workers, switching threads every microsecond: a
        # lost update of a cost slice or a state count would show.
        ctx, cases = policies
        monkeypatch.setattr(simulate_mod, "_BLOCK", 7)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        want = self._replays(ctx, cases, 200)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self._replays(ctx, cases, 200)
        finally:
            sys.setswitchinterval(interval)
        for w, g in zip(want, got):
            assert np.array_equal(g.path_costs, w.path_costs)
            assert np.array_equal(g.state_frequency, w.state_frequency)


class TestAgainstSolver:
    def test_mean_matches_value(self, setup):
        _, severity, frequency, _, solution, _ = setup
        result = simulate(
            solution, severity, frequency, SimulationConfig(n_paths=120_000, seed=3)
        )
        bound = max(3 * result.std_error, 5e-3 * solution.value)
        assert abs(result.mean - solution.value) <= bound

    def test_state_frequencies_match_marginals(self, setup):
        config, severity, frequency, contract, solution, _ = setup
        result = simulate(
            solution, severity, frequency, SimulationConfig(n_paths=120_000, seed=3)
        )
        for t in range(1, contract.horizon + 1):
            p = solution.marginals[t]
            emp = result.state_frequency[t]
            se = np.sqrt(np.maximum(p * (1 - p), 0.0) / result.n_paths)
            live = se > 0
            # 3.6 rather than 3 standard errors: the bound is tested across
            # ~1.5k cells at once, and the discretized kernels carry a
            # small bias of their own.
            assert np.all(np.abs(emp - p)[live] <= 3.6 * se[live])
            assert np.all(emp[~live] == p[~live])


class TestMcVerdict:
    @pytest.fixture(scope="class")
    def replay(self, setup):
        _, severity, frequency, _, solution, _ = setup
        return solution, simulate(solution, severity, frequency, SimulationConfig(2000, seed=9))

    def test_agreeing_replay_passes(self, replay):
        solution, result = replay
        verdict = mc_verdict(solution, result)
        assert verdict.passed and verdict.diff == result.mean - solution.value
        assert verdict.tolerance == max(3 * result.std_error, 5e-3 * solution.value)
        assert 0.0 < verdict.worst_z < np.inf

    @pytest.mark.parametrize("certain", [False, True], ids=["ruled-out", "certain"])
    def test_zero_error_cell_scores_inf(self, replay, certain):
        # Where the solver's probability is 0 or 1 the standard error is 0:
        # any other empirical frequency there fails with an infinite z,
        # however good the mean is.
        solution, result = replay
        freq = np.array(result.state_frequency)
        marginals = np.array(solution.marginals)
        t, s = np.argwhere(marginals[1:] == 0.0)[0] + (1, 0)
        if certain:
            # A year-t law that is a point mass at s, which one path misses.
            marginals[t] = 0.0
            marginals[t, s] = 1.0
            freq[t] = marginals[t]
            freq[t, s] -= 1 / result.n_paths
        else:
            freq[t, s] = 1 / result.n_paths
        doctored_solution = replace(solution, marginals=marginals)
        doctored = replace(result, state_frequency=freq)
        verdict = mc_verdict(doctored_solution, doctored)
        assert verdict.worst_z == np.inf and not verdict.passed
        assert abs(verdict.diff) <= verdict.tolerance

    def test_mean_outside_tolerance_fails(self, replay):
        solution, result = replay
        off = replace(result, mean=solution.value * 1.01 + 3 * result.std_error)
        verdict = mc_verdict(solution, off)
        assert not verdict.passed and verdict.worst_z < np.inf


class TestFixedPolicies:
    def test_never_insure_never_mitigate(self, setup):
        config, severity, frequency, contract, _, els = setup
        T = contract.horizon
        shape = (T, len(contract.rule.levels), len(contract.rule.statuses))
        policy = FixedPolicy(
            contract, d_opt=np.zeros(shape, dtype=int), iota_opt=np.zeros(shape, dtype=int)
        )
        result = simulate(policy, severity, frequency, SimulationConfig(150_000, seed=5))
        closed = sum(0.95**t for t in range(1, T + 1)) * els[0]
        assert abs(result.mean - closed) <= 3 * result.std_error

    def test_always_insure_never_claim_is_suboptimal(self, setup):
        config, severity, frequency, contract, solution, _ = setup
        T = contract.horizon
        shape = (T, len(contract.rule.levels), len(contract.rule.statuses))
        policy = FixedPolicy(
            contract,
            d_opt=np.ones(shape, dtype=int),
            iota_opt=np.ones(shape, dtype=int),
            claim="never",
        )
        result = simulate(policy, severity, frequency, SimulationConfig(60_000, seed=6))
        assert result.mean >= solution.value - 3 * result.std_error

    def test_optimal_tables_reproduce_value(self, setup):
        # The solver's own policy replays to its value; sanity-check the
        # wiring end to end.
        _, severity, frequency, contract, solution, _ = setup
        via_sim = simulate(
            solution, severity, frequency, SimulationConfig(50_000, seed=8)
        )
        assert abs(via_sim.mean - solution.value) <= 4 * via_sim.std_error

    @pytest.mark.parametrize("claim, gap", [("never", np.inf), ("whenever_positive", 0.0)])
    def test_same_reads_as_a_solution(self, setup, claim, gap):
        # A fixed policy and a solution with the same tables and the claim
        # mode's gaps replay bit for bit alike: simulate reads both the same.
        _, severity, frequency, contract, solution, _ = setup
        cfg = SimulationConfig(10_000, seed=16)
        fixed = FixedPolicy(contract, solution.d_opt, solution.iota_opt, claim)
        gaps = replace(solution, alpha=np.full_like(solution.alpha, gap))
        a = simulate(fixed, severity, frequency, cfg)
        b = simulate(gaps, severity, frequency, cfg)
        assert np.array_equal(a.path_costs, b.path_costs)
        assert np.array_equal(a.state_frequency, b.state_frequency)
        assert a.mean.hex() == b.mean.hex()

    def test_tables_are_write_protected_copies(self, setup):
        _, severity, frequency, contract, solution, _ = setup
        d_table, iota_table = np.array(solution.d_opt), np.array(solution.iota_opt)
        policy = FixedPolicy(contract, d_opt=d_table, iota_opt=iota_table)
        for table in (policy.d_opt, policy.iota_opt):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0, 0] = 1
        cfg = SimulationConfig(2000, seed=17)
        before = simulate(policy, severity, frequency, cfg)
        d_table[:] = 1 - d_table
        iota_table[:] = 1 - iota_table
        flipped = simulate(FixedPolicy(contract, d_table, iota_table), severity, frequency, cfg)
        assert not np.array_equal(flipped.path_costs, before.path_costs)
        after = simulate(policy, severity, frequency, cfg)
        assert np.array_equal(after.path_costs, before.path_costs)
        assert np.array_equal(after.state_frequency, before.state_frequency)

    def test_single_cell_perturbations_cost_more(self, setup):
        # Flip one reachable decision cell at a time: no perturbation may
        # beat the optimum beyond noise.
        _, severity, frequency, contract, solution, _ = setup
        rng = np.random.default_rng(13)
        T = contract.horizon
        base_mean = solution.value
        reachable = [
            (t, s)
            for t in range(T)
            for s in range(solution.marginals.shape[1])
            if solution.marginals[t, s] > 1e-6
        ]
        picks = rng.choice(len(reachable), size=20, replace=False)
        n_status = len(contract.rule.statuses)
        for k in picks:
            t, s = reachable[k]
            ib, ii = divmod(s, n_status)
            d_table = np.array(solution.d_opt)
            iota_table = np.array(solution.iota_opt)
            if rng.random() < 0.5:
                d_table[t, ib, ii] = 1 - d_table[t, ib, ii]
            else:
                iota_table[t, ib, ii] = 1 - iota_table[t, ib, ii]
            policy = FixedPolicy(
                contract, d_opt=d_table, iota_opt=iota_table, claim="whenever_positive"
            )
            result = simulate(policy, severity, frequency, SimulationConfig(20_000, seed=14))
            assert result.mean >= base_mean - 3 * result.std_error

    def test_claims_gated_by_cover(self, setup):
        # "Claim whenever positive" with cover never bought degenerates to
        # never claiming.
        config, severity, frequency, contract, _, _ = setup
        T = contract.horizon
        shape = (T, len(contract.rule.levels), len(contract.rule.statuses))
        base = FixedPolicy(
            contract,
            d_opt=np.zeros(shape, dtype=int),
            iota_opt=np.zeros(shape, dtype=int),
            claim="whenever_positive",
        )
        never = FixedPolicy(
            contract,
            d_opt=np.zeros(shape, dtype=int),
            iota_opt=np.zeros(shape, dtype=int),
            claim="never",
        )
        cfg = SimulationConfig(5000, seed=15)
        a = simulate(base, severity, frequency, cfg)
        b = simulate(never, severity, frequency, cfg)
        assert a.mean == b.mean

    @pytest.mark.parametrize(
        "change, name",
        [
            (lambda d, iota: (np.full_like(d, -1), iota), "d_table"),  # would replay measure 1
            (lambda d, iota: (np.full_like(d, 2), iota), "d_table"),
            (lambda d, iota: (d + 0.5, iota), "d_table"),
            (lambda d, iota: (d, np.full_like(iota, 2)), "iota_table"),  # would replay as cover
            (lambda d, iota: (d, iota - 1), "iota_table"),
            (lambda d, iota: (d[1:], iota), "d_table"),  # one year short
            (lambda d, iota: (d, iota[:, :, :-1]), "iota_table"),
            (lambda d, iota: (d, iota[0]), "iota_table"),
        ],
    )
    def test_rejects_bad_tables(self, setup, change, name):
        # ``name`` is the table changed; the error names its field.
        _, _, _, contract, solution, _ = setup
        d_table, iota_table = change(np.array(solution.d_opt), np.array(solution.iota_opt))
        field = name.replace("_table", "_opt")
        with pytest.raises(DomainError, match=f"^{field}: "):
            FixedPolicy(contract, d_opt=d_table, iota_opt=iota_table)

    def test_rejects_unknown_claim_mode(self, setup):
        contract = setup[3]
        with pytest.raises(DomainError):
            FixedPolicy(
                contract,
                d_opt=np.zeros((1, 1, 3), dtype=int),
                iota_opt=np.zeros((1, 1, 3), dtype=int),
                claim="sometimes",
            )


def _path_events(severity, frequency, cfg: SimulationConfig, horizon: int):
    """Event severities ``[path][year - 1]`` from the counter-based draws.

    Slot 0 of a (path, year) counter draws the event count by Poisson
    inversion and slots 1..k the k severities. The draws come from the
    four-round oracle hash, year by year over all paths at once; the engine
    instead draws per path block and per event slot from the split hash.
    """
    n = cfg.n_paths
    paths = np.arange(n, dtype=np.uint64)
    pois_cdf = _poisson_cdf_table(frequency.rate)
    events = [[] for _ in range(n)]
    for t in range(1, horizon + 1):
        counts = np.searchsorted(
            pois_cdf, uniform(cfg.seed, paths, t, np.zeros(n, dtype=np.uint64))
        )
        owner = np.repeat(paths, counts)
        slot = np.concatenate([np.arange(1, k + 1) for k in counts]).astype(np.uint64)
        x = severity.sample(uniform(cfg.seed, owner, t, slot))
        for p, severities in enumerate(np.split(x, np.cumsum(counts)[:-1])):
            events[p].append(tuple(severities))
    return events


def _oracle_replay(contract, d_table, iota_table, claims, events):
    """Discounted costs per path and state counts per year, one path at a time."""
    rule, T = contract.rule, contract.horizon
    df = contract.schedules.discount_factor
    states = [ContractState(b, status) for b in rule.levels for status in rule.statuses]
    counts = np.zeros((T + 1, len(states)))
    costs = []
    for years in events:
        state, total = ContractState(0, STATUS_NO), 0.0
        for t, w in enumerate(years, start=1):
            counts[t - 1, states.index(state)] += 1
            ib, ii = divmod(states.index(state), len(rule.statuses))
            d, io = int(d_table[t - 1, ib, ii]), int(iota_table[t - 1, ib, ii])
            j = claims(state, t, aggregate_loss(contract, d, w)) if io else 0
            total += df**t * stage_cost(contract, state, t, d, io, j, w)
            state = step(contract, state, t, d, io, j, w)
        counts[T, states.index(state)] += 1
        costs.append(total)
    return np.array(costs), counts


class TestAgainstOracle:
    """Paths replayed through the scalar one-year oracle give the same costs."""

    CFG = SimulationConfig(n_paths=200, seed=20240607)

    @pytest.fixture(scope="class")
    def partial(self, reference_context):
        # Inside the bm partial-retention band cover lapses on some paths,
        # so withdrawal penalties and inactive moves occur.
        ctx = reference_context
        contract = build_contract(ctx.config, ctx.menu, base_premium=4.98, variant="bm")
        solution = solve(contract, ctx.distributions, ctx.expected_losses)
        events = _path_events(ctx.severity, ctx.frequency, self.CFG, contract.horizon)
        return ctx, solution, events

    def _check(self, result, costs, counts):
        np.testing.assert_allclose(result.path_costs, costs, rtol=1e-9, atol=0)
        assert np.array_equal(result.state_frequency, counts / self.CFG.n_paths)

    def test_solved_policy(self, partial):
        ctx, solution, events = partial
        result = simulate(solution, ctx.severity, ctx.frequency, self.CFG)
        contract, rule = solution.contract, solution.contract.rule
        on = rule.statuses.index(STATUS_ON)

        def claims(state, t, loss):
            # Claim where the compensation beats the value lost in level.
            lam = compensation(contract, state.level, t, loss)
            values = solution.values[t, :, on]
            target = rule.levels.index(claim_level(rule, state.level, lam))
            low = rule.levels.index(rule.zero_claim[state.level])
            return int(lam > values[target] - values[low])

        costs, counts = _oracle_replay(
            solution.contract, solution.d_opt, solution.iota_opt, claims, events
        )
        self._check(result, costs, counts)
        # Years after a covered year start "on"; both kinds must occur.
        statuses = solution.contract.rule.statuses
        after_cover = counts[1:, statuses.index(STATUS_ON) :: len(statuses)].sum()
        assert 0 < after_cover < counts[1:].sum()

    def test_claim_whenever_positive(self, partial):
        ctx, solution, events = partial
        contract = solution.contract
        # Random tables make paths lapse and re-activate, so the withdrawal
        # and re-activation fees are charged as well as premiums.
        rng = np.random.default_rng(2024)
        shape = solution.d_opt.shape
        policy = FixedPolicy(
            contract,
            d_opt=rng.integers(0, 2, size=shape),
            iota_opt=rng.integers(0, 2, size=shape),
            claim="whenever_positive",
        )
        result = simulate(policy, ctx.severity, ctx.frequency, self.CFG)

        def claims(state, t, loss):
            return int(compensation(contract, state.level, t, loss) > 0.0)

        costs, counts = _oracle_replay(
            contract, policy.d_opt, policy.iota_opt, claims, events
        )
        self._check(result, costs, counts)

    def test_random_contracts(self, reference_context):
        # Premiums, deductibles and caps vary by level and year, claims
        # reach several bands and inactive moves are random, so a table
        # read with its level and year axes swapped changes the costs (or
        # the shape) on the instances with as many levels as years.
        ctx = reference_context
        rng = np.random.default_rng(20240609)
        seen = set()
        for _ in range(12):
            contract = random_tiny_instance(rng)[0]
            contract = replace(contract, base_premium=float(rng.uniform(0.5, 3.0)))
            rule, T = contract.rule, contract.horizon
            shape = (T, len(rule.levels), len(rule.statuses))
            policy = FixedPolicy(
                contract,
                d_opt=rng.integers(0, 2, size=shape),
                iota_opt=rng.integers(0, 2, size=shape),
                claim="whenever_positive",
            )
            result = simulate(policy, ctx.severity, ctx.frequency, self.CFG)
            events = _path_events(ctx.severity, ctx.frequency, self.CFG, T)

            def claims(state, t, loss):
                return int(compensation(contract, state.level, t, loss) > 0.0)

            costs, counts = _oracle_replay(
                contract, policy.d_opt, policy.iota_opt, claims, events
            )
            self._check(result, costs, counts)
            if len(rule.levels) == T > 1:
                seen.add("square")
            if any(len(bands) > 1 for bands in rule.pieces.values()):
                seen.add("bands")
        assert seen == {"square", "bands"}
