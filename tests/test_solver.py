"""Backward-induction solver: oracle equivalence, chain law, claim logic."""

from __future__ import annotations

import numpy as np
import pytest

from cyberprov.compound import DiscreteLossDistribution
from cyberprov.config import build_contract
from cyberprov.contract import (
    STATUS_NO,
    STATUS_ON,
    BonusMalusRule,
    ContractSchedules,
    ContractSpec,
    MitigationMenu,
    contract_statuses,
)
from cyberprov.solver import claim_rule, insurer_profit, occupancy_summaries, solve
from oracles import (
    ContractState,
    aggregate_loss,
    claim_level,
    compensation,
    enumerate_policies_value,
    random_tiny_instance,
    stage_cost,
    step,
    tree_optimal_value,
)


def _from_atoms(contract, atoms, probs):
    distributions, expected = {}, {}
    for d in contract.menu.measures:
        losses = np.array([aggregate_loss(contract, d, w) for w in atoms])
        order = np.argsort(losses, kind="stable")
        merged_a, merged_p = [], []
        for idx in order:
            if merged_a and losses[idx] == merged_a[-1]:
                merged_p[-1] += probs[idx]
            else:
                merged_a.append(losses[idx])
                merged_p.append(probs[idx])
        distributions[d] = DiscreteLossDistribution(
            atoms=np.array(merged_a), probs=np.array(merged_p)
        )
        expected[d] = float(np.dot(losses, probs))
    return distributions, expected


def _single_level_contract(T, premium, deductible, cap, df, menu, fee_out=0.0):
    statuses = contract_statuses(T)
    rule = BonusMalusRule(
        levels=(0,),
        statuses=statuses,
        zero_claim={0: 0},
        pieces={0: ((0.0, 0),)},
        inactive={(0, s): (0, "off_1") for s in statuses if s != STATUS_NO},
    )
    schedules = ContractSchedules(
        levels=(0,),
        horizon=T,
        premium=np.full((1, T), premium),
        deductible=np.full((1, T), deductible),
        max_comp=np.full((1, T), cap),
        fee_in=np.zeros(T),
        fee_out=np.full(T, fee_out),
        fee_re=0.0,
        discount_factor=df,
    )
    return ContractSpec(rule=rule, schedules=schedules, menu=menu)


@pytest.fixture(scope="module")
def experiment_setup(reference_context):
    ctx = reference_context
    return ctx.config, ctx.menu, ctx.distributions, ctx.expected_losses


# ---------------------------------------------------------------------------
# Degenerate and toy instances against independent optima
# ---------------------------------------------------------------------------
class TestSmallInstances:
    def test_overpriced_cover_is_declined(self):
        # One year, ineffective paid mitigation, premium above any benefit:
        # stay out and bear the expected loss.
        menu = MitigationMenu(betas=(0.0, 1.0), gammas=(0.0, 0.0))
        atoms = [(), (4.0,)]
        probs = [0.5, 0.5]
        contract = _single_level_contract(
            T=1, premium=50.0, deductible=0.0, cap=100.0, df=0.95, menu=menu
        )
        dists, els = _from_atoms(contract, atoms, probs)
        solution = solve(contract, dists, els)
        assert solution.iota_opt[0, 0, 0] == 0
        assert solution.d_opt[0, 0, 0] == 0
        assert solution.value == pytest.approx(0.95 * els[0], abs=1e-12)

    def test_toy_matches_both_oracles(self):
        T = 2
        levels = (0, 1)
        statuses = contract_statuses(T)
        rule = BonusMalusRule(
            levels=levels,
            statuses=statuses,
            zero_claim={0: 0, 1: 0},
            pieces={0: ((0.0, 1),), 1: ((0.0, 1),)},
            inactive={
                (b, s): (b, "off_1") for b in levels for s in statuses if s != STATUS_NO
            },
        )
        schedules = ContractSchedules(
            levels=levels,
            horizon=T,
            premium=np.array([[2.0, 2.0], [3.0, 3.0]]),
            deductible=np.full((2, T), 0.5),
            max_comp=np.full((2, T), 100.0),
            fee_in=np.zeros(T),
            fee_out=np.full(T, 0.4),
            fee_re=0.3,
            discount_factor=0.95,
        )
        menu = MitigationMenu(betas=(0.0, 0.6), gammas=(0.0, 2.0))
        contract = ContractSpec(rule=rule, schedules=schedules, menu=menu)
        atoms = [(), (10.0,)]
        probs = [0.6, 0.4]
        dists, els = _from_atoms(contract, atoms, probs)
        solution = solve(contract, dists, els)
        tree_value, tree_first, _ = tree_optimal_value(contract, atoms, probs)
        enum_value = enumerate_policies_value(contract, atoms, probs)
        assert solution.value == pytest.approx(tree_value, abs=1e-12)
        assert solution.value == pytest.approx(enum_value, abs=1e-12)
        assert (
            solution.d_opt[0, 0, 0],
            solution.iota_opt[0, 0, 0],
        ) == tree_first

    def test_random_tiny_instances_match_tree(self):
        rng = np.random.default_rng(20250810)
        unique_roots = 0
        for _ in range(50):
            contract, dists, els, atoms, probs = random_tiny_instance(rng)
            solution = solve(contract, dists, els)
            tree_value, tree_first, root = tree_optimal_value(contract, atoms, probs)
            assert solution.value == pytest.approx(tree_value, abs=1e-9)
            # Where the root optimum is clearly unique, tables agree too.
            ordered = sorted(root.values())
            if ordered[1] - ordered[0] > 1e-6:
                unique_roots += 1
                ib0 = contract.schedules.level_index(0)
                assert (
                    solution.d_opt[0, ib0, 0],
                    solution.iota_opt[0, ib0, 0],
                ) == tree_first
        assert unique_roots >= 40  # ties should be rare

    def test_tiny_instance_chain_law_matches_replay(self):
        # Kernels and marginals are not covered by the value comparison,
        # so replay the solved policy directly on the loss atoms (using
        # only the raw transition/cost functions and the claim rule) and
        # compare the exact state distribution and expected cost.
        rng = np.random.default_rng(414)
        for _ in range(10):
            contract, dists, els, atoms, probs = random_tiny_instance(rng)
            solution = solve(contract, dists, els)
            statuses = contract.rule.statuses
            n_status = len(statuses)
            T = contract.horizon
            df = contract.schedules.discount_factor

            distribution = {ContractState(0, STATUS_NO): 1.0}
            total_cost = 0.0
            for t in range(1, T + 1):
                nxt: dict = {}
                for state, weight in distribution.items():
                    ib = contract.schedules.level_index(state.level)
                    ii = statuses.index(state.status)
                    d = int(solution.d_opt[t - 1, ib, ii])
                    io = int(solution.iota_opt[t - 1, ib, ii])
                    for w, q in zip(atoms, probs):
                        loss = aggregate_loss(contract, d, w)
                        j = (
                            claim_rule(solution, state.level, state.status, t, loss)
                            if io
                            else 0
                        )
                        cost = stage_cost(contract, state, t, d, io, j, w)
                        state2 = step(contract, state, t, d, io, j, w)
                        total_cost += weight * q * df**t * cost
                        nxt[state2] = nxt.get(state2, 0.0) + weight * q
                distribution = nxt
                marginal = np.zeros(len(contract.rule.levels) * n_status)
                for state2, weight in distribution.items():
                    marginal[solution.state_index(state2.level, state2.status)] = weight
                np.testing.assert_allclose(
                    marginal, solution.marginals[t], atol=1e-12
                )
            assert total_cost == pytest.approx(solution.value, abs=1e-9)


@pytest.fixture(scope="module")
def solution(experiment_setup):
    config, menu, dists, els = experiment_setup
    contract = build_contract(config, menu, base_premium=4.70, variant="bm")
    return solve(contract, dists, els)


# ---------------------------------------------------------------------------
# Structural invariants on the reference experiment
# ---------------------------------------------------------------------------
class TestExperimentStructure:
    def test_terminal_and_nonnegative_values(self, solution):
        assert np.all(solution.values[-1] == 0.0)
        assert np.all(solution.values >= 0.0)

    def test_kernels_are_stochastic(self, solution):
        sums = solution.kernels.sum(axis=2)
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_marginals_are_probabilities(self, solution):
        assert np.abs(solution.marginals.sum(axis=1) - 1.0).max() <= 1e-9
        idx = solution.state_index(0, STATUS_NO)
        assert solution.marginals[0, idx] == 1.0

    def test_marginals_follow_kernels(self, solution):
        prop = solution.marginals[3] @ solution.kernels[3]
        np.testing.assert_allclose(prop, solution.marginals[4], atol=1e-12)

    def test_always_insure_and_mitigate_in_full_band(self, solution):
        # At base premium 4.70 the optimal policy keeps cover and adopts
        # the measure in every reachable state of every year.
        contract = solution.contract
        n_status = len(contract.rule.statuses)
        for t in range(contract.horizon):
            occ = solution.marginals[t]
            for s in np.nonzero(occ > 1e-12)[0]:
                ib, ii = divmod(int(s), n_status)
                assert solution.iota_opt[t, ib, ii] == 1
                assert solution.d_opt[t, ib, ii] == 1

    def test_premium_monotonicity(self, experiment_setup):
        config, menu, dists, els = experiment_setup
        low = solve(build_contract(config, menu, 4.0, "bm"), dists, els)
        high = solve(build_contract(config, menu, 4.2, "bm"), dists, els)
        assert high.value >= low.value - 1e-12

    def test_full_retention_at_free_cover(self, experiment_setup):
        config, menu, dists, els = experiment_setup
        free = solve(build_contract(config, menu, 0.0, "bm"), dists, els)
        assert occupancy_summaries(free).retention_rate == pytest.approx(1.0, abs=1e-12)

    def test_profit_nonpositive(self, experiment_setup):
        config, menu, dists, els = experiment_setup
        for premium in (0.5, 3.0, 4.7, 5.2, 6.5):
            sol = solve(build_contract(config, menu, premium, "bm"), dists, els)
            assert insurer_profit(sol) <= 1e-9

    def test_profit_zero_when_never_insured(self, experiment_setup):
        config, menu, dists, els = experiment_setup
        sol = solve(build_contract(config, menu, 6.9, "bm"), dists, els)
        assert occupancy_summaries(sol).retention_rate == 0.0
        assert insurer_profit(sol) == 0.0


# ---------------------------------------------------------------------------
# Claim rule
# ---------------------------------------------------------------------------
class TestClaimRule:
    def test_below_deductible_never_claims(self, solution):
        for level in solution.contract.rule.levels:
            assert claim_rule(solution, level, STATUS_ON, 5, 0.3) == 0

    def test_uninsured_state_never_claims(self, experiment_setup):
        config, menu, dists, els = experiment_setup
        pricey = solve(build_contract(config, menu, 6.9, "bm"), dists, els)
        assert claim_rule(pricey, 0, STATUS_NO, 1, 500.0) == 0

    def test_bonus_hunger_threshold(self, solution):
        # Claiming moves every level to the surcharge level, so the claim
        # set is exactly (alpha, inf): compensation just below the value
        # gap is absorbed, just above is claimed.
        contract = solution.contract
        on = contract.rule.statuses.index(STATUS_ON)
        for t in (3, 10, 17):
            for ib, level in enumerate(contract.rule.levels):
                low = contract.rule.zero_claim[level]
                gap = (
                    solution.values[t, contract.schedules.level_index(1), on]
                    - solution.values[t, contract.schedules.level_index(low), on]
                )
                if gap <= 0:
                    continue
                dtb = contract.schedules.deductible[ib, t - 1]
                below = dtb + 0.5 * gap
                above = dtb + 1.5 * gap
                assert claim_rule(solution, level, STATUS_ON, t, below) == 0
                assert claim_rule(solution, level, STATUS_ON, t, above) == 1

    def test_consistency_with_value_comparison(self, solution, experiment_setup):
        # On sampled grid atoms, the interval rule must agree with the
        # direct comparison of claiming vs absorbing.
        contract = solution.contract
        on = contract.rule.statuses.index(STATUS_ON)
        dist = experiment_setup[2][0]
        sample = dist.atoms[:: len(dist.atoms) // 1500]
        for t in (4, 12, 20):
            for level in contract.rule.levels:
                ib = contract.schedules.level_index(level)
                if not solution.iota_opt[t - 1, ib, on]:
                    continue
                low = contract.rule.zero_claim[level]
                v_low = solution.values[t, contract.schedules.level_index(low), on]
                for loss in sample[:200]:
                    lam = compensation(contract, level, t, float(loss))
                    target = claim_level(contract.rule, level, lam)
                    v_claim = (
                        solution.values[t, contract.schedules.level_index(target), on]
                        - lam
                    )
                    expected = 1 if v_claim < v_low else 0
                    assert claim_rule(solution, level, STATUS_ON, t, float(loss)) == expected
