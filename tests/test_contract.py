"""Contract mechanics: transitions, compensation, yearly cost."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from cyberprov.config import build_contract, build_menu, build_severity, emit_experiment_defaults
from cyberprov.contract import (
    STATUS_NO,
    STATUS_ON,
    BonusMalusRule,
    ContractSchedules,
    ContractSpec,
    MitigationMenu,
    contract_statuses,
)
from cyberprov.errors import DomainError
from cyberprov.solver import solve
from oracles import (
    AdmissibilityViolation,
    ContractState,
    aggregate_loss,
    claim_level,
    compensation,
    random_tiny_instance,
    stage_cost,
    step,
)


@pytest.fixture(scope="module")
def experiment():
    config = emit_experiment_defaults()
    severity = build_severity(config)
    menu = build_menu(config, severity)
    return build_contract(config, menu, base_premium=4.70, variant="bm")


@pytest.fixture(scope="module")
def flat(experiment):
    config = emit_experiment_defaults()
    severity = build_severity(config)
    menu = build_menu(config, severity)
    return build_contract(config, menu, base_premium=4.70, variant="flat")


# ---------------------------------------------------------------------------
# Aggregate loss and compensation
# ---------------------------------------------------------------------------
class TestLossAndCompensation:
    def test_unmitigated_sum(self, experiment):
        assert aggregate_loss(experiment, 0, (1.0, 2.5)) == 3.5

    def test_clipped_sum(self):
        menu = MitigationMenu(betas=(0.0, 0.1), gammas=(0.0, 1.0))
        spec = _tiny_contract(menu)
        assert aggregate_loss(spec, 1, (1.0, 2.5)) == 1.5

    def test_empty_year(self, experiment):
        assert aggregate_loss(experiment, 1, ()) == 0.0

    def test_compensation_examples(self, experiment):
        assert compensation(experiment, 0, 1, 0.0) == 0.0
        assert compensation(experiment, 0, 1, 3.0) == 2.5
        assert compensation(experiment, 0, 1, 2000.0) == 1000.0

    def test_compensation_below_loss(self, experiment):
        rng = np.random.default_rng(5)
        for loss in rng.uniform(0.0, 50.0, size=200):
            lam = compensation(experiment, -1, 3, float(loss))
            assert 0.0 <= lam <= loss

    def test_compensation_lipschitz(self, experiment):
        losses = np.linspace(0.0, 2000.0, 400)
        lams = [compensation(experiment, 1, 5, float(l)) for l in losses]
        steps = np.diff(lams) / np.diff(losses)
        assert np.all(steps >= 0) and np.all(steps <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# The reference experiment's transition tables
# ---------------------------------------------------------------------------
class TestExperimentTables:
    # (level before, claim amount class) -> level after
    CLAIM_CELLS = {
        (-2, "zero"): -2,
        (-2, "positive"): 1,
        (-1, "zero"): -2,
        (-1, "positive"): 1,
        (0, "zero"): -1,
        (0, "positive"): 1,
        (1, "zero"): 0,
        (1, "positive"): 1,
    }
    INACTIVE_CELLS = {
        (-2, "on"): (-2, "off_1"),
        (-2, "off_1"): (-1, "off_1"),
        (-1, "on"): (-1, "off_1"),
        (-1, "off_1"): (0, "off_1"),
        (0, "on"): (0, "off_1"),
        (0, "off_1"): (0, "off_1"),
        (1, "on"): (1, "off_1"),
        (1, "off_1"): (0, "off_1"),
    }

    def test_claim_transitions(self, experiment):
        for (level, kind), target in self.CLAIM_CELLS.items():
            amount = 0.0 if kind == "zero" else 7.3
            assert claim_level(experiment.rule, level, amount) == target

    def test_inactive_transitions(self, experiment):
        for (level, status), target in self.INACTIVE_CELLS.items():
            assert experiment.rule.inactive[(level, status)] == target

    def test_unsigned_is_fixed_point(self, experiment):
        for level in experiment.rule.levels:
            assert experiment.rule.inactive[(level, STATUS_NO)] == (level, STATUS_NO)

    def test_claim_monotone_in_amount(self, experiment):
        rng = np.random.default_rng(7)
        for level in experiment.rule.levels:
            amounts = np.sort(rng.uniform(0.0, 100.0, size=50))
            targets = [claim_level(experiment.rule, level, a) for a in amounts]
            assert targets == sorted(targets)

    def test_level_intervals(self, experiment):
        # From level 0 a zero claim moves to -1 and lies in no band; every
        # positive claim lies in the one band (0, inf] and moves to 1.
        rule = experiment.rule
        at = rule.levels.index
        assert rule.low[at(0)] == at(-1)
        assert rule.reach[at(0)] == ((at(1), 0.0, np.inf),)
        reached_from_minus_2 = [jb for jb, _, _ in rule.reach[at(-2)]]
        assert at(0) not in reached_from_minus_2

    def test_flat_variant_interval(self, flat):
        # The flat rule has one level: every positive claim stays there.
        assert flat.rule.low == (0,)
        assert flat.rule.reach == (((0, 0.0, np.inf),),)


# ---------------------------------------------------------------------------
# Claim bands of the rule's compiled moves
# ---------------------------------------------------------------------------
class TestClaimBands:
    def test_chain_reach_matches_claim_level(self, experiment, flat):
        # Each positive claim lies in exactly one (lo, hi] band of
        # rule.reach, and that band targets the oracle's level; a zero
        # claim is no claim and lies in no band.
        rng = np.random.default_rng(11)
        rules = [experiment.rule, flat.rule]
        rules += [random_tiny_instance(rng)[0].rule for _ in range(40)]
        for rule in rules:
            for ib, b in enumerate(rule.levels):
                edges = np.array([thr for thr, _ in rule.pieces[b]])
                claims = np.concatenate(
                    (rng.uniform(0.0, 10.0, 50), edges, np.nextafter(edges, np.inf), [1e300])
                )
                for c in claims[claims > 0]:
                    held = [rule.levels[jb] for jb, lo, hi in rule.reach[ib] if lo < c <= hi]
                    assert held == [claim_level(rule, b, float(c))], (rule, b, c)
                assert not any(lo < 0.0 <= hi for _, lo, hi in rule.reach[ib])

    def test_claim_targets_match_value_comparison(self):
        # On solved random rules, at every set's cut and finite upper end
        # and between them: a level claims, and moves to the oracle's
        # level, exactly where the compensation beats the value it loses
        # in level; a zero compensation and level -1 never claim. Scalar
        # calls and one broadcast call give the same targets.
        rng = np.random.default_rng(27)
        on = contract_statuses(1).index(STATUS_ON)
        outcomes, several_bands = set(), 0
        for _ in range(30):
            contract, dists, els, _, _ = random_tiny_instance(rng)
            rule, n_levels = contract.rule, len(contract.rule.levels)
            several_bands += any(len(reach) > 1 for reach in rule.reach)
            solution = solve(contract, dists, els)
            for t in range(1, contract.horizon + 1):
                gaps, values = solution.alpha[t - 1], solution.values[t, :, on]
                ends = [0.0] + [x for sets in rule.claim_sets(gaps) for _, cut, hi in sets
                                for x in (cut, hi, np.nextafter(cut, np.inf)) if x < np.inf]
                ends = np.unique(ends)
                comp = np.concatenate((ends, (ends[:-1] + ends[1:]) / 2, [ends[-1] + 1.0]))
                levels = np.arange(-1, n_levels)
                want = np.full((len(comp), len(levels)), -1)
                for ic, c in enumerate(comp):
                    for ib, b in enumerate(rule.levels):
                        jb = rule.levels.index(claim_level(rule, b, float(c)))
                        if c > 0 and c > values[jb] - values[rule.low[ib]]:
                            want[ic, ib + 1] = jb
                        got = rule.claim_targets(float(c), ib, gaps)
                        assert got.shape == () and got == want[ic, ib + 1], (rule, t, b, c)
                    assert rule.claim_targets(float(c), -1, gaps) == -1
                got = rule.claim_targets(comp[:, None], levels, gaps)
                assert np.array_equal(got, want)
                outcomes.update(want.flat)
        assert several_bands >= 5
        assert outcomes == {-1, 0, 1, 2}


# ---------------------------------------------------------------------------
# Yearly transition and cost
# ---------------------------------------------------------------------------
class TestStep:
    def test_claim_moves_to_surcharge_level(self, experiment):
        state = ContractState(0, STATUS_ON)
        nxt = step(experiment, state, 3, 0, 1, 1, (9.0,))
        assert nxt == ContractState(1, STATUS_ON)

    def test_claim_free_year_earns_discount(self, experiment):
        state = ContractState(-1, STATUS_ON)
        nxt = step(experiment, state, 3, 0, 1, 0, (9.0,))
        assert nxt == ContractState(-2, STATUS_ON)

    def test_unsigned_stays_unsigned(self, experiment):
        state = ContractState(0, STATUS_NO)
        assert step(experiment, state, 1, 0, 0, 0, ()) == state

    def test_claim_without_cover_rejected(self, experiment):
        with pytest.raises(AdmissibilityViolation):
            step(experiment, ContractState(0, STATUS_NO), 1, 0, 0, 1, (2.0,))
        with pytest.raises(AdmissibilityViolation):
            stage_cost(experiment, ContractState(0, STATUS_NO), 1, 0, 0, 1, (2.0,))

    def test_small_claim_counts_as_claim_free(self, experiment):
        # A claim of exactly zero compensation transitions like no claim.
        state = ContractState(0, STATUS_ON)
        nxt = step(experiment, state, 3, 0, 1, 1, (0.3,))  # below deductible
        assert nxt == ContractState(-1, STATUS_ON)


class TestStageCost:
    def test_idle_year_costs_nothing(self, experiment):
        idle = ContractState(0, STATUS_NO)
        assert stage_cost(experiment, idle, 1, 0, 0, 0, ()) == 0.0

    def test_first_year_sign_on(self, experiment):
        # Sign-on fee is zero in year one; cost is the investment plus the
        # base premium.
        cost = stage_cost(experiment, ContractState(0, STATUS_NO), 1, 1, 1, 0, ())
        assert cost == pytest.approx(0.5 + 4.70, abs=1e-12)

    def test_late_withdrawal_penalty(self, experiment):
        state = ContractState(0, STATUS_ON)
        cost = stage_cost(experiment, state, 20, 0, 0, 0, (2.0,))
        assert cost == pytest.approx(8.0 + 2.0, abs=1e-12)

    def test_reactivation_fee(self, experiment):
        cost = stage_cost(experiment, ContractState(0, "off_1"), 5, 0, 1, 0, ())
        assert cost == pytest.approx(3.0 + 4.70, abs=1e-12)

    def test_nonnegative_on_random_inputs(self, experiment):
        rng = np.random.default_rng(11)
        statuses = experiment.rule.statuses
        for _ in range(300):
            level = int(rng.choice(experiment.rule.levels))
            status = statuses[rng.integers(len(statuses))]
            t = int(rng.integers(1, 21))
            d = int(rng.integers(0, 2))
            iota = int(rng.integers(0, 2))
            j = int(rng.integers(0, 2)) if iota else 0
            losses = tuple(rng.uniform(0.0, 30.0, size=rng.integers(0, 4)))
            cost = stage_cost(
                experiment, ContractState(level, status), t, d, iota, j, losses
            )
            assert cost >= 0.0

    def test_compensation_nets_out(self, experiment):
        state = ContractState(0, STATUS_ON)
        gross = stage_cost(experiment, state, 3, 0, 1, 0, (10.0,))
        net = stage_cost(experiment, state, 3, 0, 1, 1, (10.0,))
        assert gross - net == pytest.approx(compensation(experiment, 0, 3, 10.0))

    @pytest.mark.parametrize("variant", ["bm", "flat"])
    def test_payments_match_oracle(self, experiment, flat, variant):
        # The vectorized fee rule over every state, year and cover decision
        # equals the scalar year of a loss-free, unmitigated path.
        spec = experiment if variant == "bm" else flat
        rule, sched = spec.rule, spec.schedules
        n_levels, n_status = len(rule.levels), len(rule.statuses)
        years = np.arange(1, spec.horizon + 1)[:, None, None, None]
        status = np.arange(n_status)[:, None]
        iota = np.arange(2)
        premium = spec.base_premium * sched.premium.T[:, :, None, None]
        paid = spec.payments(years, premium, status, iota)
        assert paid.shape == (spec.horizon, n_levels, n_status, 2)
        for (t, ib, ii, io), value in np.ndenumerate(paid):
            state = ContractState(rule.levels[ib], rule.statuses[ii])
            assert value == stage_cost(spec, state, t + 1, 0, io, 0, ())


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def _tiny_contract(menu=None) -> ContractSpec:
    T = 2
    levels = (0,)
    statuses = contract_statuses(T)
    rule = BonusMalusRule(
        levels=levels,
        horizon=T,
        zero_claim={0: 0},
        pieces={0: ((0.0, 0),)},
        inactive={(0, s): (0, "off_1") for s in statuses if s != STATUS_NO},
    )
    schedules = ContractSchedules(
        premium=np.full((1, T), 1.0),
        deductible=np.zeros((1, T)),
        max_comp=np.full((1, T), 10.0),
        fee_in=np.zeros(T),
        fee_out=np.zeros(T),
        fee_re=0.0,
        discount_factor=1.0,
    )
    return ContractSpec(
        rule=rule,
        schedules=schedules,
        menu=menu or MitigationMenu(betas=(0.0,), gammas=(0.0,)),
    )


class TestValidation:
    def test_menu_requires_null_measure(self):
        with pytest.raises(DomainError):
            MitigationMenu(betas=(0.5,), gammas=(0.0,))
        with pytest.raises(DomainError):
            MitigationMenu(betas=(0.0, -1.0), gammas=(0.0, 1.0))

    def test_rule_rejects_decreasing_claim_transition(self):
        statuses = contract_statuses(1)
        with pytest.raises(DomainError):
            BonusMalusRule(
                levels=(-1, 0, 1),
                horizon=1,
                zero_claim={-1: -1, 0: 0, 1: 1},
                pieces={
                    -1: ((0.0, 1), (2.0, 0)),  # decreasing in the claim
                    0: ((0.0, 1),),
                    1: ((0.0, 1),),
                },
                inactive={
                    (b, s): (b, "off_1")
                    for b in (-1, 0, 1)
                    for s in statuses
                    if s != STATUS_NO
                },
            )

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(levels=(1, 0)), "levels must be strictly increasing"),
            (dict(levels=(1, 2)), "levels must contain the initial level 0"),
            (dict(zero_claim={0: 0}), "claim transition missing for level 1"),
            (
                dict(pieces={0: ((0.5, 1),), 1: ((0.0, 1),)}),
                "level 0: first claim band must start at 0",
            ),
            (
                dict(pieces={0: ((0.0, 0), (2.0, 1), (2.0, 1)), 1: ((0.0, 1),)}),
                "level 0: band thresholds must increase",
            ),
            (
                dict(pieces={0: ((0.0, 5),), 1: ((0.0, 1),)}),
                "level 0: transition targets unknown level",
            ),
            (
                dict(zero_claim={0: 7, 1: 0}),
                "level 0: transition targets unknown level",
            ),
            (
                dict(zero_claim={0: 1, 1: 0}, pieces={0: ((0.0, 0),), 1: ((0.0, 1),)}),
                "level 0: zero-claim level exceeds first band",
            ),
            (
                dict(inactive={(0, STATUS_NO): (1, "off_1")}),
                re.escape("inactive transition must fix (0, no)"),
            ),
            (
                dict(inactive={(1, "on"): (1, "on")}),
                re.escape("inactive transition (1, on) -> (1, on) invalid"),
            ),
        ],
        ids=["order", "no-level-0", "missing", "first-band", "thresholds", "target",
             "zero-target", "zero-above-band", "unsigned", "inactive-target"],
    )
    def test_rule_rejections(self, changes, message):
        statuses = contract_statuses(1)
        inactive = {(b, s): (b, "off_1") for b in (0, 1) for s in statuses if s != STATUS_NO}
        spec = dict(
            levels=(0, 1),
            horizon=1,
            zero_claim={0: 0, 1: 0},
            pieces={0: ((0.0, 1),), 1: ((0.0, 1),)},
            inactive=inactive,
        )
        BonusMalusRule(**spec)  # the unchanged rule is valid
        changes = {**changes, "inactive": {**inactive, **changes.get("inactive", {})}}
        with pytest.raises(DomainError, match=message):
            BonusMalusRule(**{**spec, **changes})

    def test_menu_rejects_unequal_lengths(self):
        with pytest.raises(DomainError, match="equal-length"):
            MitigationMenu(betas=(0.0, 0.5), gammas=(0.0,))

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_schedules_reject_discount_factor(self, factor):
        with pytest.raises(DomainError, match=re.escape("must lie in (0, 1]")):
            replace(_tiny_contract().schedules, discount_factor=factor)

    def test_rule_rejects_missing_inactive_entry(self):
        with pytest.raises(DomainError):
            BonusMalusRule(
                levels=(0,),
                horizon=2,
                zero_claim={0: 0},
                pieces={0: ((0.0, 0),)},
                inactive={(0, STATUS_ON): (0, "off_1")},  # off_1, off_2 missing
            )

    def test_rule_rejects_zero_above_first_band(self):
        statuses = contract_statuses(1)
        with pytest.raises(DomainError):
            BonusMalusRule(
                levels=(0, 1),
                horizon=1,
                zero_claim={0: 1, 1: 1},
                pieces={0: ((0.0, 0),), 1: ((0.0, 1),)},
                inactive={
                    (b, s): (b, "off_1")
                    for b in (0, 1)
                    for s in statuses
                    if s != STATUS_NO
                },
            )

    def test_schedules_reject_premium_decreasing_in_level(self):
        statuses = contract_statuses(1)
        with pytest.raises(DomainError):
            ContractSchedules(
                premium=np.array([[2.0], [1.0]]),
                deductible=np.zeros((2, 1)),
                max_comp=np.ones((2, 1)),
                fee_in=np.zeros(1),
                fee_out=np.zeros(1),
                fee_re=0.0,
                discount_factor=0.95,
            )

    @pytest.mark.parametrize(
        "changes, name",
        [
            (dict(premium=np.ones(2)), "premium"),
            (dict(premium=np.ones((1, 1, 2))), "premium"),
            (dict(deductible=np.zeros((1, 3))), "deductible"),
            (dict(deductible=np.zeros(2)), "deductible"),
            (dict(max_comp=np.ones((2, 2))), "max_comp"),
            (dict(fee_in=np.zeros(3)), "fee_in"),
            (dict(fee_out=np.zeros(1)), "fee_out"),
            (dict(fee_out=np.zeros((1, 2))), "fee_out"),
        ],
    )
    def test_schedules_reject_shapes(self, changes, name):
        # The 2-D premium sets (n_levels, T) for every other schedule.
        with pytest.raises(DomainError, match=f"^{name} must have shape"):
            replace(_tiny_contract().schedules, **changes)

    @pytest.mark.parametrize(
        "levels, T, what", [((0,), 3, "horizon"), ((0, 1), 2, "level set")]
    )
    def test_spec_rejects_rule_schedules_mismatch(self, levels, T, what):
        statuses = contract_statuses(T)
        rule = BonusMalusRule(
            levels=levels,
            horizon=T,
            zero_claim={b: 0 for b in levels},
            pieces={b: ((0.0, levels[-1]),) for b in levels},
            inactive={(b, s): (b, "off_1") for b in levels for s in statuses if s != STATUS_NO},
        )
        tiny = _tiny_contract()  # one level, two years
        assert {"horizon": T != tiny.horizon, "level set": levels != tiny.rule.levels}[what]
        msg = f"schedules have shape (1, 2); the rule's levels and horizon need {(len(levels), T)}"
        with pytest.raises(DomainError, match=re.escape(msg)):
            replace(tiny, rule=rule)

    def test_rule_derives_statuses_and_start(self, experiment, flat):
        for contract in (experiment, flat, _tiny_contract()):
            rule = contract.rule
            assert rule.statuses == contract_statuses(contract.horizon)
            ib, ii = divmod(rule.start, len(rule.statuses))
            assert (rule.levels[ib], rule.statuses[ii]) == (0, STATUS_NO)

    def test_negative_event_loss_rejected(self, experiment):
        with pytest.raises(DomainError):
            aggregate_loss(experiment, 0, (-1.0,))
