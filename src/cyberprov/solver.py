"""Backward-induction solver for the provisioning problem.

One year unfolds in three stages: choose a mitigation measure and whether
to keep the cover active (before losses realize), observe the aggregate
loss, then decide whether to claim. The claim stage admits a closed-form
optimum: claiming beats absorbing the loss exactly when the compensation
strictly exceeds the continuation-value gap of the level the claim leads
to, so the claims leading to a level are that level's claim band
``(lo, hi]`` cut at the gap: the claim set ``(max(gap, lo), hi]`` in
compensation space (see :mod:`cyberprov.intervals`). This collapses the
inner minimization to layered expectations over the aggregate-loss grid,
and the outer minimization to a small argmin per state. The base premium
enters the one-stage costs only, so one contract is solved at a vector of
base premiums in passes that carry a premium axis. :func:`solve_premiums`
is the one entry point: it yields the solutions in premium order, and
:func:`solve` takes the one solution of a vector of one.

The layer tables depend on the measure, the deductible and the cap, not on
the premium or the contract variant. :func:`layer_tables` builds one table
per distinct key; a sweep over both variants builds them once and hands
them to each :func:`solve_premiums` call, and they are freed when the
caller drops them. :mod:`cyberprov.compound` describes the tables.

The solver reads the level moves, claim sets and chain law from the
contract's rule. Alongside the value and decision tables it produces the
optimally controlled chain's marginal state occupancies (its transition
kernels on request), and a standard set of reporting quantities
(mitigation adoption; discounted payments to the insurer, loss
prevented and compensation received). Reporting quantities
discount the year-t term by the factor ``discount**(t-1)``; the
optimization objective itself compounds one discount factor per backward
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .compound import CompensationGrid, DiscreteLossDistribution, build_tables
from .contract import ON_INDEX, ContractSpec
from .errors import ConfigError, DomainError

__all__ = [
    "PolicySolution",
    "OccupancySummary",
    "solve",
    "solve_premiums",
    "layer_tables",
    "claim_rule",
    "occupancy_summaries",
    "insurer_profit",
]

# Premiums per backward induction. The tables with a premium axis grow
# linearly in it; this bounds them without giving up the vectorization.
_BATCH = 128


@dataclass
class PolicySolution:
    """Value tables, decision tables, chain law, and reporting totals.

    Arrays indexed by ``[t, level_index, status_index]`` with ``t`` running
    0..T for values/marginals and 1..T (offset by one) for decisions and
    kernels. Flat state indices are ``level_index * n_statuses +
    status_index``. Instances are immutable by convention; arrays are
    write-protected. The dense transition kernels are built on first
    access; the claim sets of year ``t`` are the rule's
    ``claim_sets(alpha[t - 1])``.
    """

    contract: ContractSpec
    values: np.ndarray  # (T+1, nL, nS)
    d_opt: np.ndarray  # (T, nL, nS) chosen measure
    iota_opt: np.ndarray  # (T, nL, nS) cover on/off
    marginals: np.ndarray  # (T+1, S)
    adoption: np.ndarray  # (T, D+1) probability measure d is chosen in year t
    alpha: np.ndarray = field(repr=False)  # (T, nL, nL) value gap per claim target
    claim_prob: np.ndarray = field(repr=False)  # (T, nL, D+1, nL)
    payments: float  # discounted expected payments to the insurer
    loss_prevented: float  # discounted expected loss prevented by mitigation
    compensation: float  # discounted expected compensation received

    @property
    def value(self) -> float:
        """Optimal expected discounted total cost from the initial state."""
        return float(self.values[0].flat[self.contract.rule.start])

    @cached_property
    def kernels(self) -> np.ndarray:
        """``(T, S, S)`` row-stochastic transition kernels of the optimal chain.

        Row ``s`` of year ``t`` is the chain law one year after a point mass
        at state ``s``.
        """
        eye = np.eye(self.marginals.shape[1])
        tables = (self.iota_opt, self.d_opt, self.claim_prob)
        years = zip(*(table[:, None] for table in tables))  # batches of one
        kernels = np.stack([self.contract.rule.propagate(eye, year) for year in years])
        kernels.setflags(write=False)
        return kernels


@dataclass(frozen=True)
class OccupancySummary:
    """Per-year occupancy aggregates of the optimally controlled chain."""

    retention_rate: float  # mean fraction of years with active cover
    years_by_level: dict  # level -> expected active years at that level
    years_uninsured: float
    mitigation_years: np.ndarray  # (D+1,) expected years on each measure


def solve(
    contract: ContractSpec,
    distributions: Mapping[int, DiscreteLossDistribution],
    expected_losses: Mapping[int, float],
) -> PolicySolution:
    """Solve one contract at its own base premium (see :func:`solve_premiums`)."""
    bases = [contract.base_premium]
    return next(solve_premiums(contract, bases, distributions, expected_losses))


def solve_premiums(
    contract: ContractSpec,
    base_premiums: Sequence[float],
    distributions: Mapping[int, DiscreteLossDistribution],
    expected_losses: Mapping[int, float],
    tables: Mapping[tuple, CompensationGrid] | None = None,
) -> Iterator[PolicySolution]:
    """Run the backward induction and the forward chain-law pass.

    The base premium enters the one-stage costs and nothing else. Every
    table carries a leading premium axis: claim thresholds, costs and the
    argmin are vectors over it, and each (year, level, measure, target)
    layer query is one vectorized window on the shared layer table. Each
    solution equals the one its base premium would get alone.

    The call checks the arguments. Unless ``tables`` is given, it builds
    the contract's prefix-sum layer tables with :func:`layer_tables`, one
    per (measure, deductible, cap): they do not depend on the premium.
    The returned iterator yields the solutions in premium order. It solves
    the premiums in chunks of ``_BATCH``, which bounds the tables that grow
    with the premium axis, so a caller that keeps only a summary of each
    solution holds one chunk's tables at a time. The iterator holds the
    layer tables; tables built here go with it, and tables handed in live
    as long as their caller keeps them.

    Args:
        contract: Contract specification (rule, schedules, menu); its own
            base premium is ignored.
        base_premiums: Base premiums to solve at; solution ``k`` carries
            ``contract`` with ``base_premiums[k]`` as its base premium.
        distributions: Aggregate-loss distribution per mitigation measure.
        expected_losses: Exact mean aggregate loss per measure (closed
            form, not the grid mean).
        tables: Layer tables from :func:`layer_tables` over contracts that
            include this one's keys, to share them between calls; ``None``
            builds them from ``distributions``.

    Raises:
        ConfigError: If an expected loss, or a distribution when the
            tables are built here, is missing for some mitigation measure.
        DomainError: If a base premium is negative or NaN.
    """
    for d in contract.menu.measures:
        if d not in expected_losses:
            raise ConfigError(f"expected_losses: missing mitigation measure {d}")
    contracts = [replace(contract, base_premium=float(p)) for p in base_premiums]
    if tables is None:
        tables = layer_tables([contract], distributions)
    chunks = (contracts[k : k + _BATCH] for k in range(0, len(contracts), _BATCH))
    return (solution for chunk in chunks for solution in _induction(chunk, tables, expected_losses))


def layer_tables(
    contracts: Iterable[ContractSpec],
    distributions: Mapping[int, DiscreteLossDistribution],
) -> dict:
    """The layer tables that solving ``contracts`` reads.

    Returns ``{(measure, deductible, cap): CompensationGrid}`` with one
    table per distinct key over all the contracts' measures and (deductible,
    cap) schedule entries, so contracts that share keys share tables
    (:func:`~cyberprov.compound.build_tables`).

    Raises:
        ConfigError: If a distribution is missing for some mitigation
            measure of some contract.
    """
    keys = set()
    for contract in contracts:
        for d in contract.menu.measures:
            if d not in distributions:
                raise ConfigError(f"distributions: missing mitigation measure {d}")
        sched = contract.schedules
        pairs = zip(sched.deductible.flat, sched.max_comp.flat)
        keys.update((d, dtb, cap) for dtb, cap in pairs for d in contract.menu.measures)
    return build_tables(distributions, keys)


def _induction(
    contracts: list[ContractSpec], grids: dict, expected_losses: Mapping[int, float]
) -> list[PolicySolution]:
    """:func:`solve_premiums` for contracts that differ only in the base
    premium, with the layer tables ``grids[d, deductible, cap]``."""
    contract = contracts[0]
    rule = contract.rule
    sched = contract.schedules
    menu = contract.menu
    n_levels, n_status = len(rule.levels), len(rule.statuses)
    P, T = len(contracts), contract.horizon
    df = sched.discount_factor
    measures = list(menu.measures)
    bases = np.array([c.base_premium for c in contracts])
    premium = bases[:, None, None] * sched.premium  # (P, nL, T)

    betas = np.array(menu.betas)
    el = np.array([expected_losses[d] for d in measures])

    status = np.arange(n_status)

    values = np.zeros((P, T + 1, n_levels, n_status))
    d_opt = np.zeros((P, T, n_levels, n_status), dtype=int)
    iota_opt = np.zeros((P, T, n_levels, n_status), dtype=int)
    alpha = np.zeros((P, T, n_levels, n_levels))
    claim_prob = np.zeros((P, T, n_levels, len(measures), n_levels))
    # Expected claimed compensation per (t, level, measure), for reporting.
    comp_mass = np.zeros((P, T, n_levels, len(measures)))
    h_on = np.empty((P, n_levels, len(measures)))

    for t in range(T, 0, -1):
        v_on = values[:, t, :, ON_INDEX]
        for ib, reach in enumerate(rule.reach):
            v_low = v_on[:, rule.low[ib]]
            for jb, _, _ in reach:
                alpha[:, t - 1, ib, jb] = v_on[:, jb] - v_low
            for d in measures:
                grid = grids[d, sched.deductible[ib, t - 1], sched.max_comp[ib, t - 1]]
                layered = mass = 0.0
                for jb, lo, hi in reach:
                    prob, comp, above = grid.claim_layers((lo, hi), alpha[:, t - 1, ib, jb])
                    layered = layered + above
                    mass = mass + comp
                    claim_prob[:, t - 1, ib, d, jb] = prob
                h_on[:, ib, d] = v_low - layered
                comp_mass[:, t - 1, ib, d] = mass

        h_off = values[:, t].reshape(P, -1)[:, rule.bm0]  # (P, nL, nS)
        # One-stage costs per state and candidate (d, iota), the candidate
        # index 2 d + iota giving the tie-break order: smallest measure
        # first, then abstention; argmin keeps the first minimum.
        cost = np.empty((P, n_levels, n_status, 2 * len(measures)))
        due = premium[:, :, t - 1, None]
        pay = [contract.payments(t, due, status, io) for io in (0, 1)]
        for d in measures:
            cost[..., 2 * d] = betas[d] + pay[0] + el[d] + h_off
            cost[..., 2 * d + 1] = betas[d] + pay[1] + el[d] + h_on[:, :, d, None]
        best = np.argmin(cost, axis=-1)
        chosen = np.take_along_axis(cost, best[..., None], axis=-1)[..., 0]
        values[:, t - 1] = df * chosen
        d_opt[:, t - 1], iota_opt[:, t - 1] = np.divmod(best, 2)

    # Forward pass: chain law from the initial state (level 0, unsigned).
    marginals = np.zeros((P, T + 1, n_levels * n_status))
    marginals[:, 0, rule.start] = 1.0
    for t in range(T):
        year = (iota_opt[:, t], d_opt[:, t], claim_prob[:, t])
        marginals[:, t + 1] = rule.propagate(marginals[:, t], year)

    # Reporting quantities; year-t terms carry discount**(t-1).
    occ = marginals[:, :T].reshape(P, T, n_levels, n_status)
    disc = np.array([df**t for t in range(T)])

    def yearly(per_state: np.ndarray) -> np.ndarray:  # (P, T, nL, nS) -> (P, T)
        return per_state.reshape(P, T, -1).sum(axis=-1)

    def discounted(per_state: np.ndarray) -> np.ndarray:
        return disc * yearly(per_state * occ)

    adoption = np.stack(
        [yearly(np.where(d_opt == d, occ, 0.0)) for d in measures], axis=-1
    )
    years = np.arange(1, T + 1)[:, None, None]
    pay_states = contract.payments(
        years, premium.transpose(0, 2, 1)[..., None], status, iota_opt
    )
    comp_states = iota_opt * np.take_along_axis(comp_mass, d_opt, axis=-1)
    payments = discounted(pay_states)
    prevented = discounted(el[0] - el[d_opt])
    compensation = discounted(comp_states)

    for arr in (values, d_opt, iota_opt, marginals, adoption, alpha, claim_prob):
        arr.setflags(write=False)
    return [
        PolicySolution(
            contract=c,
            values=values[k],
            d_opt=d_opt[k],
            iota_opt=iota_opt[k],
            marginals=marginals[k],
            adoption=adoption[k],
            alpha=alpha[k],
            claim_prob=claim_prob[k],
            payments=float(payments[k].sum()),
            loss_prevented=float(prevented[k].sum()),
            compensation=float(compensation[k].sum()),
        )
        for k, c in enumerate(contracts)
    ]


def claim_rule(solution: PolicySolution, b: int, status: str, t: int, loss: float) -> int:
    """Optimal claim indicator for a realized annual loss.

    Returns 1 iff the cover is active under the optimal policy and the
    compensation falls in one of the year's claim sets. A compensation
    exactly equal to a value-gap threshold does not claim (strict
    inequality), and an insured below the deductible never claims.

    Raises:
        DomainError: If ``t`` lies outside ``1..T``, or ``b`` or ``status``
            is not one of the rule's levels or statuses.
    """
    contract = solution.contract
    rule = contract.rule
    if t not in range(1, contract.horizon + 1):
        raise DomainError(f"t: year {t!r} outside 1..{contract.horizon}")
    if b not in rule.levels:
        raise DomainError(f"b: unknown level {b!r}")
    if status not in rule.statuses:
        raise DomainError(f"status: unknown status {status!r}")
    ib, ii = rule.levels.index(b), rule.statuses.index(status)
    if not solution.iota_opt[t - 1, ib, ii]:
        return 0
    dtb = contract.schedules.deductible[ib, t - 1]
    lam = min(max(loss - dtb, 0.0), contract.schedules.max_comp[ib, t - 1])
    sets = rule.claim_sets(solution.alpha[t - 1])[ib]
    return int(any(lo < lam <= hi for _, lo, hi in sets))


def occupancy_summaries(solution: PolicySolution) -> OccupancySummary:
    """Retention, time per level, and mitigation-adoption aggregates."""
    rule, T = solution.contract.rule, solution.contract.horizon
    levels = rule.levels
    occ = solution.marginals[1:].reshape(T, len(levels), len(rule.statuses))
    years_by_level = {b: float(occ[:, ib, ON_INDEX].sum()) for ib, b in enumerate(levels)}
    years_uninsured = T - float(occ[:, :, ON_INDEX].sum(axis=1).sum())
    if abs(years_uninsured) < 1e-9:  # roundoff from the chain law
        years_uninsured = 0.0
    mitigation_years = solution.adoption.sum(axis=0)
    return OccupancySummary(
        retention_rate=(T - years_uninsured) / T,
        years_by_level=years_by_level,
        years_uninsured=years_uninsured,
        mitigation_years=mitigation_years,
    )


def insurer_profit(solution: PolicySolution) -> float:
    """Expected discounted payments received minus compensation paid.

    Nonpositive at the optimum: the insured can always decline cover, so
    a rational policyholder never leaves the insurer a positive margin in
    this zero-sum accounting.
    """
    return solution.payments - solution.compensation
