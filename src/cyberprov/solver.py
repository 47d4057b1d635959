"""Backward-induction solver for the provisioning problem.

One year unfolds in three stages: choose a mitigation measure and whether
to keep the cover active (before losses realize), observe the aggregate
loss, then decide whether to claim. The claim stage admits a closed-form
optimum: claiming beats absorbing the loss exactly when the compensation
strictly exceeds the continuation-value gap of the level the claim leads
to, so the optimal claim region is a union of intervals in compensation
space ("claim sets"). This collapses the inner minimization to layered
expectations over the aggregate-loss grid, and the outer minimization to
a small argmin per state. The base premium enters the one-stage costs
only, so one contract is solved at a vector of base premiums in one pass
that carries a premium axis; a single solve is a vector of one.

Alongside the value and decision tables the solver produces the optimally
controlled chain's marginal state occupancies (its transition kernels on
request), and a standard set of reporting quantities (mitigation adoption,
discounted mitigation spend, payments to the insurer, loss prevented,
compensation received). Reporting quantities discount the year-t term by
the factor ``discount**(t-1)``; the optimization objective itself
compounds one discount factor per backward step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .compound import CompensationGrid, DiscreteLossDistribution
from .contract import STATUS_ON, ContractSpec
from .errors import ConfigError

__all__ = [
    "PolicySolution",
    "OccupancySummary",
    "solve",
    "solve_premiums",
    "claim_rule",
    "occupancy_summaries",
    "insurer_profit",
]

QOI_SPEND = "mitigation_spend"
QOI_PAYMENTS = "payments_to_insurer"
QOI_PREVENTED = "loss_prevented"
QOI_COMPENSATION = "compensation_received"


@dataclass(frozen=True)
class _Chain:
    """Premium-independent structure of a contract's controlled chain.

    The one encoding of the yearly level moves: the backward induction, the
    chain law and the Monte Carlo engine all read it.

    ``reach[ib]`` lists ``(target level index, claim band)`` for every level
    a claim from level ``ib`` can reach, in level order; ``low[ib]`` is the
    zero-claim level, and ``bm0`` holds the flat state that each state moves
    to in a year without cover.
    """

    n_status: int
    on: int
    low: tuple
    reach: tuple
    bm0: np.ndarray  # (nL, nS)

    @classmethod
    def of(cls, rule) -> "_Chain":
        levels, statuses = rule.levels, rule.statuses
        n_status = len(statuses)
        index = {b: k for k, b in enumerate(levels)}
        bm0 = np.empty((len(levels), n_status), dtype=int)
        for ib, b in enumerate(levels):
            for ii, status in enumerate(statuses):
                b2, s2 = rule.inactive[(b, status)]
                bm0[ib, ii] = index[b2] * n_status + statuses.index(s2)
        # level_interval is None for every level no claim from b reaches.
        reach = []
        for b in levels:
            bands = [(index[b2], rule.level_interval(b, b2)) for b2 in levels]
            reach.append(tuple((jb, band) for jb, band in bands if band is not None))
        low = tuple(index[rule.zero_claim[b]] for b in levels)
        return cls(n_status, statuses.index(STATUS_ON), low, tuple(reach), bm0)

    def propagate(self, occ: np.ndarray, year) -> np.ndarray:
        """One year of the chain law for a batch of occupancies ``(B, S)``.

        ``year`` holds the year's decisions ``(P, nL, nS)`` and claim
        probabilities ``(P, nL, D+1, nL)``, with ``P`` equal to ``B`` or 1.
        A covered state moves by the claim probabilities of its measure,
        the zero-claim level taking the rest; an uncovered one follows the
        inactive table. Only the states that carry mass are moved.
        """
        iota, d_hat, claim_prob = year
        nxt = np.zeros_like(occ)
        for s in np.flatnonzero(occ.any(axis=0)):
            ib, ii = divmod(s, self.n_status)
            mass = occ[:, s]
            active = iota[:, ib, ii] == 1
            probs = claim_prob[np.arange(len(active)), ib, d_hat[:, ib, ii]]  # (P, nL)
            nxt[:, self.bm0[ib, ii]] += np.where(active, 0.0, mass)
            stay = 1.0
            for jb, _ in self.reach[ib]:
                if jb != self.low[ib]:
                    moved = np.where(active, probs[:, jb] * mass, 0.0)
                    nxt[:, jb * self.n_status + self.on] += moved
                    stay -= probs[:, jb]
            low = self.low[ib] * self.n_status + self.on
            nxt[:, low] += np.where(active, stay * mass, 0.0)
        return nxt


@dataclass
class PolicySolution:
    """Value tables, decision tables, chain law, and reporting aggregates.

    Arrays indexed by ``[t, level_index, status_index]`` with ``t`` running
    0..T for values/marginals and 1..T (offset by one) for decisions and
    kernels. Flat state indices are ``level_index * n_statuses +
    status_index``. Instances are immutable by convention; arrays are
    write-protected. The claim sets and the dense transition kernels are
    built on first access from the claim thresholds and probabilities.
    """

    contract: ContractSpec
    values: np.ndarray  # (T+1, nL, nS)
    d_opt: np.ndarray  # (T, nL, nS) chosen measure
    iota_opt: np.ndarray  # (T, nL, nS) cover on/off
    marginals: np.ndarray  # (T+1, S)
    adoption: np.ndarray  # (T, D+1) probability measure d is chosen in year t
    chain: _Chain = field(repr=False)
    alpha: np.ndarray = field(repr=False)  # (T, nL, nL) value gap per claim target
    claim_prob: np.ndarray = field(repr=False)  # (T, nL, D+1, nL)
    qoi_per_year: dict = field(default_factory=dict)  # name -> (T,) array
    qoi_total: dict = field(default_factory=dict)  # name -> float

    @property
    def value(self) -> float:
        """Optimal expected discounted total cost from the initial state."""
        ib = self.contract.schedules.level_index(0)
        return float(self.values[0, ib, 0])

    def state_index(self, b: int, status: str) -> int:
        ib = self.contract.schedules.level_index(b)
        ii = self.contract.rule.statuses.index(status)
        return ib * len(self.contract.rule.statuses) + ii

    @cached_property
    def claim_sets(self) -> list:
        """``[t-1][level_index]`` -> list of (target level, claim Interval)."""
        levels = self.contract.rule.levels
        return [
            [
                [(levels[jb], band.cut_below(gaps[ib, jb])) for jb, band in reach]
                for ib, reach in enumerate(self.chain.reach)
            ]
            for gaps in self.alpha
        ]

    @cached_property
    def kernels(self) -> np.ndarray:
        """``(T, S, S)`` row-stochastic transition kernels of the optimal chain.

        Row ``s`` of year ``t`` is the chain law one year after a point mass
        at state ``s``.
        """
        eye = np.eye(self.marginals.shape[1])
        tables = (self.iota_opt, self.d_opt, self.claim_prob)
        years = zip(*(table[:, None] for table in tables))  # batches of one
        kernels = np.stack([self.chain.propagate(eye, year) for year in years])
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
    return solve_premiums(contract, bases, distributions, expected_losses)[0]


def solve_premiums(
    contract: ContractSpec,
    base_premiums: Sequence[float],
    distributions: Mapping[int, DiscreteLossDistribution],
    expected_losses: Mapping[int, float],
    grid_cache: dict | None = None,
) -> list[PolicySolution]:
    """Run the backward induction and the forward chain-law pass.

    The base premium enters the one-stage costs and nothing else. Every
    table carries a leading premium axis: claim thresholds, costs and the
    argmin are vectors over it, and each (year, level, measure, target)
    layer query is one vectorized window on the shared layer table. Each
    solution equals the one its base premium would get alone.

    Args:
        contract: Contract specification (rule, schedules, menu); its own
            base premium is ignored.
        base_premiums: Base premiums to solve at; solution ``k`` carries
            ``contract`` with ``base_premiums[k]`` as its base premium.
        distributions: Aggregate-loss distribution per mitigation measure.
        expected_losses: Exact mean aggregate loss per measure (closed
            form, not the grid mean).
        grid_cache: Optional dict reused across calls that share the same
            distributions; holds the prefix-sum layer tables, which do not
            depend on the premium.

    Raises:
        ConfigError: If a distribution or expected loss is missing for
            some mitigation measure.
        DomainError: If a base premium is negative or NaN.
    """
    contracts = [replace(contract, base_premium=float(p)) for p in base_premiums]
    if not contracts:
        return []
    rule = contract.rule
    sched = contract.schedules
    menu = contract.menu
    statuses = rule.statuses
    n_levels, n_status = len(rule.levels), len(statuses)
    P, T = len(contracts), contract.horizon
    df = sched.discount_factor
    measures = list(menu.measures)
    for d in measures:
        if d not in distributions:
            raise ConfigError(f"distributions: missing mitigation measure {d}")
        if d not in expected_losses:
            raise ConfigError(f"expected_losses: missing mitigation measure {d}")
    chain = _Chain.of(rule)
    bases = np.array([c.base_premium for c in contracts])
    premium = bases[:, None, None] * sched.premium  # (P, nL, T)

    betas = np.array([menu.beta(d) for d in measures])
    el = np.array([expected_losses[d] for d in measures])

    grids = grid_cache if grid_cache is not None else {}

    def grid_for(d: int, dtb: float, cap: float) -> CompensationGrid:
        key = (d, dtb, cap)
        if key not in grids:
            grids[key] = CompensationGrid(distributions[d], dtb, cap)
        return grids[key]

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
        v_on = values[:, t, :, chain.on]
        for ib, reach in enumerate(chain.reach):
            v_low = v_on[:, chain.low[ib]]
            for jb, _ in reach:
                alpha[:, t - 1, ib, jb] = v_on[:, jb] - v_low
            for d in measures:
                dtb, cap = sched.deductible[ib, t - 1], sched.max_comp[ib, t - 1]
                grid = grid_for(d, dtb, cap)
                layered = mass = 0.0
                for jb, band in reach:
                    prob, comp, above = grid.claim_layers(band, alpha[:, t - 1, ib, jb])
                    layered = layered + above
                    mass = mass + comp
                    claim_prob[:, t - 1, ib, d, jb] = prob
                h_on[:, ib, d] = v_low - layered
                comp_mass[:, t - 1, ib, d] = mass

        h_off = values[:, t].reshape(P, -1)[:, chain.bm0]  # (P, nL, nS)
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
    marginals[:, 0, rule.levels.index(0) * n_status] = 1.0
    for t in range(T):
        year = (iota_opt[:, t], d_opt[:, t], claim_prob[:, t])
        marginals[:, t + 1] = chain.propagate(marginals[:, t], year)

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
    qoi = {
        QOI_SPEND: discounted(betas[d_opt]),
        QOI_PAYMENTS: discounted(pay_states),
        QOI_PREVENTED: discounted(el[0] - el[d_opt]),
        QOI_COMPENSATION: discounted(comp_states),
    }

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
            chain=chain,
            alpha=alpha[k],
            claim_prob=claim_prob[k],
            qoi_per_year={name: arr[k] for name, arr in qoi.items()},
            qoi_total={name: float(arr[k].sum()) for name, arr in qoi.items()},
        )
        for k, c in enumerate(contracts)
    ]


def claim_rule(solution: PolicySolution, b: int, status: str, t: int, loss: float) -> int:
    """Optimal claim indicator for a realized annual loss.

    Returns 1 iff the cover is active under the optimal policy and the
    compensation falls in one of the year's claim sets. A compensation
    exactly equal to a value-gap threshold does not claim (strict
    inequality), and an insured below the deductible never claims.
    """
    contract = solution.contract
    ib = contract.schedules.level_index(b)
    ii = contract.rule.statuses.index(status)
    if not solution.iota_opt[t - 1, ib, ii]:
        return 0
    dtb = contract.schedules.deductible[ib, t - 1]
    lam = min(max(loss - dtb, 0.0), contract.schedules.max_comp[ib, t - 1])
    for _, claim_set in solution.claim_sets[t - 1][ib]:
        if not claim_set.empty and bool(claim_set.contains(lam)):
            return 1
    return 0


def occupancy_summaries(solution: PolicySolution) -> OccupancySummary:
    """Retention, time per level, and mitigation-adoption aggregates."""
    contract = solution.contract
    statuses = contract.rule.statuses
    levels = contract.rule.levels
    n_status = len(statuses)
    on_idx = statuses.index(STATUS_ON)
    T = contract.horizon
    occ = solution.marginals[1:].reshape(T, len(levels), n_status)
    years_by_level = {b: float(occ[:, ib, on_idx].sum()) for ib, b in enumerate(levels)}
    years_uninsured = T - float(occ[:, :, on_idx].sum(axis=1).sum())
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
    return solution.qoi_total[QOI_PAYMENTS] - solution.qoi_total[QOI_COMPENSATION]
