"""Forward Monte Carlo simulation of the controlled provisioning process.

Cross-validates the backward-induction solver by replaying a decision
policy on exact (continuous) severity draws: for each path and year the
engine draws an event count, samples severities by quantile inversion,
applies the policy's measure/cover decisions and claim rule, accumulates
the discounted yearly cost ``sum_t discount**t * cost_t``, and steps the
contract state. Empirical means converge to the solver's value and the
per-year state frequencies to its marginal occupancies, up to grid error.

Randomness is counter based: every uniform draw is a pure hash of
``(seed, path, year, slot)``, so each path owns its substream: growing
the path count never reshuffles earlier paths, and identical seeds
reproduce results bit for bit. Claim decisions and level moves reuse the
solver's chain and claim sets (interval membership); no thresholds are
re-derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contract import STATUS_NO, ContractSpec
from .errors import DomainError
from .solver import PolicySolution, _Chain

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "FixedPolicy",
    "simulate",
    "evaluate_fixed_policy",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
_U54 = 2.0**-54


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _uniform(seed: int, path: np.ndarray, year: int, slot: np.ndarray) -> np.ndarray:
    """Uniform draws in (0, 1), one per (seed, path, year, slot) counter."""
    h = _mix64(np.asarray(slot, dtype=np.uint64))
    h = _mix64(h ^ np.uint64(year))
    h = _mix64(h ^ np.asarray(path, dtype=np.uint64))
    h = _mix64(h ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return (h >> np.uint64(11)).astype(np.float64) * _U53 + _U54


def _poisson_cdf_table(rate: float) -> np.ndarray:
    """CDF table for inversion sampling; covers all double-precision mass."""
    if rate == 0.0:
        return np.array([1.0])
    k_max = int(rate + 12.0 * math.sqrt(rate) + 40.0)
    pmf = np.empty(k_max + 1)
    pmf[0] = math.exp(-rate)
    for k in range(1, k_max + 1):
        pmf[k] = pmf[k - 1] * rate / k
    return np.minimum(np.cumsum(pmf), 1.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Path count and seed of a replay."""

    n_paths: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates over simulated paths."""

    n_paths: int
    mean: float  # mean discounted total cost
    std_error: float
    state_frequency: np.ndarray  # (T+1, n_states) empirical occupancy
    path_costs: np.ndarray  # (n_paths,) discounted total cost per path


@dataclass(frozen=True)
class FixedPolicy:
    """Explicit decision tables for suboptimality checks.

    ``claim`` selects the claim behavior: ``"never"``, or
    ``"whenever_positive"`` to claim any strictly positive compensation
    while covered. Claims are gated by the cover decision, so a fixed
    policy can never claim uninsured.
    """

    d_table: np.ndarray  # (T, n_levels, n_statuses)
    iota_table: np.ndarray  # (T, n_levels, n_statuses)
    claim: str = "never"

    def __post_init__(self):
        if self.claim not in ("never", "whenever_positive"):
            raise DomainError(f"unknown claim mode {self.claim!r}")


def _claim_sets_for(policy, chain: _Chain, horizon: int) -> list:
    """Per (year, level index): (target level index, claim interval) pairs."""
    if isinstance(policy, PolicySolution):
        index = {b: k for k, b in enumerate(policy.contract.rule.levels)}
        years = [
            [[(index[b], iv) for b, iv in sets] for sets in year]
            for year in policy.claim_sets
        ]
    elif policy.claim == "never":
        years = [[[] for _ in chain.reach]] * horizon
    else:
        positive = [
            [(jb, band.cut_below(0.0)) for jb, band in reach] for reach in chain.reach
        ]
        years = [positive] * horizon
    return [
        [[(jb, iv) for jb, iv in sets if not iv.empty] for sets in year]
        for year in years
    ]


def _run(
    contract: ContractSpec,
    severity,
    frequency,
    d_table: np.ndarray,
    iota_table: np.ndarray,
    policy,
    cfg: SimulationConfig,
) -> SimulationResult:
    """Replay decision tables and a claim policy on counter-based draws.

    Each year a path pays its measure, loss and :meth:`ContractSpec.payments`
    and nets out what it claims. A covered path moves to the zero-claim
    level unless its compensation falls in a claim set, which takes it to
    that set's level; an uncovered path follows the inactive table.
    """
    rule, sched = contract.rule, contract.schedules
    chain = _Chain.of(rule)
    T, n, n_status = contract.horizon, cfg.n_paths, chain.n_status
    n_states = len(rule.levels) * n_status
    claim_sets = _claim_sets_for(policy, chain, T)
    df = sched.discount_factor
    start = rule.levels.index(0) * n_status + rule.statuses.index(STATUS_NO)
    low = np.asarray(chain.low)
    status = np.arange(n_status)

    pois_cdf = _poisson_cdf_table(frequency.rate)
    gammas = np.asarray(contract.menu.gammas)
    betas = np.asarray(contract.menu.betas)

    paths = np.arange(n, dtype=np.uint64)
    ib, ii = np.divmod(np.full(n, start, dtype=np.int64), n_status)
    total_cost = np.zeros(n)
    freq_tally = np.zeros((T + 1, n_states))
    freq_tally[0, start] = n

    for t in range(1, T + 1):
        d = d_table[t - 1, ib, ii]
        io = iota_table[t - 1, ib, ii].astype(bool)

        u_n = _uniform(cfg.seed, paths, t, np.zeros(n, dtype=np.uint64))
        counts = np.searchsorted(pois_cdf, u_n, side="left")
        total_events = int(counts.sum())
        if total_events:
            owner = np.repeat(np.arange(n), counts)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            slot = np.arange(total_events, dtype=np.uint64) - np.repeat(
                starts, counts
            ).astype(np.uint64) + np.uint64(1)
            u_x = _uniform(cfg.seed, paths[owner], t, slot)
            x = severity.sample(u_x)
            clipped = np.maximum(x - gammas[d][owner], 0.0)
            loss = np.bincount(owner, weights=clipped, minlength=n)
        else:
            loss = np.zeros(n)

        dtb = sched.deductible[ib, t - 1]
        cap = sched.max_comp[ib, t - 1]
        lam = np.minimum(np.maximum(loss - dtb, 0.0), cap)

        claim = np.zeros(n, dtype=bool)
        target = low[ib]  # level index if covered: zero-claim unless a claim moves it
        for ibv, sets in enumerate(claim_sets[t - 1]):
            if not sets:
                continue
            covered = np.flatnonzero(io & (ib == ibv))
            lam_c = lam[covered]
            for jb, claim_set in sets:
                hit = covered[claim_set.contains(lam_c)]
                claim[hit] = True
                target[hit] = jb

        # Payments depend on the state alone: one (level, status) table a year.
        due = sched.premium[:, t - 1, None]
        pay = contract.payments(t, due, status, iota_table[t - 1])
        cost = betas[d] + loss + pay[ib, ii] - claim * lam
        total_cost += df**t * cost

        new_ib, new_ii = np.divmod(chain.bm0[ib, ii], n_status)
        new_ib[io] = target[io]
        new_ii[io] = chain.on
        ib, ii = new_ib, new_ii
        freq_tally[t] = np.bincount(ib * n_status + ii, minlength=n_states)

    mean = float(total_cost.mean())
    se = float(total_cost.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimulationResult(
        n_paths=n,
        mean=mean,
        std_error=se,
        state_frequency=freq_tally / n,
        path_costs=total_cost,
    )


def simulate(
    solution: PolicySolution,
    severity,
    frequency,
    cfg: SimulationConfig,
) -> SimulationResult:
    """Replay the solved optimal policy on fresh continuous randomness.

    The mean discounted cost estimates the solver's initial value; the
    state frequencies estimate its marginal occupancies.
    """
    return _run(
        solution.contract,
        severity,
        frequency,
        solution.d_opt,
        solution.iota_opt,
        solution,
        cfg,
    )


def evaluate_fixed_policy(
    contract: ContractSpec,
    severity,
    frequency,
    policy: FixedPolicy,
    cfg: SimulationConfig,
) -> SimulationResult:
    """Unbiased cost estimate of an explicit (suboptimal) decision policy.

    Any admissible fixed policy must cost at least the solver's optimum,
    up to Monte Carlo error.
    """
    return _run(
        contract,
        severity,
        frequency,
        np.asarray(policy.d_table, dtype=int),
        np.asarray(policy.iota_table, dtype=int),
        policy,
        cfg,
    )
