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
reproduce results bit for bit. Claim decisions reuse the solved claim
sets (interval membership); no thresholds are re-derived here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contract import STATUS_NO, STATUS_ON, ContractSpec
from .errors import DomainError
from .intervals import Interval
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
    """Path count, seed, and optional horizon override (must match)."""

    n_paths: int
    seed: int
    horizon: Optional[int] = None
    keep_path_costs: bool = False  # retain the per-path cost vector

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
    mean_yearly_cost: np.ndarray  # (T,) undiscounted per-year mean cost
    path_costs: Optional[np.ndarray] = None  # only when requested


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


def _claim_sets_for(policy, contract: ContractSpec):
    """Per (year, level) claim intervals for the engine."""
    T = contract.horizon
    n_levels = len(contract.rule.levels)
    if isinstance(policy, PolicySolution):
        return [
            [
                [iv for _, iv in policy.claim_sets[t][ib] if not iv.empty]
                for ib in range(n_levels)
            ]
            for t in range(T)
        ]
    if policy.claim == "never":
        return [[[] for _ in range(n_levels)] for _ in range(T)]
    everything = [Interval(0.0, np.inf, lo_open=True, hi_open=True)]
    return [[list(everything) for _ in range(n_levels)] for _ in range(T)]


def _run(
    contract: ContractSpec,
    severity,
    frequency,
    d_table: np.ndarray,
    iota_table: np.ndarray,
    claim_sets,
    cfg: SimulationConfig,
    trace_path=None,
    trace_paths: int = 0,
) -> SimulationResult:
    rule = contract.rule
    sched = contract.schedules
    menu = contract.menu
    levels = rule.levels
    statuses = rule.statuses
    n_levels, n_status = len(levels), len(statuses)
    T = contract.horizon
    if cfg.horizon is not None and cfg.horizon != T:
        raise DomainError(f"config horizon {cfg.horizon} != contract horizon {T}")
    n = cfg.n_paths
    df = sched.discount_factor
    level_index = {b: k for k, b in enumerate(levels)}
    on_idx = statuses.index(STATUS_ON)
    no_idx = statuses.index(STATUS_NO)

    bm0 = _Chain.of(rule).bm0  # flat state after a year without cover

    pois_cdf = _poisson_cdf_table(frequency.rate)
    gammas = np.asarray(menu.gammas)
    betas = np.asarray(menu.betas)

    paths = np.arange(n, dtype=np.uint64)
    ib = np.full(n, level_index[0], dtype=np.int64)
    ii = np.full(n, no_idx, dtype=np.int64)
    total_cost = np.zeros(n)
    yearly_mean = np.zeros(T)
    freq_tally = np.zeros((T + 1, n_levels * n_status))
    freq_tally[0, level_index[0] * n_status + no_idx] = n

    trace_rows = []
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
        for ibv in range(n_levels):
            sets = claim_sets[t - 1][ibv]
            if not sets:
                continue
            mask = io & (ib == ibv)
            if not mask.any():
                continue
            member = np.zeros(int(mask.sum()), dtype=bool)
            lam_m = lam[mask]
            for interval in sets:
                member |= interval.contains(lam_m)
            claim[mask] = member

        cost = (
            betas[d]
            + loss
            + io * sched.premium[ib, t - 1]
            + sched.fee_in[t - 1] * (io & (ii == no_idx))
            + sched.fee_out[t - 1] * (~io & (ii == on_idx))
            + sched.fee_re * (io & (ii != no_idx) & (ii != on_idx))
            - io * claim * lam
        )
        total_cost += df**t * cost
        yearly_mean[t - 1] = cost.mean()

        if trace_paths:
            keep = min(trace_paths, n)
            for p in range(keep):
                trace_rows.append(
                    (
                        p,
                        t,
                        levels[ib[p]],
                        statuses[ii[p]],
                        int(d[p]),
                        int(io[p]),
                        int(counts[p]),
                        float(loss[p]),
                        int(claim[p]),
                        float(cost[p]),
                    )
                )

        # State transition: insured paths move by the claim rule, others
        # by the inactive table.
        new_ib, new_ii = np.divmod(bm0[ib, ii], n_status)
        if io.any():
            amount = np.where(claim, lam, 0.0)
            level_values = np.asarray(levels)
            for ibv, b in enumerate(levels):
                mask = io & (ib == ibv)
                if not mask.any():
                    continue
                targets = rule.claim_level_array(b, amount[mask])
                new_ib[mask] = np.searchsorted(level_values, targets)
            new_ii[io] = on_idx
        ib, ii = new_ib, new_ii
        freq_tally[t] = np.bincount(
            ib * n_status + ii, minlength=n_levels * n_status
        )

    if trace_path is not None and trace_paths:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "path",
                    "year",
                    "level",
                    "status",
                    "measure",
                    "insured",
                    "n_events",
                    "loss",
                    "claimed",
                    "cost",
                ]
            )
            writer.writerows(trace_rows)

    mean = float(total_cost.mean())
    se = float(total_cost.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimulationResult(
        n_paths=n,
        mean=mean,
        std_error=se,
        state_frequency=freq_tally / n,
        mean_yearly_cost=yearly_mean,
        path_costs=total_cost if cfg.keep_path_costs else None,
    )


def simulate(
    solution: PolicySolution,
    severity,
    frequency,
    cfg: SimulationConfig,
    trace_path=None,
    trace_paths: int = 0,
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
        _claim_sets_for(solution, solution.contract),
        cfg,
        trace_path=trace_path,
        trace_paths=trace_paths,
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
        _claim_sets_for(policy, contract),
        cfg,
    )
