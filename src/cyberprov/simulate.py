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
reproduce results bit for bit. Slot 0 draws a path's event count and slots
1..k its k severities. The engine runs the paths in blocks of ``_BLOCK``
and makes one draw round per event slot over the paths of a block that
have that many events; the ``(year, slot)`` half of the hash is one scalar
per round. Neither the block size nor the order of the rounds changes a
draw or a sum, so results do not depend on them. Claims come from the
policy's thresholds: a covered path claims when its compensation lies in a
claim band of the solver's chain, strictly above that band's threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
_BLOCK = 2**16  # paths per block: a block's per-path arrays fit in L2


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array; returns ``x``."""
    x += _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _counter_prefix(year: int, slots: np.ndarray) -> np.ndarray:
    """The slot and year rounds of the counter hash, shared by every path."""
    h = _mix64(np.array(slots, dtype=np.uint64))
    h ^= np.uint64(year)
    return _mix64(h)


def _draw(paths: np.ndarray, prefix: np.uint64, seed: int) -> np.ndarray:
    """Uniform draws in (0, 1): the path and seed rounds of the counter hash.

    With ``prefix = _counter_prefix(year, slot)`` this is the draw of the
    counter ``(seed, path, year, slot)`` for each of ``paths``.
    """
    h = _mix64(paths ^ prefix)
    h ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    _mix64(h)
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= _U53
    u += _U54
    return u


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


class _Year(NamedTuple):
    """One year of the replay, flat over states ``s = level * n_status + status``."""

    beta: np.ndarray  # measure cost
    gamma: np.ndarray  # measure's per-event retention
    pay: np.ndarray  # premium and fees, ContractSpec.payments
    deductible: np.ndarray
    cap: np.ndarray
    next: np.ndarray  # zero-claim state if covered, inactive move if not
    covered_level: np.ndarray  # level index if covered, -1 if not
    claims: list  # (level index, [(target state, claim interval)])

    @classmethod
    def of(cls, contract, chain, d_table, iota_table, alpha, t) -> "_Year":
        """The tables of year ``t`` (1-based); only nonempty claim sets."""
        sched, menu, n_status = contract.schedules, contract.menu, chain.n_status
        level = np.repeat(np.arange(len(contract.rule.levels)), n_status)
        d = np.asarray(d_table[t - 1]).reshape(-1)
        cover = np.asarray(iota_table[t - 1]).reshape(-1).astype(bool)
        due = contract.base_premium * sched.premium[:, t - 1, None]
        pay = contract.payments(t, due, np.arange(n_status), iota_table[t - 1])
        zero_claim = np.asarray(chain.low)[level] * n_status + chain.on
        claims = []
        for ib, reach in enumerate(chain.reach):
            cuts = ((jb, band.cut_below(alpha[t - 1, ib, jb])) for jb, band in reach)
            sets = [(jb * n_status + chain.on, iv) for jb, iv in cuts if not iv.empty]
            if sets:
                claims.append((ib, sets))
        return cls(
            beta=np.asarray(menu.betas)[d],
            gamma=np.asarray(menu.gammas)[d],
            pay=pay.reshape(-1),
            deductible=sched.deductible[level, t - 1],
            cap=sched.max_comp[level, t - 1],
            next=np.where(cover, zero_claim, chain.bm0.reshape(-1)),
            covered_level=np.where(cover, level, -1),
            claims=claims,
        )


def _run(
    contract: ContractSpec,
    severity,
    frequency,
    d_table: np.ndarray,
    iota_table: np.ndarray,
    alpha: np.ndarray,
    cfg: SimulationConfig,
) -> SimulationResult:
    """Replay decision tables and claim thresholds on counter-based draws.

    Each year a path pays its measure, loss and :meth:`ContractSpec.payments`
    and nets out what it claims. A covered path moves to the zero-claim
    level unless its compensation falls in a claim set, the part of a claim
    band above ``alpha[t-1, level, target]``, which takes it to that target;
    an uncovered path follows the inactive table.

    Paths run in blocks of ``_BLOCK``, each block through all years, so the
    per-path temporaries stay small. Within a year, slot ``k`` draws one
    severity for every path with at least ``k`` events, and the clipped
    severities add into the loss in slot order.
    """
    rule, sched = contract.rule, contract.schedules
    chain = _Chain.of(rule)
    T, n = contract.horizon, cfg.n_paths
    n_states = len(rule.levels) * chain.n_status
    df = sched.discount_factor
    years = [
        _Year.of(contract, chain, d_table, iota_table, alpha, t)
        for t in range(1, T + 1)
    ]
    start = rule.levels.index(0) * chain.n_status + rule.statuses.index(STATUS_NO)
    pois_cdf = _poisson_cdf_table(frequency.rate)
    # A count can reach len(pois_cdf), so slots run 0..len(pois_cdf).
    slots = np.arange(len(pois_cdf) + 1, dtype=np.uint64)
    prefix = [_counter_prefix(t, slots) for t in range(1, T + 1)]
    seed = cfg.seed

    path_costs = np.zeros(n)
    tally = np.zeros((T + 1, n_states), dtype=np.int64)
    tally[0, start] = n
    for b0 in range(0, n, _BLOCK):
        paths = np.arange(b0, min(b0 + _BLOCK, n), dtype=np.uint64)
        m = len(paths)
        s = np.full(m, start)
        for t, year in enumerate(years, start=1):
            # Poisson inversion: a path draws at least k events when its
            # slot-0 draw exceeds pois_cdf[k - 1].
            u = _draw(paths, prefix[t - 1][0], seed)
            events = np.flatnonzero(u > pois_cdf[0])
            u, gamma = u[events], year.gamma.take(s[events])
            loss = np.zeros(m)
            for k in range(1, len(pois_cdf) + 1):
                if k > 1:  # index arrays gather faster than boolean masks
                    more = np.flatnonzero(u > pois_cdf[k - 1])
                    events, u, gamma = events[more], u[more], gamma[more]
                if not len(events):
                    break
                x = severity.sample(_draw(paths[events], prefix[t - 1][k], seed))
                loss[events] += np.maximum(x - gamma, 0.0)

            lam = np.minimum(
                np.maximum(loss - year.deductible.take(s), 0.0), year.cap.take(s)
            )
            claim = np.zeros(m, dtype=bool)
            nxt = year.next.take(s)
            covered_level = year.covered_level.take(s)
            for ib, sets in year.claims:
                covered = covered_level == ib
                for target, claim_set in sets:
                    hit = covered & claim_set.contains(lam)
                    claim |= hit
                    np.copyto(nxt, target, where=hit)

            # Summed as measure + loss + payments - claimed, in that order.
            cost = year.beta.take(s)
            cost += loss
            cost += year.pay.take(s)
            np.subtract(cost, lam, out=cost, where=claim)
            cost *= df**t
            path_costs[b0 : b0 + m] += cost
            s = nxt
            tally[t] += np.bincount(s, minlength=n_states)

    mean = float(path_costs.mean())
    se = float(path_costs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimulationResult(
        n_paths=n,
        mean=mean,
        std_error=se,
        state_frequency=tally / n,
        path_costs=path_costs,
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
        solution.alpha,
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
    up to Monte Carlo error. Its claim mode is a threshold of 0 or infinity.
    """
    shape = (contract.horizon,) + 2 * (len(contract.rule.levels),)
    alpha = np.full(shape, 0.0 if policy.claim == "whenever_positive" else np.inf)
    return _run(
        contract,
        severity,
        frequency,
        np.asarray(policy.d_table, dtype=int),
        np.asarray(policy.iota_table, dtype=int),
        alpha,
        cfg,
    )
