"""Forward Monte Carlo simulation of the controlled provisioning process.

Cross-validates the backward-induction solver by replaying a decision
policy on exact (continuous) severity draws. :func:`simulate` is the one
entry point, for a solved policy or a :class:`FixedPolicy`: for each path
and year it draws an event count, samples severities by quantile
inversion, applies the policy's measure/cover decisions and claim rule,
accumulates the discounted yearly cost ``sum_t discount**t * cost_t``,
and steps the contract state. For a solution, empirical means converge to
the solver's value and the per-year state frequencies to its marginal
occupancies, up to grid error; a fixed policy costs at least the optimum.

Randomness is counter based: every uniform draw is a pure hash of
``(seed, path, year, slot)``, so each path owns its substream: growing
the path count never reshuffles earlier paths, and identical seeds
reproduce results bit for bit. Slot 0 draws a path's event count and slots
1..k its k severities. The engine runs the paths in equal blocks of at
most ``_BLOCK``, as many as an equal share per usable CPU needs, and
makes one draw round per event slot over the paths of a block that have
that many events; the ``(year, slot)`` half of the hash is one scalar per
round. Neither the block layout, nor the order of the rounds, nor the
number of threads the blocks run on changes a draw or a sum, so results
do not depend on them. A year reads its decisions, payments and contract
terms from one row of tables built once per replay. Claims come from the
policy's thresholds: the contract's rule decides, by
:meth:`~cyberprov.contract.BonusMalusRule.claim_targets` at the year's
value gaps, which compensations a covered path claims and where they lead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .contract import ON_INDEX, ContractSpec
from .errors import DomainError
from .parallel import cpu_count, map_tasks
from .solver import PolicySolution

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "FixedPolicy",
    "McVerdict",
    "simulate",
    "mc_verdict",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
_U54 = 2.0**-54
_BLOCK = 2**16  # most paths per block: a block's per-path arrays fit in L2
# Bytes per path of one block's temporaries (about 5.6 MiB traced per block).
_BLOCK_BYTES_PER_PATH = 80
MC_RELATIVE_FLOOR = 5e-3  # mc_verdict's tolerance floor, relative to |V0|


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


def _blocks(n: int) -> list:
    """``(start, stop)`` of equal path blocks covering ``range(n)``.

    Their count is the fewest that keeps every block within ``_BLOCK``
    paths and gives each usable CPU as many blocks as the next (no more
    than ``n``), so sizes differ by at most one and the threads share the
    paths evenly.
    """
    cpus = cpu_count()
    count = min(n, cpus * -(-n // (cpus * _BLOCK)))
    bounds = [k * n // count for k in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _poisson_cdf_table(rate: float) -> np.ndarray:
    """CDF table for inversion sampling, in log space so no pmf term underflows."""
    if rate == 0.0:
        return np.array([1.0])
    k = np.arange(int(rate + 12.0 * math.sqrt(rate) + 40.0) + 1)
    return np.minimum(np.cumsum(np.exp(k * math.log(rate) - rate - gammaln(k + 1))), 1.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Path count and seed of a replay."""

    n_paths: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")

    @property
    def peak_bytes(self) -> int:
        """Memory a replay allocates at least: 8 B per path for the path
        costs and 8 B for the one temporary of their standard deviation,
        plus one block's temporaries."""
        return 16 * self.n_paths + _BLOCK_BYTES_PER_PATH * min(self.n_paths, _BLOCK)


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

    :func:`simulate` replays it as it replays a solution: ``d_opt`` and
    ``iota_opt`` are shaped and indexed like a
    :class:`~cyberprov.solver.PolicySolution`'s, and the policy keeps
    write-protected int copies of them. ``claim`` selects the claim
    behavior: ``"never"``, or ``"whenever_positive"`` to claim any strictly
    positive compensation while covered. Claims are gated by the cover
    decision, so a fixed policy can never claim uninsured.

    Raises:
        DomainError: If ``claim`` is neither mode, a table is not shaped
            ``(T, n_levels, n_statuses)``, ``d_opt`` holds a value outside
            ``menu.measures``, or ``iota_opt`` a value other than 0 or 1.
    """

    contract: ContractSpec
    d_opt: np.ndarray  # (T, n_levels, n_statuses)
    iota_opt: np.ndarray  # (T, n_levels, n_statuses)
    claim: str = "never"

    def __post_init__(self):
        if self.claim not in ("never", "whenever_positive"):
            raise DomainError(f"unknown claim mode {self.claim!r}")
        rule = self.contract.rule
        shape = (self.contract.horizon, len(rule.levels), len(rule.statuses))
        for name, allowed in (("d_opt", self.contract.menu.measures), ("iota_opt", (0, 1))):
            table = np.asarray(getattr(self, name))
            if table.shape != shape:
                raise DomainError(f"{name}: shape {table.shape}, expected {shape}")
            if not np.isin(table, allowed).all():
                raise DomainError(f"{name}: values must lie in {list(allowed)}")
            table = table.astype(int)
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def alpha(self) -> np.ndarray:
        """``(T, n_levels, n_levels)`` value gaps of the claim mode: 0 claims
        every positive compensation, infinity none."""
        T, n_levels = self.d_opt.shape[:2]
        gap = 0.0 if self.claim == "whenever_positive" else np.inf
        return np.full((T, n_levels, n_levels), gap)


def simulate(
    policy: PolicySolution | FixedPolicy, severity, frequency, cfg: SimulationConfig
) -> SimulationResult:
    """Replay a solved or fixed policy on counter-based draws.

    The replay reads the policy's ``contract``, its decision tables
    ``d_opt`` and ``iota_opt`` and its value gaps ``alpha``. For a
    solution the mean discounted cost estimates the solver's initial value
    and the state frequencies its marginal occupancies; any admissible
    fixed policy must cost at least the optimum, up to Monte Carlo error.

    Each year a path pays its measure, loss and :meth:`ContractSpec.payments`
    and nets out what it claims. A covered path claims, and moves to the
    target level, where the rule's
    :meth:`~cyberprov.contract.BonusMalusRule.claim_targets` at the gaps
    ``alpha[t - 1]`` names one; otherwise it moves to the zero-claim level.
    An uncovered path follows the inactive table. Each of these per-state
    terms is row ``t - 1`` of a ``(T, n_states)`` table over the flat
    states ``s = level * n_status + status``, built once for all years.

    Paths run in the equal blocks of :func:`_blocks`, each block through
    all years, so the per-path temporaries stay small. Within a year, slot
    ``k`` draws one severity for every path with at least ``k`` events, and
    the clipped severities add into the loss in slot order. Each block is
    one :func:`~cyberprov.parallel.map_tasks` task, on threads when more
    than one CPU is usable: it writes only its own slice of ``path_costs``
    and returns its integer state counts, whose sum does not depend on
    order. So every output is the same on any number of threads.
    """
    contract, alpha = policy.contract, policy.alpha
    rule, sched, menu = contract.rule, contract.schedules, contract.menu
    T, n = contract.horizon, cfg.n_paths
    n_status = len(rule.statuses)
    n_states = len(rule.levels) * n_status
    df = sched.discount_factor
    level = np.repeat(np.arange(len(rule.levels)), n_status)
    d = policy.d_opt.reshape(T, -1)
    cover = policy.iota_opt.reshape(T, -1).astype(bool)
    beta, gamma = np.asarray(menu.betas)[d], np.asarray(menu.gammas)[d]
    due = contract.base_premium * sched.premium.T[:, :, None]
    years = np.arange(1, T + 1)[:, None, None]
    pay = contract.payments(years, due, np.arange(n_status), policy.iota_opt).reshape(T, -1)
    deductible, cap = sched.deductible.T[:, level], sched.max_comp.T[:, level]
    zero_claim = np.asarray(rule.low)[level] * n_status + ON_INDEX
    no_claim = np.where(cover, zero_claim, rule.bm0.reshape(-1))
    covered_level = np.where(cover, level, -1)
    pois_cdf = _poisson_cdf_table(frequency.rate)
    # A count can reach len(pois_cdf), so slots run 0..len(pois_cdf).
    slots = np.arange(len(pois_cdf) + 1, dtype=np.uint64)
    prefix = [_counter_prefix(t, slots) for t in range(1, T + 1)]
    seed = cfg.seed

    path_costs = np.zeros(n)

    def replay_block(block):
        b0, b1 = block
        paths = np.arange(b0, b1, dtype=np.uint64)
        m = len(paths)
        costs = path_costs[b0:b1]
        counts = np.empty((T, n_states), dtype=np.int64)
        s = np.full(m, rule.start)
        for t in range(1, T + 1):
            # Poisson inversion: a path draws at least k events when its
            # slot-0 draw exceeds pois_cdf[k - 1].
            u = _draw(paths, prefix[t - 1][0], seed)
            events = np.flatnonzero(u > pois_cdf[0])
            u, g = u[events], gamma[t - 1].take(s[events])
            loss = np.zeros(m)
            for k in range(1, len(pois_cdf) + 1):
                if k > 1:  # index arrays gather faster than boolean masks
                    more = np.flatnonzero(u > pois_cdf[k - 1])
                    events, u, g = events[more], u[more], g[more]
                if not len(events):
                    break
                x = severity.sample(_draw(paths[events], prefix[t - 1][k], seed))
                loss[events] += np.maximum(x - g, 0.0)

            lam = np.minimum(
                np.maximum(loss - deductible[t - 1].take(s), 0.0), cap[t - 1].take(s)
            )
            target = rule.claim_targets(lam, covered_level[t - 1].take(s), alpha[t - 1])
            claim = target >= 0
            nxt = np.where(claim, target * n_status + ON_INDEX, no_claim[t - 1].take(s))

            # Summed as measure + loss + payments - claimed, in that order.
            cost = beta[t - 1].take(s)
            cost += loss
            cost += pay[t - 1].take(s)
            np.subtract(cost, lam, out=cost, where=claim)
            cost *= df**t
            costs += cost
            s = nxt
            counts[t - 1] = np.bincount(s, minlength=n_states)
        return counts

    tally = np.zeros((T + 1, n_states), dtype=np.int64)
    tally[0, rule.start] = n
    for counts in map_tasks(replay_block, _blocks(n)):
        tally[1:] += counts

    mean = float(path_costs.mean())
    se = float(path_costs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimulationResult(
        n_paths=n,
        mean=mean,
        std_error=se,
        state_frequency=tally / n,
        path_costs=path_costs,
    )


class McVerdict(NamedTuple):
    """How a replay of the solved policy agrees with the solver."""

    diff: float  # Monte Carlo mean minus V0
    tolerance: float  # max(3 standard errors, 0.5 % of |V0|)
    worst_z: float  # worst per-year state-frequency z-score
    passed: bool


def mc_verdict(solution: PolicySolution, result: SimulationResult) -> McVerdict:
    """Judge a replay of ``solution`` against its value and marginal law.

    The mean passes when ``|MC - V0| <= max(3 SE, 0.5 % |V0|)``. Each
    state and year ``t >= 1`` gets the z-score of its empirical frequency
    against the solver's probability ``p``, with the binomial standard
    error ``sqrt(p (1 - p) / n)``. Where ``p`` is 0 or 1 that error is 0,
    so any other frequency there scores an infinite z and fails the
    verdict: the replay reached a state the solver rules out, or missed
    one it makes certain.
    """
    value = solution.value
    diff = result.mean - value
    tolerance = max(3.0 * result.std_error, MC_RELATIVE_FLOOR * abs(value))
    p = solution.marginals[1:]
    gap = np.abs(result.state_frequency[1:] - p)
    se = np.sqrt(np.maximum(p * (1 - p), 0.0) / result.n_paths)
    z = np.divide(gap, se, out=np.where(gap > 0, np.inf, 0.0), where=se > 0)
    worst = float(z.max())
    return McVerdict(diff, tolerance, worst, abs(diff) <= tolerance and worst < np.inf)
