"""Independent oracles shared by the test suite.

These deliberately avoid the code paths they validate: the scalar one-year
dynamics (``step`` / ``stage_cost``) spell out a single path's year with no
vectorization, chain tables or shared payments rule; the scenario-tree
optimizer enumerates history-dependent policies with no state-space
aggregation and no claim-interval logic; the counter hash runs all four
of its mixing rounds on every draw; the direct layer sums scan every atom;
the bisection inverse of the g-and-h transform halves its brackets a fixed
number of times; the quantile oracle writes the g-and-h product out in
full; the quadrature oracle integrates the survival function
directly; the compound Monte Carlo oracle simulates event counts and
severities forward.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy import integrate
from scipy.special import ndtri

from cyberprov.contract import (
    STATUS_NO,
    STATUS_ON,
    BonusMalusRule,
    ContractSchedules,
    ContractSpec,
    MitigationMenu,
    contract_statuses,
    off_status,
)
from cyberprov.compound import DiscreteLossDistribution
from cyberprov.errors import ConvergenceFailure, CyberProvError, DomainError
from cyberprov.intervals import Interval
from cyberprov.severity import _INVERSE_TOL, _MAX_BRACKET_STEPS, _PHI_ARG_MAX, _PHI_ARG_MIN


# ---------------------------------------------------------------------------
# Scalar one-year dynamics of a single path
# ---------------------------------------------------------------------------
class AdmissibilityViolation(CyberProvError):
    """A decision tuple violates the rule that claims require active cover."""


class ContractState(NamedTuple):
    level: int
    status: str


def claim_level(rule: BonusMalusRule, b: int, c: float) -> int:
    """Level after a year with claim amount ``c`` (contract active)."""
    if c < 0:
        raise DomainError(f"claim amount must be >= 0, got {c}")
    if c == 0.0:
        return rule.zero_claim[b]
    bands = rule.pieces[b]
    idx = 0
    for k, (thr, _) in enumerate(bands):
        if c > thr:
            idx = k
        else:
            break
    return bands[idx][1]


def aggregate_loss(
    contract: ContractSpec, d: int, severities: Sequence[float]
) -> float:
    """Annual loss after mitigation: sum of clipped event losses."""
    gamma = contract.menu.gamma(d)
    if len(severities) == 0:
        return 0.0
    x = np.asarray(severities, dtype=float)
    if np.any(x < 0):
        raise DomainError("event losses must be nonnegative")
    return float(np.maximum(x - gamma, 0.0).sum())


def compensation(contract: ContractSpec, b: int, t: int, loss: float) -> float:
    """Claimable amount: loss above the deductible, capped.

    Nondecreasing and 1-Lipschitz in the loss; never exceeds the cap.
    """
    if loss < 0:
        raise DomainError(f"loss must be >= 0, got {loss}")
    ib = contract.schedules.level_index(b)
    dtb = contract.schedules.deductible[ib, t - 1]
    cap = contract.schedules.max_comp[ib, t - 1]
    return float(min(max(loss - dtb, 0.0), cap))


def step(
    contract: ContractSpec,
    state: ContractState,
    t: int,
    d: int,
    iota: int,
    j: int,
    severities: Sequence[float],
) -> ContractState:
    """Next contract state given the year's decisions and losses."""
    if iota == 0 and j == 1:
        raise AdmissibilityViolation("cannot claim without active cover")
    if iota == 1:
        loss = aggregate_loss(contract, d, severities)
        claim = j * compensation(contract, state.level, t, loss)
        return ContractState(claim_level(contract.rule, state.level, claim), STATUS_ON)
    b2, s2 = contract.rule.inactive[(state.level, state.status)]
    return ContractState(b2, s2)


def stage_cost(
    contract: ContractSpec,
    state: ContractState,
    t: int,
    d: int,
    iota: int,
    j: int,
    severities: Sequence[float],
) -> float:
    """Cash outflow of one year: investment, premium, fees, net loss."""
    if iota == 0 and j == 1:
        raise AdmissibilityViolation("cannot claim without active cover")
    b, status = state
    sched = contract.schedules
    ib = sched.level_index(b)
    loss = aggregate_loss(contract, d, severities)
    cost = contract.menu.beta(d) + loss
    if iota == 1:
        cost += contract.base_premium * sched.premium[ib, t - 1]
        if status == STATUS_NO:
            cost += sched.fee_in[t - 1]
        elif status != STATUS_ON:
            cost += sched.fee_re
        cost -= j * compensation(contract, b, t, loss)
    elif status == STATUS_ON:
        cost += sched.fee_out[t - 1]
    return cost


# ---------------------------------------------------------------------------
# The counter hash, four full splitmix64 rounds per draw
# ---------------------------------------------------------------------------
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


def uniform(seed: int, path: np.ndarray, year: int, slot: np.ndarray) -> np.ndarray:
    """Uniform draws in (0, 1), one per (seed, path, year, slot) counter."""
    h = _mix64(np.asarray(slot, dtype=np.uint64))
    h = _mix64(h ^ np.uint64(year))
    h = _mix64(h ^ np.asarray(path, dtype=np.uint64))
    h = _mix64(h ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return (h >> np.uint64(11)).astype(np.float64) * _U53 + _U54


# ---------------------------------------------------------------------------
# Direct layer sums over the atoms of a loss distribution
# ---------------------------------------------------------------------------
def _atom_compensation(atoms: np.ndarray, dtb: float, cap: float) -> np.ndarray:
    return np.minimum(np.maximum(atoms - dtb, 0.0), cap)


def layer_expectation(
    dist: DiscreteLossDistribution,
    interval: Interval,
    dtb: float,
    cap: float,
    alpha_offset: float = 0.0,
) -> float:
    """Finite-sum expectation of a compensation layer above an offset.

    Computes ``sum_j p_j * 1_I(c_j) * (c_j - alpha_offset)^+`` where
    ``c_j = min((a_j - dtb)^+, cap)`` is the compensation at atom ``a_j``
    and ``I`` is the given interval in compensation space.
    """
    c = _atom_compensation(dist.atoms, dtb, cap)
    inside = interval.contains(c)
    return float(np.sum(dist.probs * inside * np.maximum(c - alpha_offset, 0.0)))


def layer_probability(
    dist: DiscreteLossDistribution,
    interval: Interval,
    dtb: float,
    cap: float,
) -> float:
    """Probability that the compensation falls inside an interval.

    Endpoint strictness of ``interval`` is honored exactly.
    """
    c = _atom_compensation(dist.atoms, dtb, cap)
    return float(np.sum(dist.probs * interval.contains(c)))


# ---------------------------------------------------------------------------
# Bisection, quadrature and sampling oracles for the severity model
# ---------------------------------------------------------------------------
def bisect_inverse(g: float, h: float, y: np.ndarray) -> np.ndarray:
    """Vectorized monotone bisection for ``Y^{-1}``."""

    def f(z):
        with np.errstate(over="ignore"):
            return (np.expm1(g * z) / g) * np.exp(0.5 * h * z * z)

    y = np.asarray(y, dtype=float)
    lo = np.full(y.shape, -1.0)
    hi = np.full(y.shape, 1.0)
    for _ in range(_MAX_BRACKET_STEPS):
        too_high = f(lo) > y
        too_low = f(hi) < y
        if not (too_high.any() or too_low.any()):
            break
        lo[too_high] *= 2.0
        hi[too_low] *= 2.0
    else:
        raise ConvergenceFailure(
            "could not bracket Y inverse within "
            f"{_MAX_BRACKET_STEPS} expansion steps (y out of range?)"
        )
    # Fixed halving count: bracket width / 2^n <= tolerance.
    width = float(np.max(hi - lo))
    n_iter = max(1, math.ceil(math.log2(width / _INVERSE_TOL)))
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        high_side = f(mid) >= y
        hi = np.where(high_side, mid, hi)
        lo = np.where(high_side, lo, mid)
    return 0.5 * (lo + hi)


def quantile_product(params, u: np.ndarray) -> np.ndarray:
    """The truncated g-and-h quantile as ``alpha + sigma * core * tail``.

    The product is written out left to right, with no shared transform, so
    a library quantile that scales ``Y`` in another order differs in the
    last bits.
    """
    a, s, g, h = params.alpha, params.sigma, params.g, params.h
    z = ndtri(np.clip(u + (1.0 - u) * params.f0, _PHI_ARG_MIN, _PHI_ARG_MAX))
    with np.errstate(over="ignore"):
        return a + s * (np.expm1(g * z) / g) * np.exp(h * z * z / 2)


def stop_loss_quadrature(severity, gamma: float, x_max: float = 1e12) -> float:
    """E[(X - gamma)^+] as the survival integral, piecewise log-spaced.

    Uses only the CDF; independent of any closed form.
    """

    def survival(x):
        return 1.0 - severity.cdf(x)

    start = max(gamma, 0.0)
    grid = [b for b in np.geomspace(max(start, 1e-3) * 2.0 + 1.0, x_max, 40)]
    breaks = [start] + [b for b in grid if b > start]
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        piece, _ = integrate.quad(survival, a, b, epsrel=1e-10, limit=200)
        total += piece
    return total


def second_moment_mpmath(alpha: float, sigma: float, g: float, h: float) -> float:
    """E[X^2] for the truncated model via arbitrary-precision tanh-sinh."""
    import mpmath as mp

    with mp.workdps(40):
        a, s, gg, hh = (mp.mpf(repr(v)) for v in (alpha, sigma, g, h))

        def transform(z):
            return a + s * (mp.expm1(gg * z) / gg) * mp.e ** (hh * z * z / 2)

        # Root of transform(z) = 0; the raw variate is positive beyond it.
        z0 = mp.findroot(transform, 0.0) if a != 0 else mp.mpf(0)
        tail_mass = mp.ncdf(-z0)

        def integrand(z):
            x = transform(z)
            return x * x * mp.npdf(z)

        val = mp.quad(integrand, [z0, 6, 12, 45]) / tail_mass
        return float(val)


def compound_poisson_samples(severity, rate: float, n_sims: int, seed: int) -> np.ndarray:
    """Annual aggregate-loss samples by direct forward simulation."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate, n_sims)
    events = severity.sample(rng.random(int(counts.sum())))
    owners = np.repeat(np.arange(n_sims), counts)
    return np.bincount(owners, weights=events, minlength=n_sims)


# ---------------------------------------------------------------------------
# Scenario-tree optimum (history-dependent policies, no aggregation)
# ---------------------------------------------------------------------------
def tree_optimal_value(contract: ContractSpec, atoms, probs):
    """Optimal value by independent minimization at every history node.

    ``atoms`` are yearly loss realizations (tuples of severities) with
    probabilities ``probs``. Decisions are optimized per history branch
    through the raw one-year transition and cost functions; nothing is
    cached, so this is an explicit scenario-tree enumeration.

    Returns (value, first_year_decision, root_candidates) where the
    decision is the (measure, cover) pair chosen at the root and
    ``root_candidates`` maps every root pair to its discounted value.
    """
    T = contract.horizon
    df = contract.schedules.discount_factor
    pairs = [(d, io) for d in contract.menu.measures for io in (0, 1)]

    def node_value(t, state):
        if t > T:
            return 0.0, None, {}
        best, best_pair = math.inf, None
        candidates = {}
        for d, io in pairs:
            expected = 0.0
            for w, q in zip(atoms, probs):
                outcomes = []
                for j in (0, 1) if io else (0,):
                    cost = stage_cost(contract, state, t, d, io, j, w)
                    nxt = step(contract, state, t, d, io, j, w)
                    outcomes.append(cost + node_value(t + 1, nxt)[0])
                expected += q * min(outcomes)
            candidates[(d, io)] = df * expected
            if expected < best:
                best, best_pair = expected, (d, io)
        return df * best, best_pair, candidates

    return node_value(1, ContractState(0, STATUS_NO))


def enumerate_policies_value(contract: ContractSpec, atoms, probs) -> float:
    """Literal enumeration of every admissible history-dependent policy.

    Tractable only for the smallest toys (two years, two atoms). Each
    policy fixes a (measure, cover) pair per loss history and a claim bit
    per history-plus-realization; inadmissible claim assignments are
    skipped. Returns the minimal expected discounted cost.
    """
    T = contract.horizon
    K = len(atoms)
    df = contract.schedules.discount_factor
    pairs = [(d, io) for d in contract.menu.measures for io in (0, 1)]

    decision_nodes = []  # histories of length t-1, year by year
    claim_nodes = []  # histories of length t
    for t in range(1, T + 1):
        decision_nodes.extend(
            (t, h) for h in itertools.product(range(K), repeat=t - 1)
        )
        claim_nodes.extend((t, h) for h in itertools.product(range(K), repeat=t))

    scenarios = list(itertools.product(range(K), repeat=T))
    best = math.inf
    for pair_choice in itertools.product(pairs, repeat=len(decision_nodes)):
        pair_at = dict(zip(decision_nodes, pair_choice))
        for claim_choice in itertools.product((0, 1), repeat=len(claim_nodes)):
            claim_at = dict(zip(claim_nodes, claim_choice))
            admissible = all(
                pair_at[(t, h[:-1])][1] == 1
                for (t, h), j in claim_at.items()
                if j == 1
            )
            if not admissible:
                continue
            total = 0.0
            for scenario in scenarios:
                prob = math.prod(probs[k] for k in scenario)
                state = ContractState(0, STATUS_NO)
                cost = 0.0
                for t in range(1, T + 1):
                    h = scenario[:t]
                    d, io = pair_at[(t, h[:-1])]
                    j = claim_at[(t, h)]
                    w = atoms[scenario[t - 1]]
                    cost += df**t * stage_cost(contract, state, t, d, io, j, w)
                    state = step(contract, state, t, d, io, j, w)
                total += prob * cost
            best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# Random tiny instances for oracle-equivalence checks
# ---------------------------------------------------------------------------
def random_tiny_instance(rng: np.random.Generator):
    """A random small contract plus a finitely supported loss model.

    Returns (contract, distributions, expected_losses, atoms, probs) with
    at most 3 years, 3 levels, 3 loss atoms, and one nontrivial measure.
    """
    T = int(rng.integers(1, 4))
    level_sets = [(0,), (-1, 0), (0, 1), (-1, 0, 1)]
    levels = level_sets[rng.integers(len(level_sets))]
    statuses = contract_statuses(T)

    n_atoms = int(rng.integers(2, 4))
    atoms = [()]
    for _ in range(n_atoms - 1):
        if rng.random() < 0.3:
            atoms.append((float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0))))
        else:
            atoms.append((float(rng.uniform(0.2, 8.0)),))
    probs = rng.dirichlet(np.ones(n_atoms)).tolist()

    betas = (0.0, float(rng.uniform(0.05, 1.2)))
    gammas = (0.0, float(rng.uniform(0.0, 3.0)))
    menu = MitigationMenu(betas=betas, gammas=gammas)

    zero_claim, pieces, inactive = {}, {}, {}
    for b in levels:
        reachable = [lv for lv in levels]
        zero = min(rng.choice(reachable), b) if rng.random() < 0.8 else b
        n_bands = int(rng.integers(1, 3))
        candidates = sorted(lv for lv in levels if lv >= zero)
        band_levels = sorted(
            rng.choice(candidates, size=n_bands, replace=True).tolist()
        )
        thresholds = [0.0] + sorted(rng.uniform(0.3, 5.0, size=n_bands - 1).tolist())
        zero_claim[b] = int(zero)
        pieces[b] = tuple((thr, int(lvl)) for thr, lvl in zip(thresholds, band_levels))
        for status in statuses:
            if status == STATUS_NO:
                continue
            target_level = int(rng.choice(levels))
            counter = int(rng.integers(1, T + 1))
            inactive[(b, status)] = (target_level, off_status(counter))

    premium = np.sort(rng.uniform(0.1, 3.0, size=(len(levels), T)), axis=0)
    schedules = ContractSchedules(
        levels=levels,
        horizon=T,
        premium=premium,
        deductible=rng.uniform(0.0, 1.5, size=(len(levels), T)),
        max_comp=rng.uniform(0.5, 30.0, size=(len(levels), T)),
        fee_in=rng.uniform(0.0, 0.8, size=T),
        fee_out=rng.uniform(0.0, 0.8, size=T),
        fee_re=float(rng.uniform(0.0, 0.8)),
        discount_factor=float(rng.uniform(0.85, 1.0)),
    )
    rule = BonusMalusRule(
        levels=levels,
        statuses=statuses,
        zero_claim=zero_claim,
        pieces=pieces,
        inactive=inactive,
    )
    contract = ContractSpec(rule=rule, schedules=schedules, menu=menu)

    distributions, expected_losses = {}, {}
    for d in menu.measures:
        losses = np.array([aggregate_loss(contract, d, w) for w in atoms])
        order = np.argsort(losses, kind="stable")
        merged_atoms, merged_probs = [], []
        for idx in order:
            value = losses[idx]
            if merged_atoms and value == merged_atoms[-1]:
                merged_probs[-1] += probs[idx]
            else:
                merged_atoms.append(value)
                merged_probs.append(probs[idx])
        distributions[d] = DiscreteLossDistribution(
            atoms=np.array(merged_atoms), probs=np.array(merged_probs)
        )
        expected_losses[d] = float(np.dot(losses, probs))
    return contract, distributions, expected_losses, atoms, probs
