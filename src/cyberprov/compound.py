"""Annual aggregate-loss distributions via FFT with exponential tilting.

The yearly loss is compound: a random number of events (Poisson frequency)
with i.i.d. severities, where a mitigation measure clips each severity by a
fixed amount. The aggregate distribution is approximated on an equispaced
grid by discretizing the (mitigated) severity with the midpoint rule,
damping it with an exponential tilt ``exp(-j*theta)`` to suppress the
wrap-around of heavy tails in the circular convolution, applying the
frequency's probability generating function to the forward transform, and
untilting after the inverse transform.

The solver never needs moments of the grid: expectations of capped,
deductible-shifted loss layers are exact finite sums over the atoms, and
the aggregate mean itself has the closed form ``E[N] * E[(X - gamma)^+]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalInstability
from .intervals import Interval, index_range

__all__ = [
    "FrequencyModel",
    "DiscretizationConfig",
    "DiscreteLossDistribution",
    "mitigated_severity_cdf",
    "compound_fft",
    "expected_aggregate_loss",
    "CompensationGrid",
]

# Untilted probabilities more negative than this indicate a genuinely
# misconfigured transform rather than roundoff.
_NEGATIVE_PROB_FLOOR = -1e-8
_MASS_DRIFT_LIMIT = 1e-4


@dataclass(frozen=True)
class FrequencyModel:
    """Annual event-count distribution: Poisson with mean ``rate``.

    Attributes:
        rate: Expected number of events per year (>= 0).
    """

    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise DomainError(f"rate must be >= 0, got {self.rate}")

    def pgf(self, s):
        """Probability generating function ``E[s^N]``, valid for |s| <= 1."""
        return np.exp(self.rate * (np.asarray(s) - 1.0))


@dataclass(frozen=True)
class DiscretizationConfig:
    """Grid and tilting parameters for the aggregate-loss transform.

    Attributes:
        l_bar: Upper bound of the loss grid.
        k_gr: Granularity exponent; the grid has ``2**k_gr`` atoms.
        theta: Tilting parameter; defaults to ``20 / 2**k_gr`` so the tilt
            decays by ``exp(-20)`` across the grid, which suppresses the
            aliased tail to ~2e-9 while keeping the untilting
            amplification of roundoff below ~1e-7.
    """

    l_bar: float
    k_gr: int
    theta: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not self.l_bar > 0:
            raise DomainError(f"l_bar must be > 0, got {self.l_bar}")
        if not 1 <= self.k_gr <= 30:
            raise DomainError(f"k_gr must be in [1, 30], got {self.k_gr}")
        if self.theta is None:
            object.__setattr__(self, "theta", 20.0 / 2**self.k_gr)
        if not self.theta > 0:
            raise DomainError(f"theta must be > 0, got {self.theta}")

    @property
    def n_atoms(self) -> int:
        return 2**self.k_gr

    @property
    def step(self) -> float:
        return self.l_bar / (2**self.k_gr - 1)


@dataclass(frozen=True)
class DiscreteLossDistribution:
    """Finitely supported approximation of an annual aggregate loss.

    Atoms are nondecreasing and probabilities sum to one (within 1e-6).
    Instances are immutable; the underlying arrays are write-protected.
    """

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(self.atoms, dtype=float)
        probs = np.ascontiguousarray(self.probs, dtype=float)
        if atoms.shape != probs.shape or atoms.ndim != 1:
            raise DomainError("atoms and probs must be 1-D arrays of equal length")
        if np.any(np.diff(atoms) < 0):
            raise DomainError("atoms must be nondecreasing")
        if atoms[0] < 0:
            raise DomainError("atoms must be nonnegative")
        if np.any(probs < 0):
            raise DomainError("probabilities must be nonnegative")
        total = probs.sum()
        if abs(total - 1.0) > 1e-6:
            raise DomainError(f"probabilities sum to {total!r}, expected 1 +- 1e-6")
        atoms.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        return float(self.atoms @ self.probs)

    def cdf(self, x):
        """P(L <= x) under the discrete approximation."""
        x = np.asarray(x, dtype=float)
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(self.atoms, x, side="right") - 1
        out = np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)
        return float(out) if x.ndim == 0 else out


def mitigated_severity_cdf(severity, gamma: float, y):
    """CDF of a single event loss after clipping by ``gamma``.

    Equals ``F_X(y + gamma)`` for ``y >= 0`` and zero below; the jump at
    zero carries the mass of events fully absorbed by the mitigation.
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    y_arr = np.asarray(y, dtype=float)
    shifted = np.asarray(severity.cdf(np.maximum(y_arr, 0.0) + gamma))
    out = np.where(y_arr >= 0, shifted, 0.0)
    return float(out) if y_arr.ndim == 0 else out


def compound_fft(
    severity,
    frequency: FrequencyModel,
    gamma: float,
    cfg: DiscretizationConfig,
) -> DiscreteLossDistribution:
    """Aggregate-loss distribution for one mitigation level.

    Discretizes the mitigated severity on the midpoint grid, tilts, runs
    the exact power-of-two transform pair, applies the frequency pgf
    pointwise, and untilts. The inverse direction carries the
    ``2**-k_gr`` normalization.

    Cleanup: probabilities in ``(-1e-8, 0)`` are clipped to zero (tilting
    controls aliasing but roundoff leaves tiny negatives), then the vector
    is renormalized to total mass one. The tiny mass deficit (the
    tilt-suppressed tail beyond ``l_bar``) is thus spread proportionally
    rather than parked on the top atom, where it would carry a spurious
    full-cap compensation.

    Raises:
        NumericalInstability: If probabilities fall below -1e-8 or total
            mass drifts from one by more than 1e-4, indicating a
            misconfigured ``theta`` or grid.
    """
    n = cfg.n_atoms
    eps = cfg.step
    j = np.arange(n)
    atoms = j * eps
    # Cell j is [j*eps - eps/2, j*eps + eps/2]; its lower edge equals the
    # upper edge of cell j-1, and the lower edge of cell 0 sits below zero
    # where the mitigated CDF vanishes, so one CDF sweep suffices.
    upper = mitigated_severity_cdf(severity, gamma, atoms + 0.5 * eps)
    lower = np.concatenate(([0.0], upper[:-1]))
    tilt = np.exp(-cfg.theta * j)
    f = tilt * (upper - lower)
    # Forward transform with positive kernel sign, per the tilted scheme.
    phi = np.fft.ifft(f) * n
    psi = frequency.pgf(phi)
    p = np.real(np.fft.fft(psi) / n) / tilt

    neg_min = float(p.min())
    if neg_min < _NEGATIVE_PROB_FLOOR:
        raise NumericalInstability(
            f"untilted probability {neg_min!r} below {_NEGATIVE_PROB_FLOOR}; "
            "check theta and k_gr"
        )
    p = np.maximum(p, 0.0)
    total = float(p.sum())
    if abs(total - 1.0) > _MASS_DRIFT_LIMIT:
        raise NumericalInstability(
            f"total mass {total!r} drifts from 1 by more than {_MASS_DRIFT_LIMIT}"
        )
    p /= total
    return DiscreteLossDistribution(atoms=atoms, probs=p)


def expected_aggregate_loss(severity, frequency: FrequencyModel, gamma: float) -> float:
    """Exact mean of the aggregate loss: ``E[N] * E[(X - gamma)^+]``.

    Closed form; deliberately not the grid mean, which truncates the tail
    at ``l_bar``.
    """
    return frequency.rate * severity.stop_loss(gamma)


@dataclass
class CompensationGrid:
    """Prefix-sum tables for fast layer queries on one (dtb, cap) pair.

    A compensation value ``c_j = min((a_j - dtb)^+, cap)`` is nondecreasing
    along the atom grid, so any interval of compensations maps to an index
    range found by binary search, and layer sums reduce to prefix-sum
    differences, which agree with direct sums over the atoms to roundoff.
    """

    dist: DiscreteLossDistribution
    dtb: float
    cap: float
    comp: np.ndarray = field(init=False, repr=False)
    _cum_p: np.ndarray = field(init=False, repr=False)
    _cum_pc: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.comp = np.minimum(np.maximum(self.dist.atoms - self.dtb, 0.0), self.cap)
        # Leading zero so sums over [i0, i1) are cum[i1] - cum[i0].
        self._cum_p = np.concatenate(([0.0], np.cumsum(self.dist.probs)))
        self._cum_pc = np.concatenate(
            ([0.0], np.cumsum(self.dist.probs * self.comp))
        )

    def claim_layers(self, band: Interval, alphas):
        """Layer sums over the claim sets ``band.cut_below(alpha)``, per alpha.

        Returns ``(probability, compensation_mass, expectation_above)``;
        with an array of alphas, each is an array with one entry per alpha.
        """
        i0, i1 = index_range(self.comp, band, alphas)
        mass = self._cum_p[i1] - self._cum_p[i0]
        weighted = self._cum_pc[i1] - self._cum_pc[i0]
        return mass, weighted, weighted - alphas * mass
