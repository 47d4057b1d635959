"""Truncated g-and-h severity model for single-event cyber losses.

The g-and-h family transforms a standard normal variate ``Z`` through

    X_raw = alpha + sigma * Y(Z),    Y(z) = ((exp(g*z) - 1) / g) * exp(h*z^2 / 2),

which covers a wide range of skewness (``g``) and tail heaviness (``h``).
Because losses are positive, the model used throughout the package is the
raw distribution conditioned on positivity ("truncated at zero"). A
severity law answers through its methods: ``cdf``, ``quantile`` (closed
form; ``sample`` is the quantile, so sampling by inversion is exact),
``stop_loss``, the closed-form ``E[(X - gamma)^+]``, and ``mean``. A
moment-matched log-normal with the same methods is available as a
robustness alternative.

Parameter objects are immutable and every operation is vectorized over
numpy arrays, so they are safe for concurrent read-only use. Sampling
consumes caller-supplied uniform draws; the module owns no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConvergenceFailure, DomainError

__all__ = [
    "SeverityParams",
    "LognormalParams",
    "y_gh",
    "y_gh_inverse",
    "cdf_raw",
    "truncated_second_moment",
    "lognormal_moment_match",
]

# Y^{-1} returns the midpoint of a lattice cell no wider than this: the
# cell bisection would end in, found by Newton plus a snap to the lattice
# (bitwise bisection's result where its midpoints are exact floats; see
# ``y_gh_inverse``).
_INVERSE_TOL = 1e-13
# Newton iterations per block before the snap finishes alone.
_MAX_NEWTON_STEPS = 60
# Snap rounds that step the lattice cell by one before bisecting the rest.
_SNAP_WALK = 2
# Entries solved together; bounds the temporaries of a 2^20-point grid.
_BLOCK = 2**15
# Maximum number of geometric bracket expansions before giving up.
_MAX_BRACKET_STEPS = 200
# Clamp for standard-normal quantile arguments; keeps tail evaluations finite.
_PHI_ARG_MIN = 1e-300
_PHI_ARG_MAX = 1.0 - 1e-16


@dataclass(frozen=True)
class SeverityParams:
    """Parameters of a truncated g-and-h severity distribution.

    Attributes:
        alpha: Location of the raw distribution, in loss units.
        sigma: Scale, in loss units; must be positive.
        g: Skewness; must be positive (losses are right-skewed).
        h: Tail-heaviness in ``[0, 1)``; the mean is finite iff ``h < 1``.
        f0: Probability that the raw variate is nonpositive (computed).
    """

    alpha: float
    sigma: float
    g: float
    h: float
    f0: float = field(init=False)

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        if not self.g > 0:
            raise DomainError(f"g must be > 0, got {self.g}")
        if not 0 <= self.h < 1:
            raise DomainError(f"h must lie in [0, 1), got {self.h}")
        object.__setattr__(self, "f0", cdf_raw(self, 0.0))

    def cdf(self, x):
        """CDF of the severity (raw distribution conditioned on positivity).

        Zero for ``x <= 0``; tends to one as ``x`` grows; NaN for NaN.
        """
        x_arr = np.asarray(x, dtype=float)
        raw = np.asarray(cdf_raw(self, np.maximum(x_arr, 0.0)))
        out = np.where(x_arr <= 0, 0.0, (raw - self.f0) / (1.0 - self.f0))
        return float(out) if x_arr.ndim == 0 else out

    def quantile(self, u):
        """Quantile function of the truncated distribution (closed form).

        Evaluates ``alpha + sigma * Y(ndtri(u + (1 - u) * f0))``, which maps a
        uniform variate directly to an exact severity sample.

        Raises:
            DomainError: If any ``u`` is outside the open interval (0, 1).
        """
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0) or np.any(u_arr >= 1):
            raise DomainError("quantile argument must lie strictly inside (0, 1)")
        p = u_arr + (1.0 - u_arr) * self.f0
        p = np.clip(p, _PHI_ARG_MIN, _PHI_ARG_MAX)
        out = self.alpha + _y(self.g, self.h, ndtri(p), self.sigma)
        return float(out) if u_arr.ndim == 0 else out

    sample = quantile

    def stop_loss(self, gamma: float) -> float:
        """Closed-form stop-loss expectation ``E[(X - gamma)^+]``.

        Nonincreasing and convex in ``gamma``; at ``gamma = 0`` it equals the
        mean of the severity.

        Args:
            gamma: Retention level, must be >= 0.
        """
        if gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {gamma}")
        a, s, g, h, f0 = self.alpha, self.sigma, self.g, self.h, self.f0
        z0 = float(_y_inverse(g, h, np.atleast_1d((gamma - a) / s))[0])
        root = math.sqrt(1.0 - h)
        lead = s / ((1.0 - f0) * g * root)
        bracket = math.exp(g * g / (2.0 * (1.0 - h))) * float(
            ndtr((g / (1.0 - h) - z0) * root)
        ) - float(ndtr(-z0 * root))
        tail = (a - gamma) * (1.0 - float(ndtr(z0))) / (1.0 - f0)
        return lead * bracket + tail

    def mean(self) -> float:
        return self.stop_loss(0.0)


def _y(g: float, h: float, z, scale=1.0):
    """``scale * Y(z)``, multiplied left to right as the quantile needs."""
    with np.errstate(over="ignore"):
        return scale * (np.expm1(g * z) / g) * np.exp(0.5 * h * z * z)


def y_gh(params: SeverityParams, z):
    """The monotone normal-to-loss transform ``Y(z)`` (unscaled).

    Strictly increasing for ``g > 0`` and ``h >= 0``; ``Y(0) = 0``.
    """
    out = _y(params.g, params.h, np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def _newton(g, h, y, lo, hi, delta):
    """Bracketed Newton for ``Y(z) = y``, until every step is below ``delta``.

    Returns the last iterate and the bracket ``[a, b]``, ``Y(a) < y <= Y(b)``
    (or an original bracket end), that the iterates have narrowed.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if h == 0.0:
            z = np.log1p(g * y) / g
        else:
            z = (np.sqrt(g * g + 2.0 * h * np.log1p(g * y)) - g) / h
    a, b = lo, hi
    z = np.where(np.isfinite(z), np.clip(z, a, b), 0.5 * (a + b))
    for _ in range(_MAX_NEWTON_STEPS):
        with np.errstate(over="ignore", invalid="ignore"):
            em = np.expm1(g * z)
            e = np.exp(0.5 * h * z * z)
            core = em / g
            f = core * e
            below = f < y
            a = np.where(below, z, a)
            b = np.where(below, b, z)
            nxt = z - (f - y) / (e * (em + 1.0 + h * z * core))
        # A step that leaves the bracket (or is not finite) bisects it instead.
        nxt = np.where((nxt >= a) & (nxt <= b), nxt, 0.5 * (a + b))
        done = np.abs(nxt - z) < delta
        z = nxt
        if done.all():
            break
    return z, a, b


def _snap(g, h, y, lo, delta, n_cells, z, a, b):
    """Bisection's answer ``lo + delta*(k + 1/2)`` near the Newton root ``z``.

    ``k`` is the lattice cell with ``Y(lo + delta*k) < y <= Y(lo + delta*(k+1))``
    (``k = 0`` needs only the right-hand condition). Every round tests one
    cell ``k`` per unsettled entry and narrows its cell bracket ``[kl, kh)``;
    the first rounds step ``k`` by one towards the answer, later ones halve
    the bracket, so a poor Newton root costs rounds but never the answer.
    """
    # Y is nondecreasing, so the Newton bracket [a, b] maps to cells; the
    # margin of 2 absorbs the rounding of the index arithmetic.
    kl = np.clip(np.floor((a - lo) / delta) - 2.0, 0.0, n_cells - 1.0)
    kh = np.clip(np.ceil((b - lo) / delta) + 2.0, kl + 1.0, n_cells)
    k = np.clip(np.floor((z - lo) / delta), kl, kh - 1.0)
    todo = np.flatnonzero(kh - kl > 1.0)
    rounds = 0
    while todo.size:
        yt, lt, dt, kt = y[todo], lo[todo], delta[todo], k[todo]
        klt, kht = kl[todo], kh[todo]
        low_ok = (kt == 0.0) | (_y(g, h, lt + dt * kt) < yt)
        high_ok = _y(g, h, lt + dt * (kt + 1.0)) >= yt
        klt = np.where(low_ok, np.maximum(klt, kt), klt)
        kht = np.where(low_ok, kht, np.minimum(kht, kt))
        kht = np.where(high_ok, np.minimum(kht, kt + 1.0), kht)
        klt = np.where(high_ok, klt, np.maximum(klt, kt + 1.0))
        if rounds < _SNAP_WALK:
            kt = np.where(high_ok, kt - 1.0, kt + 1.0)
        else:
            kt = np.floor(0.5 * (klt + kht))
        kl[todo], kh[todo] = klt, kht
        k[todo] = np.clip(kt, klt, np.maximum(kht - 1.0, klt))
        todo = todo[kht - klt > 1.0]
        rounds += 1
    return lo + delta * (kl + 0.5)


def _y_inverse(g: float, h: float, y: np.ndarray) -> np.ndarray:
    """Vectorized ``Y^{-1}``: bisection's result, found by Newton plus a snap."""
    shape = np.shape(y)
    y = np.asarray(y, dtype=float).ravel()
    lo = np.full(y.shape, -1.0)
    hi = np.full(y.shape, 1.0)
    for _ in range(_MAX_BRACKET_STEPS):
        too_high = _y(g, h, lo) > y
        too_low = _y(g, h, hi) < y
        if not (too_high.any() or too_low.any()):
            break
        lo[too_high] *= 2.0
        hi[too_low] *= 2.0
    else:
        raise ConvergenceFailure(
            "could not bracket Y inverse within "
            f"{_MAX_BRACKET_STEPS} expansion steps (y out of range?)"
        )
    # Bisection with n_iter halvings ends in one cell of this lattice.
    width = float(np.max(hi - lo))
    n_iter = max(1, math.ceil(math.log2(width / _INVERSE_TOL)))
    n_cells = 2.0**n_iter
    out = np.empty_like(y)
    for start in range(0, y.size, _BLOCK):
        part = slice(start, start + _BLOCK)
        lob, hib = lo[part], hi[part]
        # NaN entries (bracket [-1, 1]) solve for 0 and are reset below.
        yb = np.where(np.isnan(y[part]), 0.0, y[part])
        delta = (hib - lob) / n_cells
        z, a, b = _newton(g, h, yb, lob, hib, delta)
        out[part] = _snap(g, h, yb, lob, delta, n_cells, z, a, b)
    out[np.isnan(y)] = np.nan
    return out.reshape(shape)


def y_gh_inverse(params: SeverityParams, y):
    """Invert the transform: the ``z`` with ``Y(z) = y``.

    The result is what bisection gives. The bracket ``[lo, hi]`` grows
    geometrically from ``[-1, 1]``; ``n`` halvings, the fewest that shrink
    the widest bracket to 1e-13 or less, end in one cell of the lattice
    ``lo + delta*k``, ``delta = (hi - lo) / 2^n``, and bisection returns
    that cell's midpoint. Instead of halving, a
    bracketed Newton iteration (closed-form ``Y'``) finds the root to within
    ``delta`` and a snap tests the lattice points beside it until it holds
    the cell with ``Y(lo + delta*k) < y <= Y(lo + delta*(k+1))``.
    Wherever bisection's midpoints are exact floats
    (``max(|lo|, |hi|) * 2^(n+1) <= 2^53``) the result is bitwise the
    bisection's; beyond that bisection rounded its midpoints and the two
    differ by a few ulps of ``z``, inside the 1e-13 tolerance. NaN entries
    give NaN and leave the other entries unchanged.

    Raises:
        ConvergenceFailure: If no bracket exists (this happens for
            ``h = 0`` when ``y <= -1/g``, outside the range of ``Y``).
    """
    y_arr = np.asarray(y, dtype=float)
    out = _y_inverse(params.g, params.h, np.atleast_1d(y_arr))
    return float(out[0]) if y_arr.ndim == 0 else out.reshape(y_arr.shape)


def cdf_raw(params: SeverityParams, x):
    """CDF of the raw (untruncated) g-and-h distribution."""
    x_arr = np.asarray(x, dtype=float)
    y = (x_arr - params.alpha) / params.sigma
    z = _y_inverse(params.g, params.h, np.atleast_1d(y))
    out = ndtr(z)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


def truncated_second_moment(params: SeverityParams) -> float:
    """Second moment ``E[X^2]`` by adaptive quadrature.

    There is no closed form beyond the first stop-loss moment. The moment
    integral ``int 2x(1-F(x))dx`` decays only algebraically in ``x`` when
    ``h`` is close to 1/2, so it is evaluated after the change of variables
    ``x = alpha + sigma*Y(z)``, under which the integrand decays like a
    Gaussian and adaptive quadrature reaches relative tolerance 1e-8.

    Raises:
        DomainError: If ``h >= 1/2`` (the second moment diverges).
    """
    if params.h >= 0.5:
        raise DomainError(f"second moment requires h < 1/2, got h={params.h}")
    # Imported on use: loading scipy.integrate slows every start-up.
    from scipy import integrate

    a, s, g, h, f0 = params.alpha, params.sigma, params.g, params.h, params.f0
    z_low = float(_y_inverse(g, h, np.atleast_1d(-a / s))[0])

    def integrand(z):
        y = (np.expm1(g * z) / g) * math.exp(0.5 * h * z * z)
        x = a + s * y
        return x * x * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    # Beyond z = 45 the integrand underflows for any h < 1/2.
    val, _ = integrate.quad(integrand, z_low, 45.0, epsrel=1e-9, limit=400)
    return val / (1.0 - f0)


@dataclass(frozen=True)
class LognormalParams:
    """Log-normal severity used as a robustness alternative.

    Attributes:
        mu: Log-location.
        s: Log-scale; must be positive.
    """

    mu: float
    s: float

    def __post_init__(self):
        if not self.s > 0:
            raise DomainError(f"log-scale must be > 0, got {self.s}")

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.where(
            x_arr <= 0,
            0.0,
            ndtr((np.log(np.maximum(x_arr, 1e-300)) - self.mu) / self.s),
        )
        return float(out) if x_arr.ndim == 0 else out

    def quantile(self, u):
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0) or np.any(u_arr >= 1):
            raise DomainError("quantile argument must lie strictly inside (0, 1)")
        out = np.exp(self.mu + self.s * ndtri(u_arr))
        return float(out) if u_arr.ndim == 0 else out

    sample = quantile

    def stop_loss(self, gamma: float) -> float:
        """``E[(X - gamma)^+]`` for the log-normal (closed form)."""
        if gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {gamma}")
        if gamma == 0:
            return self.mean()
        d = (self.mu - math.log(gamma)) / self.s
        return self.mean() * float(ndtr(d + self.s)) - gamma * float(ndtr(d))

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.s * self.s)


def lognormal_moment_match(params: SeverityParams) -> LognormalParams:
    """Log-normal with the same first two moments as the truncated model.

    The first moment comes from the closed-form stop-loss at zero; the
    second from quadrature. Requires ``h < 1/2`` so the target second
    moment exists.
    """
    m1 = params.mean()
    m2 = truncated_second_moment(params)
    s2 = math.log(m2 / (m1 * m1))
    return LognormalParams(mu=math.log(m1) - 0.5 * s2, s=math.sqrt(s2))
