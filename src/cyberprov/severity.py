"""Truncated g-and-h severity model for single-event cyber losses.

The g-and-h family transforms a standard normal variate ``Z`` through

    X_raw = alpha + sigma * Y(Z),    Y(z) = ((exp(g*z) - 1) / g) * exp(h*z^2 / 2),

which covers a wide range of skewness (``g``) and tail heaviness (``h``).
Because losses are positive, the model used throughout the package is the
raw distribution conditioned on positivity ("truncated at zero"). A
severity law answers through its methods: ``cdf``, ``quantile`` (closed
form; ``sample`` is the quantile, so sampling by inversion is exact),
``stop_loss``, the closed-form ``E[(X - gamma)^+]``, and ``mean``. With
the closed-form second moment it fixes a moment-matched log-normal, which
has the same methods and serves as a robustness alternative.

Parameter objects are immutable and every operation is vectorized over
numpy arrays, so they are safe for concurrent read-only use. Sampling
consumes caller-supplied uniform draws; the module owns no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .parallel import map_tasks

__all__ = [
    "SeverityParams",
    "LognormalParams",
    "y_gh",
    "cdf_raw",
    "truncated_second_moment",
    "lognormal_moment_match",
]

# Y^{-1} returns the midpoint of a lattice cell no wider than this: the
# cell bisection would end in, found by Newton plus a snap to the lattice
# (bitwise bisection's result where its midpoints are exact floats; see
# ``_y_inverse``).
_INVERSE_TOL = 1e-13
# Newton iterations per block before the snap finishes alone.
_MAX_NEWTON_STEPS = 60
# Snap rounds that step the lattice cell by one before bisecting the rest.
_SNAP_WALK = 2
# Entries solved together; bounds the temporaries of a 2^20-point grid.
_BLOCK = 2**15
# Bracket ends are +-2^k for k below this; a y beyond them inverts to +-inf.
_MAX_BRACKET_STEPS = 200
# Clamp for standard-normal quantile arguments; keeps tail evaluations finite.
_PHI_ARG_MIN = 1e-300
_PHI_ARG_MAX = 1.0 - 1e-16


@dataclass(frozen=True)
class SeverityParams:
    """Parameters of a truncated g-and-h severity distribution.

    Attributes:
        alpha: Location of the raw distribution, in loss units.
        sigma: Scale, in loss units; must be positive and finite.
        g: Skewness; must be positive and finite (losses are right-skewed).
        h: Tail-heaviness in ``[0, 1)``; the mean is finite iff ``h < 1``.
        f0: Probability that the raw variate is nonpositive (computed).

    A :class:`DomainError` rejects a parameter out of range, an ``f0`` that
    rounds to 1 or a mean that overflows a double; every accepted law answers.
    """

    alpha: float
    sigma: float
    g: float
    h: float
    f0: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite, got {self.alpha}")
        if not 0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 < self.g < math.inf:
            raise DomainError(f"g must be finite and > 0, got {self.g}")
        if not 0 <= self.h < 1:
            raise DomainError(f"h must lie in [0, 1), got {self.h}")
        object.__setattr__(self, "f0", cdf_raw(self, 0.0))
        if self.f0 == 1.0:
            raise DomainError("f0 = P(alpha + sigma*Y <= 0) rounds to 1: no positive losses")
        _finite(self.mean, f"mean overflows a double at g={self.g}, h={self.h}")

    def cdf(self, x):
        """CDF of the severity (raw distribution conditioned on positivity).

        Zero for ``x <= 0``; tends to one as ``x`` grows; NaN for NaN.
        """
        x_arr = np.asarray(x, dtype=float)
        out = np.asarray(cdf_raw(self, np.maximum(x_arr, 0.0)))
        out -= self.f0
        out /= 1.0 - self.f0
        np.copyto(out, 0.0, where=x_arr <= 0)
        return float(out) if x_arr.ndim == 0 else out

    def quantile(self, u):
        """Quantile function of the truncated distribution (closed form).

        Evaluates ``alpha + sigma * Y(ndtri(u + (1 - u) * f0))``, which maps a
        uniform variate directly to an exact severity sample. Roundoff in
        ``f0`` puts the quantiles of the smallest ``u`` a few ulps below 0,
        the truncation point, so the result is clipped there.

        Raises:
            DomainError: If any ``u`` is outside the open interval (0, 1).
        """
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0) or np.any(u_arr >= 1):
            raise DomainError("quantile argument must lie strictly inside (0, 1)")
        p = u_arr + (1.0 - u_arr) * self.f0
        p = np.clip(p, _PHI_ARG_MIN, _PHI_ARG_MAX)
        out = np.maximum(self.alpha + _y(self.g, self.h, ndtri(p), self.sigma), 0.0)
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
        lead = s / ((1.0 - f0) * g * math.sqrt(1.0 - h))
        bracket = _tail(g, h, z0) - _tail(0.0, h, z0)
        tail = (a - gamma) * (1.0 - float(ndtr(z0))) / (1.0 - f0)
        return lead * bracket + tail

    def mean(self) -> float:
        return self.stop_loss(0.0)


def _y(g: float, h: float, z, scale=1.0):
    """``scale * Y(z)``, multiplied left to right as the quantile needs."""
    with np.errstate(over="ignore"):
        return scale * (np.expm1(g * z) / g) * np.exp(0.5 * h * z * z)


def _tail(c: float, q: float, z0: float) -> float:
    """``T(c, q) = exp(c^2/(2(1-q))) Phi((c/(1-q) - z0) sqrt(1-q))``, that is
    ``sqrt(1-q) E[exp(cZ + qZ^2/2); Z > z0]`` for a standard normal ``Z``:
    the stop-loss and the second moment are sums of these. ``math.exp``
    raises ``OverflowError`` beyond a double."""
    root = math.sqrt(1.0 - q)
    return math.exp(c * c / (2.0 * (1.0 - q))) * float(ndtr((c / (1.0 - q) - z0) * root))


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
    """Invert the transform: the ``z`` with ``Y(z) = y``, entrywise.

    The result is what bisection gives. Its bracket is ``[lo, hi] =
    [-2^i, 2^j]`` with the fewest doublings of ``[-1, 1]`` that hold ``y``
    (``Y(lo) <= y <= Y(hi)``), found by one ``searchsorted`` of ``y`` in
    tables of ``Y(2^j)`` and ``-Y(-2^i)``. ``n`` halvings, the fewest that
    shrink the widest bracket, set by the extreme ``y``, to 1e-13 or less
    (at most 53, the most cells a double counts exactly, so ``delta =
    (hi - lo) / 2^n <= max(1e-13, (hi - lo) * 2^-53)``), end in one cell
    of the lattice ``lo + delta*k``, and bisection returns its midpoint.
    Instead of halving, a bracketed Newton iteration (closed-form ``Y'``)
    finds the root to within ``delta`` and a snap tests the lattice points
    beside it until it holds the cell with ``Y(lo + delta*k) < y <=
    Y(lo + delta*(k+1))``. Wherever bisection's midpoints are exact floats
    (``max(|lo|, |hi|) * 2^(n+1) <= 2^53``) the result is bitwise the
    bisection's; beyond that the two differ by a few ulps of ``z``. NaN
    entries give NaN, and entries below the range of ``Y`` (at ``h = 0``,
    ``y < Y(-2^199) = -1/g``) give ``-inf``, the generalized inverse whose
    ``Phi`` is 0 (``+inf`` above ``Y(2^199)``, finite only for ``g <
    1e-57``); neither changes the other entries.

    Blocks of ``_BLOCK`` entries (bracket, Newton and snap) run as
    :func:`~cyberprov.parallel.map_tasks` tasks, on threads when more than
    one CPU is usable. A block reads only its own entries and the shared
    ``n``, and writes only its own slice, so the result does not depend on
    the number of threads.
    """
    shape = np.shape(y)
    y = np.asarray(y, dtype=float).ravel()
    # Both tables are nondecreasing: Y(lo) > y exactly when -Y(lo) < -y.
    powers = np.ldexp(1.0, np.arange(_MAX_BRACKET_STEPS))
    y_hi = _y(g, h, powers)
    neg_y_lo = -_y(g, h, -powers)
    # Held y set the doublings; the rest (NaN, out of range) are reset below.
    held = (y >= -neg_y_lo[-1]) & (y <= y_hi[-1])
    i_max = int(np.searchsorted(neg_y_lo, -np.fmin.reduce(y, initial=0.0, where=held)))
    j_max = int(np.searchsorted(y_hi, np.fmax.reduce(y, initial=0.0, where=held)))
    # Bisection's n_iter halvings end in one lattice cell; a double counts cells
    # exactly only up to 2^53, so the snap's cell bracket needs n_iter <= 53.
    width = powers[max(i_max, j_max)] + 1.0
    n_iter = min(53, max(1, math.ceil(math.log2(width / _INVERSE_TOL))))
    n_cells = 2.0**n_iter
    out = np.empty_like(y)

    def solve_block(start):
        part = slice(start, start + _BLOCK)
        skip = ~held[part]
        yb = np.where(skip, 0.0, y[part])
        lob = -powers[np.searchsorted(neg_y_lo, -yb)]
        hib = powers[np.searchsorted(y_hi, yb)]
        delta = (hib - lob) / n_cells
        z, a, b = _newton(g, h, yb, lob, hib, delta)
        zb = _snap(g, h, yb, lob, delta, n_cells, z, a, b)
        # NaN stays NaN; below the range -inf, above it +inf.
        zb[skip] = y[part][skip] * np.inf
        out[part] = zb

    map_tasks(solve_block, range(0, y.size, _BLOCK))
    return out.reshape(shape)


def cdf_raw(params: SeverityParams, x):
    """CDF of the raw (untruncated) g-and-h distribution."""
    x_arr = np.asarray(x, dtype=float)
    y = (x_arr - params.alpha) / params.sigma
    z = _y_inverse(params.g, params.h, np.atleast_1d(y))
    out = ndtr(z, out=z)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


def truncated_second_moment(params: SeverityParams) -> float:
    """Second moment ``E[X^2]`` of the truncated model, in closed form.

    With ``z0 = Y^{-1}(-alpha/sigma)`` and ``T`` from :func:`_tail`:

        E[Y; Z > z0]   = (T(g, h) - T(0, h)) / (g sqrt(1 - h))
        E[Y^2; Z > z0] = (T(2g, 2h) - 2 T(g, 2h) + T(0, 2h)) / (g^2 sqrt(1 - 2h))
        E[X^2] = (alpha^2 Phi(-z0) + 2 alpha sigma E[Y; .] + sigma^2 E[Y^2; .]) / (1 - f0)

    The second difference cancels for small ``g``: the relative error grows
    like ``2e-16 / g^2`` (2e-10 at ``g = 1e-3``, 2e-4 at ``g = 1e-6``).

    Raises:
        DomainError: If ``h >= 1/2`` (the moment diverges) or the moment
            overflows a double: once ``2 g^2 / (1 - 2h)`` passes about 709,
            ``h > 0.4954`` at ``g = 1.8``.
    """
    a, s, g, h, f0 = params.alpha, params.sigma, params.g, params.h, params.f0
    if h >= 0.5:
        raise DomainError(f"second moment requires h < 1/2, got h={h}")
    z0 = float(_y_inverse(g, h, np.atleast_1d(-a / s))[0])

    def moment():
        m1 = (_tail(g, h, z0) - _tail(0.0, h, z0)) / (g * math.sqrt(1.0 - h))
        q = 2.0 * h
        m2 = _tail(2.0 * g, q, z0) - 2.0 * _tail(g, q, z0) + _tail(0.0, q, z0)
        m2 /= g * g * math.sqrt(1.0 - q)
        return (a * a * float(ndtr(-z0)) + 2.0 * a * s * m1 + s * s * m2) / (1.0 - f0)

    return _finite(moment, f"second moment overflows a double at g={g}, h={h}")


def _finite(value_of, message: str) -> float:
    """``value_of()``; a :class:`DomainError` with ``message`` if it overflows."""
    try:
        value = value_of()
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise DomainError(message)


@dataclass(frozen=True)
class LognormalParams:
    """Log-normal severity used as a robustness alternative.

    Attributes:
        mu: Log-location.
        s: Log-scale; must be positive and finite.

    The constructor raises :class:`DomainError` for a ``mu`` that is not
    finite or a mean ``exp(mu + s^2/2)`` that overflows a double.
    """

    mu: float
    s: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"log-location must be finite, got {self.mu}")
        if not 0 < self.s < math.inf:
            raise DomainError(f"log-scale s must be finite and > 0, got {self.s}")
        _finite(self.mean, f"mean overflows a double at mu={self.mu}, s={self.s}")

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.maximum(x_arr, 1e-300, out=np.empty_like(x_arr))
        np.log(out, out=out)
        out -= self.mu
        out /= self.s
        ndtr(out, out=out)
        np.copyto(out, 0.0, where=x_arr <= 0)
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
    """Log-normal with the truncated model's mean and second moment, both
    closed form; the second exists only for ``h < 1/2``."""
    m1 = params.mean()
    m2 = truncated_second_moment(params)
    s2 = math.log(m2 / (m1 * m1))
    return LognormalParams(mu=math.log(m1) - 0.5 * s2, s=math.sqrt(s2))
