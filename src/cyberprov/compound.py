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

import bisect
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.lib.introspect import opt_func_info

from .errors import DomainError, NumericalInstability
from .intervals import index_range
from .parallel import map_tasks

__all__ = [
    "FrequencyModel",
    "DiscretizationConfig",
    "DiscreteLossDistribution",
    "TransformReport",
    "mitigated_severity_cdf",
    "compound_fft",
    "expected_aggregate_loss",
    "CompensationGrid",
    "build_tables",
]

# Untilted probabilities more negative than this indicate a genuinely
# misconfigured transform rather than roundoff.
_NEGATIVE_PROB_FLOOR = -1e-8
_MASS_DRIFT_LIMIT = 1e-4
# Atoms per block of the layer tables' paired scans: a pair's two complex
# block buffers take 512 KiB each, which stay in cache between the products
# and the sums.
_BLOCK = 2**15
# Bytes per atom that one transform allocates at its peak, its result
# included. A 2^20-atom transform traces at about 59 MiB, in its
# severity-CDF phase, and the tests bound it at 80 MiB. Its FFTs trace at
# 24 MiB (the atom grid and the complex buffer); tracemalloc cannot see
# pocketfft's own scratch of 2n complex values (32 B per atom) beside them.
_TRANSFORM_BYTES_PER_ATOM = 80


@dataclass(frozen=True)
class FrequencyModel:
    """Annual event-count distribution: Poisson with mean ``rate``.

    Attributes:
        rate: Expected number of events per year (finite, >= 0).
    """

    rate: float

    def __post_init__(self):
        if not 0 <= self.rate < math.inf:
            raise DomainError(f"rate must be finite and >= 0, got {self.rate}")

    def pgf(self, s, out=None):
        """Probability generating function ``E[s^N]``, valid for |s| <= 1.

        The result is written to ``out`` when it is given, which may be
        ``s`` itself, and to a new array otherwise.
        """
        s = np.asarray(s)
        if out is None:
            out = np.empty(s.shape, dtype=np.result_type(s, 1.0))
        np.subtract(s, 1.0, out=out)
        out *= self.rate
        return np.exp(out, out=out)[()]  # [()] makes a 0-d result a scalar


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

    @cached_property
    def atoms(self) -> np.ndarray:
        """Write-protected grid ``j * step``, shared by every distribution
        built on this config."""
        atoms = np.arange(self.n_atoms, dtype=float)
        atoms *= self.step
        atoms.setflags(write=False)
        return atoms

    @property
    def peak_bytes(self) -> int:
        """Memory one transform on this grid allocates at its peak; a run
        holds more (every measure's distribution and the interpreter)."""
        return _TRANSFORM_BYTES_PER_ATOM * self.n_atoms


@dataclass(frozen=True)
class TransformReport:
    """What one :func:`compound_fft` call saw before its cleanup.

    Attributes:
        n_atoms: Atoms on the grid.
        theta: Tilting parameter.
        min_untilted: Smallest untilted probability, before the clip.
        clipped_mass: Mass of the negative untilted probabilities that the
            clip set to zero, as a positive number.
        deficit: One minus the sum of the untilted probabilities before the
            clip: the tail mass beyond ``l_bar`` that renormalizing spreads.
        exp_dispatch: The float64 ``exp``/``expm1`` kernels numpy dispatches
            to, such as ``"exp X86_V4, expm1 X86_V4"``; they decide the
            last digits of the tilt and of the pgf.
    """

    n_atoms: int
    theta: float
    min_untilted: float
    clipped_mass: float
    deficit: float
    exp_dispatch: str


@cache
def _exp_dispatch() -> str:
    """The float64 ``exp``/``expm1`` kernels numpy dispatches to, read once."""
    info = opt_func_info(func_name="^(exp|expm1)$", signature="float64")
    kernels = (f"{name} {sig['current']}" for name, sigs in info.items() for sig in sigs.values())
    return ", ".join(kernels)


@dataclass(frozen=True, eq=False)
class DiscreteLossDistribution:
    """Finitely supported approximation of an annual aggregate loss.

    Atoms are nondecreasing and probabilities sum to one (within 1e-6).
    Instances are immutable and compare by identity; the underlying arrays
    are write-protected. ``mass`` is the total probability summed in atom
    order, the last of the prefix sums that the layer tables hold.
    ``report`` is the :class:`TransformReport` of the transform that made
    the distribution, and ``None`` for one built from given arrays.
    """

    atoms: np.ndarray
    probs: np.ndarray
    mass: float = field(init=False, repr=False)
    report: TransformReport | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        atoms = np.ascontiguousarray(self.atoms, dtype=float)
        probs = np.ascontiguousarray(self.probs, dtype=float)
        if atoms.shape != probs.shape or atoms.ndim != 1 or not atoms.size:
            raise DomainError("atoms and probs must be nonempty 1-D arrays of equal length")
        # Neighbours compared directly, without np.diff's float temporary:
        # NaN fails the comparison, and equal atoms pass it, +inf included.
        if not (atoms[1:] >= atoms[:-1]).all():
            raise DomainError("atoms must be nondecreasing")
        if not atoms[0] >= 0:
            raise DomainError("atoms must be nonnegative")
        if not (probs >= 0).all():
            raise DomainError("probabilities must be nonnegative")
        mass = float(np.cumsum(probs)[-1])
        if not abs(mass - 1.0) <= 1e-6:
            raise DomainError(f"probabilities sum to {mass!r}, expected 1 +- 1e-6")
        atoms.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "mass", mass)

    def mean(self) -> float:
        return float(self.atoms @ self.probs)


def mitigated_severity_cdf(severity, gamma: float, y):
    """CDF of a single event loss after clipping by ``gamma``.

    Equals ``F_X(y + gamma)`` for ``y >= 0`` and zero below; the jump at
    zero carries the mass of events fully absorbed by the mitigation. The
    array that ``severity.cdf`` returns is overwritten, so it must be new.
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    y_arr = np.asarray(y, dtype=float)
    x = np.maximum(y_arr, 0.0)
    x += gamma
    out = np.asarray(severity.cdf(x), dtype=float)
    np.copyto(out, 0.0, where=~(y_arr >= 0))
    return float(out) if y_arr.ndim == 0 else out


def _tilt(cfg: DiscretizationConfig) -> np.ndarray:
    """A new array of the tilt ``exp(-j*theta)`` at each atom index ``j``."""
    tilt = np.arange(cfg.n_atoms, dtype=float)
    tilt *= -cfg.theta
    return np.exp(tilt, out=tilt)


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
    ``2**-k_gr`` normalization: both FFT calls take ``norm="forward"``,
    which scales inside the calls. The plain expressions ``ifft(x) * n``
    and ``fft(y) / n`` undo and redo numpy's default scaling instead, in
    two more passes over the buffer; scaling by a power of two is exact,
    so both give the same bits unless an intermediate is subnormal, where
    the scaling rounds. The cell masses, both transforms and the pgf work
    in place in one complex buffer, and the atoms are the config's shared
    grid. The tilt is freed once it has weighted the masses and is
    rebuilt, by the same operations, in the array that becomes the
    probabilities, so the untilt divides by the same values; otherwise the
    arithmetic is that of the plain expressions, operation for operation.
    Only the severity CDF runs on threads (its blocks are independent), so
    the result does not depend on the number of threads.

    Cleanup: probabilities in ``(-1e-8, 0)`` are clipped to zero (tilting
    controls aliasing but roundoff leaves tiny negatives), then the vector
    is renormalized to total mass one. The tiny mass deficit (the
    tilt-suppressed tail beyond ``l_bar``) is thus spread proportionally
    rather than parked on the top atom, where it would carry a spurious
    full-cap compensation. The distribution's :class:`TransformReport`
    records the smallest untilted probability, the clipped mass and the
    deficit before the clip.

    Raises:
        NumericalInstability: If probabilities are NaN or fall below
            -1e-8, or total mass drifts from one by more than 1e-4,
            indicating a misconfigured ``theta`` or grid.
    """
    n = cfg.n_atoms
    eps = cfg.step
    atoms = cfg.atoms
    # Cell j is [j*eps - eps/2, j*eps + eps/2]; its lower edge equals the
    # upper edge of cell j-1, and the lower edge of cell 0 sits below zero
    # where the mitigated CDF vanishes, so one CDF sweep suffices.
    upper = mitigated_severity_cdf(severity, gamma, atoms + 0.5 * eps)
    # The cell masses fill the real part of the one complex buffer that
    # both transforms run in; the imaginary part stays zero.
    buf = np.zeros(n, dtype=complex)
    mass = buf.real
    mass[0] = upper[0]
    np.subtract(upper[1:], upper[:-1], out=mass[1:])
    del upper
    mass *= _tilt(cfg)
    # Forward transform with positive kernel sign, per the tilted scheme;
    # "forward" leaves the inverse direction unscaled and scales the
    # forward one by 2**-k_gr.
    np.fft.ifft(buf, out=buf, norm="forward")
    frequency.pgf(buf, out=buf)
    np.fft.fft(buf, out=buf, norm="forward")
    # Untilt by the same tilt, rebuilt in the array that becomes the
    # probabilities.
    p = _tilt(cfg)
    np.divide(buf.real, p, out=p)
    del buf, mass

    neg_min = float(p.min())
    if not neg_min >= _NEGATIVE_PROB_FLOOR:
        raise NumericalInstability(
            f"untilted probability {neg_min!r} below {_NEGATIVE_PROB_FLOOR}; "
            "check theta and k_gr"
        )
    clipped = abs(float(np.sum(p, where=p < 0.0)))
    np.maximum(p, 0.0, out=p)
    total = float(p.sum())
    if not abs(total - 1.0) <= _MASS_DRIFT_LIMIT:
        raise NumericalInstability(
            f"total mass {total!r} drifts from 1 by more than {_MASS_DRIFT_LIMIT}"
        )
    p /= total
    report = TransformReport(
        n_atoms=n,
        theta=cfg.theta,
        min_untilted=neg_min,
        clipped_mass=clipped,
        deficit=1.0 - (total - clipped),
        exp_dispatch=_exp_dispatch(),
    )
    return DiscreteLossDistribution(atoms=atoms, probs=p, report=report)


def expected_aggregate_loss(severity, frequency: FrequencyModel, gamma: float) -> float:
    """Exact mean of the aggregate loss: ``E[N] * E[(X - gamma)^+]``.

    Closed form; deliberately not the grid mean, which truncates the tail
    at ``l_bar``.
    """
    return frequency.rate * severity.stop_loss(gamma)


@dataclass(frozen=True, eq=False)
class CompensationGrid:
    """Prefix-sum layer tables of one distribution at one ``(dtb, cap)`` pair.

    A table holds only its three arrays: its key ``(measure, dtb, cap)`` in
    the result of :func:`build_tables` is the one record of the
    distribution, the deductible and the cap.

    A compensation value ``c_j = min((a_j - dtb)^+, cap)`` is nondecreasing
    along the atom grid, so any band ``(lo, hi]`` of compensations maps to
    an index range found by binary search, and layer sums reduce to
    prefix-sum differences, which agree with direct sums over the atoms to
    roundoff.

    Only what a query can read is stored. Let ``m`` be the first atom whose
    compensation is ``cap``; every later atom is capped too. A threshold
    below ``cap`` then lands at an index ``<= m``, and one at or above
    ``cap``, or NaN, lands past every atom. So ``comp`` holds the ``m``
    compensations below the cap and one sentinel ``cap`` standing for all
    the capped atoms, which sends those thresholds to index ``m + 1``.
    ``cum_p`` and ``cum_pc`` hold the probability and compensation-mass
    prefix sums at ``0..m`` and the totals at ``m + 1``: ``m + 2`` entries
    each, where full-length tables keep ``n + 1``. The entries are those
    of the full tables bit for bit, so every query returns the same bits:
    both sums are the full-length cumsums' own operations, the probability
    total is the distribution's ``mass``, and the compensation-mass sums
    are scanned out of place a block at a time (see :func:`_fill_tables`).

    A table is a frozen record of finished arrays, which construction
    write-protects. :func:`build_tables` fills the arrays and constructs
    the tables; nothing else does.
    """

    comp: np.ndarray = field(repr=False)
    cum_p: np.ndarray = field(repr=False)
    cum_pc: np.ndarray = field(repr=False)

    def __post_init__(self):
        for table in (self.comp, self.cum_p, self.cum_pc):
            table.setflags(write=False)

    def claim_layers(self, band, alphas):
        """Layer sums over the claim sets ``(max(alpha, lo), hi]``, per alpha.

        ``band`` is the claim band ``(lo, hi)``, standing for ``(lo, hi]``.
        Returns ``(probability, compensation_mass, expectation_above)``;
        with an array of alphas, each is an array with one entry per alpha.
        """
        lo, hi = band
        i0, i1 = index_range(self.comp, np.maximum(alphas, lo), hi)
        mass = self.cum_p[i1] - self.cum_p[i0]
        weighted = self.cum_pc[i1] - self.cum_pc[i0]
        return mass, weighted, weighted - alphas * mass


def build_tables(distributions, keys) -> dict:
    """The layer tables ``{(measure, dtb, cap): CompensationGrid}`` of ``keys``,
    on ``distributions[measure]``.

    The calling thread allocates every array. First comes one pool, out of
    which each table's three arrays are carved in sorted key order: a
    table's own arrays (3.4 MB each at 2^22 atoms) stay under numpy's 4 MiB
    threshold for huge-page advice and would fault 4 KiB pages, while the
    pool of the four reference tables takes 10 MB at 2^20 atoms and 40 MB
    at 2^22. Then come two complex block buffers per distribution. One
    :func:`~cyberprov.parallel.map_tasks` task per distinct distribution
    object fills and scans that distribution's tables, in sorted key order
    (:func:`_fill_tables`). A task writes only its own distribution's
    tables, so every table has the same bits on any number of threads,
    paired or alone. Once the tasks have returned, the pool is
    write-protected, so no writable alias of a table remains, and the
    tables are constructed.
    """
    keys = sorted(set(keys))
    firsts = {}
    for d, dtb, cap in keys:
        atoms = distributions[d].atoms
        # The first capped atom, found with the comparison the clip makes.
        m = bisect.bisect_left(atoms, True, key=lambda a: min(max(a - dtb, 0.0), cap) == cap)
        firsts[d, dtb, cap] = m
    # A table's comp holds m + 1 entries, its cum_p and cum_pc m + 2 each.
    pool = np.empty(sum(3 * m + 5 for m in firsts.values()))
    tables = {distributions[d]: [] for d, _, _ in keys}
    arrays, end = {}, 0
    for (d, dtb, cap), m in firsts.items():
        start, end = end, end + 3 * m + 5
        arrays[d, dtb, cap] = np.split(pool[start:end], [m + 1, 2 * m + 3])
        tables[distributions[d]].append((m, dtb, cap, *arrays[d, dtb, cap]))
    # The block buffers follow the tables: next to their tables they left
    # heap holes (perfbench mc_ref +10 MB peak).
    buffers = [np.empty((2, min(len(dist.probs), _BLOCK)), dtype=complex) for dist in tables]
    tasks = [(d, group, *b) for (d, group), b in zip(tables.items(), buffers)]
    map_tasks(lambda task: _fill_tables(*task), tasks)
    pool.setflags(write=False)
    return {key: CompensationGrid(*arrays[key]) for key in arrays}


def _fill_tables(dist, tables, products, sums) -> None:
    """One distribution's task: its ``tables``, ``(m, dtb, cap, comp, cum_p,
    cum_pc)`` each, filled below the cap, then scanned two to a cumsum.

    Every table's probability sums are a prefix of one sequential cumsum,
    taken once up to the largest ``m`` and copied into the other tables:
    a shorter cumsum is bitwise the prefix of a longer one. The total is
    the distribution's ``mass``. A pair's compensation-mass sums take the
    real and the imaginary lanes of the block buffers, which start every
    ``_BLOCK`` atoms; a lone table pairs with itself. ``np.cumsum`` adds the
    lanes of a complex array with separate IEEE additions, so each lane
    carries its table's float64 running sum bit for bit, at about the cost
    of one float64 scan. A block's products go to one buffer, the atoms
    below a table's cap weighted by their compensation and the rest by the
    cap; a block past both caps of a pair whose caps are bitwise equal
    (every reference pair) takes one multiply, into the real lane, and a
    copy into the imaginary one. The carry is added to the first product,
    and the cumsum goes out of place to the other buffer (in place it would
    keep the interpreter lock), from which the entries below each table's
    cap are copied; the sum runs on to the last atom for the totals.
    """
    probs, n = dist.probs, len(dist.probs)
    *_, prefix, _ = max(tables, key=lambda table: table[0])  # the longest cum_p
    np.cumsum(probs[: len(prefix) - 2], out=prefix[1:-1])
    for m, dtb, cap, comp, table_p, table_pc in tables:
        np.subtract(dist.atoms[:m], dtb, out=comp[:m])
        np.clip(comp[:m], 0.0, cap, out=comp[:m])
        comp[m] = cap
        table_p[0] = 0.0
        if table_p is not prefix:
            table_p[1 : m + 1] = prefix[1 : m + 1]
        table_p[m + 1] = dist.mass
        table_pc[0] = 0.0
    for pair in zip(tables[::2], tables[1::2] + tables[-1:]):
        # Compared by their bits: caps 0.0 and -0.0 weight the atoms apart.
        one_cap = len({float(cap).hex() for _, _, cap, *_ in pair}) == 1
        carry = None
        for start in range(0, n, _BLOCK):
            size = min(n - start, _BLOCK)
            # Each table's atoms in this block below its cap.
            cuts = [min(max(m - start, 0), size) for m, *_ in pair]
            if one_cap and not any(cuts):
                np.multiply(probs[start : start + size], pair[0][2], out=products.real[:size])
                np.copyto(products.imag[:size], products.real[:size])
            else:
                lanes = (products.real, products.imag)
                for (*_, cap, comp, _, _), cut, out in zip(pair, cuts, lanes):
                    below = slice(start, start + cut)
                    np.multiply(probs[below], comp[below], out=out[:cut])
                    np.multiply(probs[start + cut : start + size], cap, out=out[cut:size])
            if carry is not None:
                products[0] += carry
            carry = np.cumsum(products[:size], out=sums[:size])[-1]
            for (*_, table_pc), cut, total in zip(pair, cuts, (sums.real, sums.imag)):
                table_pc[start + 1 : start + cut + 1] = total[:cut]
        for (*_, table_pc), total in zip(pair, (carry.real, carry.imag)):
            table_pc[-1] = total  # the lanes' last carries are the totals
