"""Aggregate-loss distribution: tilted FFT, layer operations, oracles."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberprov.compound import (
    CompensationGrid,
    DiscretizationConfig,
    DiscreteLossDistribution,
    FrequencyModel,
    build_tables,
    compound_fft,
    expected_aggregate_loss,
    mitigated_severity_cdf,
)
from cyberprov.config import build_discretization
from cyberprov.contract import ContractSchedules, MitigationMenu
from cyberprov.errors import DomainError, NumericalInstability
from cyberprov.intervals import index_range
from cyberprov.severity import LognormalParams, SeverityParams
from oracles import (
    FullLayerTable,
    compound_poisson_samples,
    grid_cdf,
    layer_expectation,
    layer_probability,
    one_table,
    panjer_poisson,
)

SEVERITY = SeverityParams(alpha=0.0, sigma=1.0, g=1.8, h=0.15)
POISSON = FrequencyModel(rate=0.8)
GAMMA_70 = SEVERITY.quantile(0.7)
EXPERIMENT_GRID = DiscretizationConfig(l_bar=10_000.0, k_gr=20, theta=20.0 / 2**20)
# Wider grid with a milder tilt; here the truncation error of the mean
# identity drops below one part in a thousand.
WIDE_GRID = DiscretizationConfig(l_bar=200_000.0, k_gr=21, theta=10.0 / 2**21)


class _SingleEvent:
    """Degenerate frequency with exactly one event per year (pgf s -> s)."""

    rate = 1.0

    @staticmethod
    def pgf(s, out=None):
        if out is None:
            return np.asarray(s)
        out[...] = s
        return out


_NAN_CDF = SimpleNamespace(cdf=lambda x: np.full(np.shape(x), math.nan))
_TINY_GRID = DiscretizationConfig(l_bar=10.0, k_gr=4)


def _dist(atoms, probs):
    return DiscreteLossDistribution(atoms=np.array(atoms), probs=np.array(probs))


def _schedules(**changes):
    """A one-level, one-year schedule set with ``changes`` applied."""
    one, zero = np.ones((1, 1)), np.zeros(1)
    fields = dict(premium=one, deductible=one, max_comp=one, fee_in=zero, fee_out=zero,
                  fee_re=0.0, discount_factor=0.95)
    return ContractSchedules(**{**fields, **changes})


@pytest.fixture(scope="module")
def experiment_dists(reference_context):
    """The reference model's grid laws: measure 0 (no cut) and 1 (GAMMA_70 cut).

    The reference config is SEVERITY, POISSON and EXPERIMENT_GRID, so these
    are the session context's transforms rather than two more builds.
    """
    ctx = reference_context
    assert (ctx.severity, ctx.frequency) == (SEVERITY, POISSON)
    assert build_discretization(ctx.config) == EXPERIMENT_GRID
    assert ctx.menu.gammas == (0.0, GAMMA_70)
    return ctx.distributions


# ---------------------------------------------------------------------------
# Frequency model
# ---------------------------------------------------------------------------
class TestFrequency:
    def test_pgf_normalization(self):
        assert POISSON.pgf(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_rate_degenerate(self):
        silent = FrequencyModel(rate=0.0)
        assert silent.pgf(0.3) == 1.0

    def test_no_event_probability(self):
        assert POISSON.pgf(0.0) == pytest.approx(math.exp(-0.8), abs=1e-15)

    def test_scalar_pgf_is_a_scalar(self):
        for s, value in ((1.0, 1.0), (0.0, np.exp(-0.8))):
            got = POISSON.pgf(s)
            assert type(got) is np.float64
            assert got == value

    def test_pgf_in_place_matches_copy(self):
        rng = np.random.default_rng(19)
        z = rng.uniform(-0.7, 0.7, 2**16) + 1j * rng.uniform(-0.7, 0.7, 2**16)
        arg = z.copy()
        copied = POISSON.pgf(arg)
        assert np.array_equal(arg, z)  # the copying call leaves s alone
        buf = z.copy()
        POISSON.pgf(buf, out=buf)
        assert buf.tobytes() == copied.tobytes()

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            FrequencyModel(rate=-1.0)


# ---------------------------------------------------------------------------
# Mitigated severity
# ---------------------------------------------------------------------------
class TestMitigatedSeverity:
    def test_null_measure_matches_severity(self):
        y = np.linspace(0.01, 20.0, 50)
        np.testing.assert_allclose(
            mitigated_severity_cdf(SEVERITY, 0.0, y), SEVERITY.cdf(y)
        )

    def test_negative_argument_is_zero(self):
        assert mitigated_severity_cdf(SEVERITY, GAMMA_70, -0.5) == 0.0

    def test_rejects_negative_gamma(self):
        with pytest.raises(DomainError, match="gamma must be >= 0"):
            mitigated_severity_cdf(SEVERITY, -0.5, 1.0)

    def test_mass_absorbed_at_zero(self):
        assert mitigated_severity_cdf(SEVERITY, GAMMA_70, 0.0) == pytest.approx(
            0.7, abs=1e-9
        )


# ---------------------------------------------------------------------------
# The transform itself
# ---------------------------------------------------------------------------
class TestCompoundFFT:
    def test_zero_rate_is_point_mass(self):
        dist = compound_fft(
            SEVERITY,
            FrequencyModel(rate=0.0),
            0.0,
            DiscretizationConfig(l_bar=100.0, k_gr=10),
        )
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(dist.probs[1:]).max() < 1e-10

    def test_single_event_recovers_severity(self):
        cfg = DiscretizationConfig(l_bar=10_000.0, k_gr=16, theta=10.0 / 2**16)
        dist = compound_fft(SEVERITY, _SingleEvent(), 0.0, cfg)
        eps = cfg.step
        j = np.arange(cfg.n_atoms)
        upper = mitigated_severity_cdf(SEVERITY, 0.0, j * eps + eps / 2)
        cells = upper - np.concatenate(([0.0], upper[:-1]))
        cells /= cells.sum()
        assert np.abs(dist.probs - cells).max() < 1e-10

    def test_mass_and_nonnegativity(self, experiment_dists):
        for dist in experiment_dists.values():
            assert abs(dist.probs.sum() - 1.0) <= 1e-6
            assert dist.probs.min() >= 0.0

    def test_mean_identity_on_wide_grid(self):
        for gamma in (0.0, GAMMA_70):
            dist = compound_fft(SEVERITY, POISSON, gamma, WIDE_GRID)
            wald = expected_aggregate_loss(SEVERITY, POISSON, gamma)
            assert dist.mean() == pytest.approx(wald, rel=1e-3)

    def test_mean_gap_on_experiment_grid(self, reference_context):
        # The reference grid stops at 1e4 where the severity still carries
        # ~0.05 of expected mass, so the grid mean undershoots the exact
        # mean, by 1.28 % (measure 0) and 1.58 % (measure 1); regression-
        # bound that truncation gap at 2 %.
        for d, dist in reference_context.distributions.items():
            wald = reference_context.expected_losses[d]
            rel = (dist.mean() - wald) / wald
            assert -2e-2 < rel < 0.0

    def test_dominance_across_mitigation(self, experiment_dists):
        # Pointwise dominance holds up to the renormalization constant,
        # which differs between the two grids by at most the truncated
        # tail mass (~5e-6).
        weaker = np.cumsum(experiment_dists[0].probs)
        stronger = np.cumsum(experiment_dists[1].probs)
        assert np.all(stronger - weaker >= -1e-6)

    def test_traced_memory_peak(self, reference_context):
        # A 2^20-atom transform, its 16 MiB result included, traces at about
        # 59 MiB, in the severity-CDF phase, and must stay below 80 MiB.
        # tracemalloc cannot see pocketfft's scratch, so the FFT phase is
        # guarded by test_one_buffer_across_the_ffts.
        ctx = reference_context
        disc = build_discretization(ctx.config)
        tracemalloc.start()
        try:
            compound_fft(ctx.severity, ctx.frequency, ctx.menu.gammas[0], disc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20

    def test_one_buffer_across_the_ffts(self, monkeypatch):
        # Each transform sees the atom grid (8 MiB at 2^20 atoms) and the
        # complex buffer (16 MiB) live; a tilt held across the transforms
        # adds 8 MiB, and a pgf that copies its argument 16 MiB more.
        live = []
        for name in ("fft", "ifft"):
            def traced(*args, _transform=getattr(np.fft, name), **kwargs):
                live.append(tracemalloc.get_traced_memory()[0])
                return _transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, traced)
        cfg = DiscretizationConfig(l_bar=10_000.0, k_gr=20)
        tracemalloc.start()
        try:
            compound_fft(LognormalParams(mu=0.5, s=1.2), POISSON, 0.0, cfg)
        finally:
            tracemalloc.stop()
        assert len(live) == 2
        assert max(live) <= 25 * 2**20

    def test_measures_share_the_atom_grid(self, reference_context):
        first, second = reference_context.distributions.values()
        assert first.atoms is second.atoms
        assert not first.atoms.flags.writeable

    def test_layer_tables_memory(self, experiment_dists):
        # A table keeps three arrays of m + 2 entries, m the number of atoms
        # below the cap (about a tenth of them here), so the four reference
        # tables (two measures, deductibles 0.5 and 5, cap 1000) hold 9.6
        # MiB; at full length they held 64 MiB. Nothing is cached on the
        # distributions, so this is every build's cost.
        tracemalloc.start()
        try:
            keys = [(d, dtb, 1000.0) for d in experiment_dists for dtb in (0.5, 5.0)]
            tables = build_tables(experiment_dists, keys)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tables) == 4
        assert held <= 12 * 2**20

    def test_mass_drift_raises(self):
        tiny = DiscretizationConfig(l_bar=200.0, k_gr=10)
        with pytest.raises(NumericalInstability):
            compound_fft(SEVERITY, POISSON, 0.0, tiny)

    def test_deciles_match_monte_carlo(self, experiment_dists):
        dist = experiment_dists[0]
        samples = compound_poisson_samples(SEVERITY, 0.8, 200_000, seed=11)
        cum = np.cumsum(dist.probs)
        for q in (0.5, 0.6, 0.7, 0.8, 0.9):
            x = dist.atoms[np.searchsorted(cum, q)]
            grid_p = float(grid_cdf(dist, x))
            emp = float((samples <= x).mean())
            se = math.sqrt(grid_p * (1 - grid_p) / len(samples))
            assert abs(emp - grid_p) <= 3 * se

    def test_closed_form_mean(self):
        assert expected_aggregate_loss(SEVERITY, POISSON, 0.0) == pytest.approx(
            0.8 * SEVERITY.mean(), rel=1e-12
        )
        assert expected_aggregate_loss(SEVERITY, FrequencyModel(rate=0.0), 0.0) == 0.0


class TestPanjer:
    """The transform against Panjer's recursion on the same cell masses.

    The recursion has no tilt and no aliasing, so what separates the two
    laws is the transform's own error: the wrapped tail, the untilt's
    amplified roundoff, the clip and the renormalization. Both measures
    of the reference model, on the reference ``l_bar``.
    """

    @staticmethod
    def _laws(gamma, cfg):
        """The library's law, Panjer's law, and the part of Panjer's mass
        beyond the grid that one event puts there (a thinned Poisson count
        of the single-event mass beyond the last cell)."""
        upper = mitigated_severity_cdf(SEVERITY, gamma, cfg.atoms + 0.5 * cfg.step)
        f = np.diff(upper, prepend=0.0)  # the cell masses compound_fft tilts
        g = panjer_poisson(f, POISSON.rate)
        single = -math.expm1(-POISSON.rate * (1.0 - f.sum()))
        return compound_fft(SEVERITY, POISSON, gamma, cfg).probs, g, single

    @pytest.mark.parametrize("gamma", [0.0, GAMMA_70], ids=["measure-0", "measure-1"])
    def test_transform_matches_recursion(self, gamma):
        # Measured at k_gr 12-14 on both measures: L1 1.1e-7 to 2.6e-7,
        # max 3.7e-9 to 1.9e-8. The bounds allow about 4x and 5x that; the
        # max bound is the docstring's roundoff claim.
        tails = []
        for k_gr in (12, 13, 14):
            lib, g, single = self._laws(gamma, DiscretizationConfig(l_bar=1e4, k_gr=k_gr))
            err = np.abs(lib - g / g.sum())
            assert err.sum() <= 1e-6 and err.max() <= 1e-7, (k_gr, err.sum(), err.max())
            # 1 - sum g is the mass beyond l_bar: 3.86e-6, of which all
            # but 0.09-0.12 % comes from a single event beyond the grid.
            tail = 1.0 - g.sum()
            assert single <= tail <= 1.01 * single, (k_gr, tail, single)
            tails.append(tail)
        # It reads the same on each grid step.
        assert max(tails) - min(tails) <= 1e-3 * max(tails)

    @pytest.mark.parametrize("gamma", [0.0, GAMMA_70], ids=["measure-0", "measure-1"])
    def test_theta_sweep(self, gamma):
        # DiscretizationConfig's claims, on a 2^10-atom grid: the tilt damps
        # the wrapped mass, the several-event mass beyond the grid, by
        # exp(-theta n) (about 2e-9 at the default theta n = 20), and the
        # untilt amplifies roundoff by at most exp(theta n) (2^-52 exp(20)
        # is about 1.1e-7). Measured errors sit 2x to 20x below these bounds.
        k_gr = 10
        n = 2**k_gr
        _, g, single = self._laws(gamma, DiscretizationConfig(l_bar=1e4, k_gr=k_gr))
        wrapped = 1.0 - g.sum() - single
        for theta_n in (2.5, 5.0, 7.5, 10.0, 15.0, 20.0):
            cfg = DiscretizationConfig(l_bar=1e4, k_gr=k_gr, theta=theta_n / n)
            err = np.abs(compound_fft(SEVERITY, POISSON, gamma, cfg).probs - g / g.sum())
            alias, roundoff = wrapped * math.exp(-theta_n), 2.0**-52 * math.exp(theta_n)
            assert err.max() <= 2 * alias + roundoff, (theta_n, err.max())
            assert err.sum() <= 2 * alias + n * roundoff, (theta_n, err.sum())
            if theta_n == 2.5:  # a weak tilt leaves the wrapped mass in view
                assert err.sum() >= 0.5 * alias
        # The -1e-8 floor on the untilted probabilities trips between the
        # default and 25 (at 22.5 here, measured at -2e-8 to -3e-8).
        for theta_n in (25.0, 30.0):
            cfg = DiscretizationConfig(l_bar=1e4, k_gr=k_gr, theta=theta_n / n)
            with pytest.raises(NumericalInstability, match="untilted probability"):
                compound_fft(SEVERITY, POISSON, gamma, cfg)


# ---------------------------------------------------------------------------
# Discretization config and distribution type
# ---------------------------------------------------------------------------
class TestTypes:
    def test_default_tilt(self):
        cfg = DiscretizationConfig(l_bar=10_000.0, k_gr=20)
        assert cfg.theta == pytest.approx(20.0 / 2**20, abs=0)
        assert cfg.step == pytest.approx(10_000.0 / (2**20 - 1))

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            DiscretizationConfig(l_bar=-1.0, k_gr=10)
        with pytest.raises(DomainError):
            DiscretizationConfig(l_bar=10.0, k_gr=0)
        with pytest.raises(DomainError):
            DiscretizationConfig(l_bar=10.0, k_gr=10, theta=-0.5)

    def test_distribution_validation(self):
        with pytest.raises(DomainError):
            DiscreteLossDistribution(
                atoms=np.array([0.0, 1.0]), probs=np.array([0.6, 0.6])
            )
        with pytest.raises(DomainError):
            DiscreteLossDistribution(
                atoms=np.array([1.0, 0.0]), probs=np.array([0.5, 0.5])
            )
        with pytest.raises(DomainError):
            DiscreteLossDistribution(
                atoms=np.array([0.0, 1.0]), probs=np.array([1.1, -0.1])
            )
        with pytest.raises(DomainError, match="atoms must be nonnegative"):
            DiscreteLossDistribution(
                atoms=np.array([-1.0, 1.0]), probs=np.array([0.5, 0.5])
            )
        # A NaN past the first atom fails the order check from either side.
        for atoms in ([0.0, math.nan, 1.0], [0.0, 1.0, math.nan]):
            with pytest.raises(DomainError, match="atoms must be nondecreasing"):
                _dist(atoms, [0.2, 0.3, 0.5])

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: FrequencyModel(rate=math.nan), DomainError),
            (lambda: _dist([0.0, 1.0], [math.nan, 1.0]), DomainError),
            (lambda: _dist([math.nan, 1.0], [0.5, 0.5]), DomainError),
            (lambda: _dist([], []), DomainError),
            (lambda: MitigationMenu(betas=(0.0, math.nan), gammas=(0.0, 1.0)), DomainError),
            (lambda: SeverityParams(alpha=math.nan, sigma=1.0, g=1.8, h=0.15), DomainError),
            (lambda: LognormalParams(mu=math.nan, s=1.0), DomainError),
            (lambda: _schedules(premium=np.full((1, 1), math.nan)), DomainError),
            (lambda: _schedules(fee_out=np.full(1, math.nan)), DomainError),
            (lambda: _schedules(fee_re=math.nan), DomainError),
            (lambda: compound_fft(_NAN_CDF, POISSON, 0.0, _TINY_GRID), NumericalInstability),
        ],
        ids=["rate", "probs", "atoms", "empty", "beta", "alpha", "mu", "premium", "fee_out",
             "fee_re", "fft"],
    )
    def test_nan_rejected(self, make, error):
        with pytest.raises(error):
            make()

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: SeverityParams(alpha=0.0, sigma=math.inf, g=1.8, h=0.15), "sigma"),
            (lambda: SeverityParams(alpha=0.0, sigma=1.0, g=math.inf, h=0.15), "g"),
            (lambda: LognormalParams(mu=0.0, s=math.inf), "log-scale s"),
            (lambda: FrequencyModel(rate=math.inf), "rate"),
        ],
        ids=["sigma", "g", "s", "rate"],
    )
    def test_inf_rejected(self, make, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            make()

    def test_distribution_immutable(self):
        dist = DiscreteLossDistribution(
            atoms=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5])
        )
        with pytest.raises(ValueError):
            dist.probs[0] = 0.7

    def test_mass_is_last_prefix_sum(self, experiment_dists):
        # The total is summed in atom order, so it is the last of the
        # sequential prefix sums, which every table ends its cum_p with.
        small = DiscreteLossDistribution(
            atoms=np.array([0.0, 1.0, 2.5]), probs=np.array([0.2, 0.3, 0.5])
        )
        for dist in (small, *experiment_dists.values()):
            assert dist.mass == np.cumsum(dist.probs)[-1]
            for dtb, cap in ((0.5, 1000.0), (5.0, 1000.0), (0.0, 1.0), (0.5, 0.0)):
                grid = one_table(dist, dtb, cap)
                assert grid.cum_p[-1] == dist.mass
                with pytest.raises(ValueError):
                    grid.cum_p[-1] = 0.0


# ---------------------------------------------------------------------------
# Layer operations
# ---------------------------------------------------------------------------
class TestLayers:
    two_atom = DiscreteLossDistribution(
        atoms=np.array([0.0, 10.0]), probs=np.array([0.5, 0.5])
    )
    everything = (-np.inf, np.inf)  # (lo, hi] holding every compensation

    def test_hand_expectation(self):
        value = layer_expectation(
            self.two_atom, (0.0, np.inf), dtb=0.5, cap=1000.0, alpha_offset=1.0
        )
        assert value == pytest.approx(0.5 * (9.5 - 1.0), abs=1e-15)

    def test_hand_probability(self):
        value = layer_probability(self.two_atom, (1.0, np.inf), dtb=0.5, cap=1000.0)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_zero_cap_no_compensation(self):
        assert layer_expectation(self.two_atom, self.everything, dtb=0.0, cap=0.0) == 0.0

    def test_identity_layer_is_mean(self):
        value = layer_expectation(self.two_atom, self.everything, dtb=0.0, cap=np.inf)
        assert value == pytest.approx(self.two_atom.mean(), abs=1e-15)

    def test_total_mass(self):
        assert layer_probability(
            self.two_atom, self.everything, dtb=0.5, cap=1000.0
        ) == pytest.approx(1.0, abs=1e-12)

    def test_strict_endpoint_excludes_point_mass(self):
        origin = DiscreteLossDistribution(
            atoms=np.array([0.0]), probs=np.array([1.0])
        )
        assert layer_probability(origin, (0.0, np.inf), dtb=0.0, cap=10.0) == 0.0

    def test_monotone_in_deductible_and_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 12)
            atoms = np.sort(rng.uniform(0.0, 30.0, size=n))
            atoms[0] = 0.0
            probs = rng.dirichlet(np.ones(n))
            dist = DiscreteLossDistribution(atoms=atoms, probs=probs)
            band = (0.0, np.inf)
            by_dtb = [
                layer_expectation(dist, band, dtb, 100.0) for dtb in (0.0, 1.0, 5.0)
            ]
            assert by_dtb == sorted(by_dtb, reverse=True)
            by_cap = [
                layer_expectation(dist, band, 1.0, cap) for cap in (0.5, 2.0, 50.0)
            ]
            assert by_cap == sorted(by_cap)


class TestIndexRange:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=30
        ),
        data=st.data(),
    )
    def test_matches_boolean_mask(self, values, data):
        # Ends drawn from the values themselves exercise the strict lower
        # and the inclusive upper comparison.
        ends = st.one_of(
            st.floats(min_value=-1.0, max_value=21.0),
            st.sampled_from(values),
            st.just(np.inf),
        )
        sorted_values = np.sort(np.asarray(values))
        los = np.array(data.draw(st.lists(ends, min_size=1, max_size=4)))
        hi = data.draw(ends)
        starts, stops = index_range(sorted_values, los, hi)
        for lo, start, stop in zip(los, starts, stops):
            assert (start, stop) == index_range(sorted_values, lo, hi)
            mask = (sorted_values > lo) & (sorted_values <= hi)
            expected = np.zeros(len(sorted_values), dtype=bool)
            expected[start:stop] = True
            assert np.array_equal(mask, expected)


def _probability(grid: CompensationGrid, band) -> float:
    # Compensations are nonnegative, so a threshold of -1 cuts nothing.
    return float(grid.claim_layers(band, -1.0)[0])


class TestCompensationGrid:
    def test_matches_direct_sums(self, experiment_dists):
        dist = experiment_dists[0]
        grid = one_table(dist, 0.5, 1000.0)
        cases = [
            ((0.0, np.inf), 0.0),
            ((-np.inf, np.inf), 1.0),
            ((2.5, 80.0), 3.0),
            ((0.0, 0.0), 0.0),
            ((999.0, np.inf), 5.0),
        ]
        # Prefix-sum differences over a million atoms cancel to ~1e-12
        # absolute, so small-window queries carry that absolute error.
        for band, alpha in cases:
            direct = layer_expectation(dist, band, 0.5, 1000.0, alpha)
            assert grid.claim_layers(band, alpha)[2] == pytest.approx(
                direct, rel=1e-7, abs=1e-10
            )
            direct_p = layer_probability(dist, band, 0.5, 1000.0)
            assert _probability(grid, band) == pytest.approx(
                direct_p, rel=1e-7, abs=1e-12
            )

    def test_tables_are_frozen(self):
        # A table is a record of its three finished arrays, its key in the
        # builder's result the one record of (measure, dtb, cap): neither an
        # entry nor a field can be changed after the builder returns it.
        assert [f.name for f in fields(CompensationGrid)] == ["comp", "cum_p", "cum_pc"]
        dist = DiscreteLossDistribution(
            atoms=np.array([0.0, 1.0, 2.5]), probs=np.array([0.2, 0.3, 0.5])
        )
        grid = one_table(dist, 0.5, 1.5)
        for table in (grid.comp, grid.cum_p, grid.cum_pc):
            with pytest.raises(ValueError):
                table[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            grid.comp = np.zeros(3)

    def test_matches_on_random_discrete_distributions(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = rng.integers(2, 15)
            atoms = np.sort(rng.uniform(0.0, 25.0, size=n))
            atoms[0] = 0.0
            probs = rng.dirichlet(np.ones(n))
            dist = DiscreteLossDistribution(atoms=atoms, probs=probs)
            dtb, cap = rng.uniform(0.0, 2.0), rng.uniform(0.5, 30.0)
            grid = one_table(dist, dtb, cap)
            lo, hi = np.sort(rng.uniform(0.0, 12.0, size=2))
            alpha = rng.uniform(0.0, 6.0)
            prob, mass, above = grid.claim_layers((lo, hi), alpha)
            assert above == pytest.approx(
                layer_expectation(dist, (lo, hi), dtb, cap, alpha),
                rel=1e-12,
                abs=1e-15,
            )
            claim_set = (max(alpha, lo), hi)
            assert prob == pytest.approx(
                layer_probability(dist, claim_set, dtb, cap),
                rel=1e-12,
                abs=1e-15,
            )
            assert mass == pytest.approx(
                layer_expectation(dist, claim_set, dtb, cap),
                rel=1e-12,
                abs=1e-15,
            )


def _thresholds(comp: np.ndarray, cap: float) -> np.ndarray:
    """Every compensation value, the cap and its float neighbours, and
    thresholds no table holds: the infinities, NaN, both zeros, a negative."""
    edges = [-np.inf, -1.0, -0.0, 0.0, np.nextafter(cap, -np.inf), cap,
             np.nextafter(cap, np.inf), np.inf, np.nan]
    return np.concatenate((edges, np.unique(comp)))


def _assert_matches_full_table(dist, dtb, cap, bands):
    grid = one_table(dist, dtb, cap)
    full = FullLayerTable(dist, dtb, cap)
    alphas = _thresholds(full.comp, cap)
    with np.errstate(invalid="ignore"):  # -inf * 0 where a claim set is empty
        for band in bands:
            lean = grid.claim_layers(band, alphas)
            for got, want in zip(lean, full.claim_layers(band, alphas)):
                assert np.array_equal(got, want, equal_nan=True), (dtb, cap, band)


def _normalized(pairs) -> DiscreteLossDistribution:
    atoms = np.sort([a for a, _ in pairs])
    weights = np.array([w for _, w in pairs])
    return DiscreteLossDistribution(atoms=atoms, probs=weights / weights.sum())


# Small distributions on (atom, weight) pairs; atoms may repeat.
_SMALL_DISTS = st.lists(
    st.tuples(st.floats(0.0, 20.0), st.floats(1e-3, 1.0)), min_size=1, max_size=12
).map(_normalized)


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return float(x)


class TestLeanTables:
    """The lean tables answer every query with the full-length tables' bits."""

    def test_reference_distributions(self, experiment_dists):
        bands = [(-np.inf, np.inf), (0.0, np.inf), (0.0, 0.0), (2.5, 80.0),
                 (80.0, 1000.0), (999.0, np.inf), (1000.0, np.inf)]
        for dist in experiment_dists.values():
            for dtb in (0.5, 5.0):
                _assert_matches_full_table(dist, dtb, 1000.0, bands)

    @settings(max_examples=300, deadline=None)
    @given(dist=_SMALL_DISTS, data=st.data())
    def test_small_distributions(self, dist, data):
        first, last = float(dist.atoms[0]), float(dist.atoms[-1])
        dtb = data.draw(st.sampled_from([0.0, (first + last) / 2, last + 1.0]))
        cap = data.draw(st.sampled_from([0.0, 5e-324, 3.0, np.inf]))
        self._check(dist, dtb, cap, data)

    @settings(max_examples=300, deadline=None)
    @given(dist=_SMALL_DISTS, data=st.data())
    def test_cap_edge_near_an_atom(self, dist, data):
        # dtb + cap within 2 ulps of an atom decides whether that atom is
        # the first capped one, so the search for it must be exact.
        dtb = data.draw(st.sampled_from([0.0, 0.1, 1.0 / 3.0]))
        atom = data.draw(st.sampled_from(dist.atoms.tolist()))
        cap = _nudge(atom - dtb, data.draw(st.integers(-2, 2)))
        if not cap >= 0.0:
            cap = 0.0
        self._check(dist, dtb, cap, data)

    @staticmethod
    def _check(dist, dtb, cap, data):
        thresholds = _thresholds(FullLayerTable(dist, dtb, cap).comp, cap)
        ends = st.sampled_from(thresholds[~np.isnan(thresholds)].tolist())
        drawn = data.draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=4))
        _assert_matches_full_table(dist, dtb, cap, [(-np.inf, np.inf), *drawn])
