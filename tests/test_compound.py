"""Aggregate-loss distribution: tilted FFT, layer operations, oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberprov.compound import (
    CompensationGrid,
    DiscretizationConfig,
    DiscreteLossDistribution,
    FrequencyModel,
    compound_fft,
    expected_aggregate_loss,
    mitigated_severity_cdf,
)
from cyberprov.config import build_discretization
from cyberprov.errors import DomainError, NumericalInstability
from cyberprov.intervals import Interval
from cyberprov.severity import SeverityParams
from oracles import compound_poisson_samples, layer_expectation, layer_probability

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
    def pgf(s):
        return np.asarray(s)


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
        # mean by 0.6..1.3%; regression-bound that truncation gap.
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
            grid_p = float(dist.cdf(x))
            emp = float((samples <= x).mean())
            se = math.sqrt(grid_p * (1 - grid_p) / len(samples))
            assert abs(emp - grid_p) <= 3 * se

    def test_closed_form_mean(self):
        assert expected_aggregate_loss(SEVERITY, POISSON, 0.0) == pytest.approx(
            0.8 * SEVERITY.mean(), rel=1e-12
        )
        assert expected_aggregate_loss(SEVERITY, FrequencyModel(rate=0.0), 0.0) == 0.0


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

    def test_distribution_immutable(self):
        dist = DiscreteLossDistribution(
            atoms=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5])
        )
        with pytest.raises(ValueError):
            dist.probs[0] = 0.7


# ---------------------------------------------------------------------------
# Layer operations
# ---------------------------------------------------------------------------
class TestLayers:
    two_atom = DiscreteLossDistribution(
        atoms=np.array([0.0, 10.0]), probs=np.array([0.5, 0.5])
    )

    def test_hand_expectation(self):
        value = layer_expectation(
            self.two_atom,
            Interval(0.0, np.inf, lo_open=True, hi_open=True),
            dtb=0.5,
            cap=1000.0,
            alpha_offset=1.0,
        )
        assert value == pytest.approx(0.5 * (9.5 - 1.0), abs=1e-15)

    def test_hand_probability(self):
        value = layer_probability(
            self.two_atom,
            Interval(1.0, np.inf, lo_open=True, hi_open=True),
            dtb=0.5,
            cap=1000.0,
        )
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_zero_cap_no_compensation(self):
        assert (
            layer_expectation(
                self.two_atom,
                Interval(0.0, np.inf, lo_open=False, hi_open=True),
                dtb=0.0,
                cap=0.0,
            )
            == 0.0
        )

    def test_identity_layer_is_mean(self):
        value = layer_expectation(
            self.two_atom,
            Interval(0.0, np.inf, lo_open=False, hi_open=True),
            dtb=0.0,
            cap=np.inf,
        )
        assert value == pytest.approx(self.two_atom.mean(), abs=1e-15)

    def test_total_mass(self):
        assert layer_probability(
            self.two_atom,
            Interval(0.0, np.inf, lo_open=False, hi_open=True),
            dtb=0.5,
            cap=1000.0,
        ) == pytest.approx(1.0, abs=1e-12)

    def test_strict_endpoint_excludes_point_mass(self):
        origin = DiscreteLossDistribution(
            atoms=np.array([0.0]), probs=np.array([1.0])
        )
        assert (
            layer_probability(
                origin,
                Interval(0.0, np.inf, lo_open=True, hi_open=True),
                dtb=0.0,
                cap=10.0,
            )
            == 0.0
        )

    def test_monotone_in_deductible_and_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 12)
            atoms = np.sort(rng.uniform(0.0, 30.0, size=n))
            atoms[0] = 0.0
            probs = rng.dirichlet(np.ones(n))
            dist = DiscreteLossDistribution(atoms=atoms, probs=probs)
            interval = Interval(0.0, np.inf, lo_open=True, hi_open=True)
            by_dtb = [
                layer_expectation(dist, interval, dtb, 100.0) for dtb in (0.0, 1.0, 5.0)
            ]
            assert by_dtb == sorted(by_dtb, reverse=True)
            by_cap = [
                layer_expectation(dist, interval, 1.0, cap) for cap in (0.5, 2.0, 50.0)
            ]
            assert by_cap == sorted(by_cap)


class TestIndexRange:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=30
        ),
        lo=st.floats(min_value=-1.0, max_value=21.0),
        width=st.floats(min_value=0.0, max_value=10.0),
        lo_open=st.booleans(),
        hi_open=st.booleans(),
    )
    def test_matches_boolean_mask(self, values, lo, width, lo_open, hi_open):
        from cyberprov.intervals import index_range

        sorted_values = np.sort(np.asarray(values))
        interval = Interval(lo, lo + width, lo_open=lo_open, hi_open=hi_open)
        start, stop = index_range(sorted_values, interval)
        mask = interval.contains(sorted_values)
        expected = np.zeros(len(sorted_values), dtype=bool)
        expected[start:stop] = True
        assert np.array_equal(mask, expected)


def _probability(grid: CompensationGrid, interval: Interval) -> float:
    # Compensations are nonnegative, so a threshold of -1 cuts nothing.
    return float(grid.claim_layers(interval, -1.0)[0])


class TestCompensationGrid:
    def test_matches_direct_sums(self, experiment_dists):
        dist = experiment_dists[0]
        grid = CompensationGrid(dist, dtb=0.5, cap=1000.0)
        cases = [
            (Interval(0.0, np.inf, lo_open=False, hi_open=True), 0.0),
            (Interval(0.0, np.inf, lo_open=True, hi_open=True), 0.0),
            (Interval(2.5, 80.0, lo_open=True, hi_open=False), 3.0),
            (Interval(0.0, 0.0, lo_open=False, hi_open=False), 0.0),
            (Interval(999.0, np.inf, lo_open=True, hi_open=True), 5.0),
        ]
        # Prefix-sum differences over a million atoms cancel to ~1e-12
        # absolute, so small-window queries carry that absolute error.
        for interval, alpha in cases:
            direct = layer_expectation(dist, interval, 0.5, 1000.0, alpha)
            assert grid.claim_layers(interval, alpha)[2] == pytest.approx(
                direct, rel=1e-7, abs=1e-10
            )
            direct_p = layer_probability(dist, interval, 0.5, 1000.0)
            assert _probability(grid, interval) == pytest.approx(
                direct_p, rel=1e-7, abs=1e-12
            )

    def test_matches_on_random_discrete_distributions(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = rng.integers(2, 15)
            atoms = np.sort(rng.uniform(0.0, 25.0, size=n))
            atoms[0] = 0.0
            probs = rng.dirichlet(np.ones(n))
            dist = DiscreteLossDistribution(atoms=atoms, probs=probs)
            dtb, cap = rng.uniform(0.0, 2.0), rng.uniform(0.5, 30.0)
            grid = CompensationGrid(dist, dtb=dtb, cap=cap)
            lo, hi = np.sort(rng.uniform(0.0, 12.0, size=2))
            interval = Interval(
                lo, hi, lo_open=bool(rng.integers(2)), hi_open=bool(rng.integers(2))
            )
            alpha = rng.uniform(0.0, 6.0)
            prob, mass, above = grid.claim_layers(interval, alpha)
            assert above == pytest.approx(
                layer_expectation(dist, interval, dtb, cap, alpha),
                rel=1e-12,
                abs=1e-15,
            )
            claim_set = interval.cut_below(alpha)
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
