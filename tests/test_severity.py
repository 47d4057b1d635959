"""Severity model: transform, CDF/quantile, sampling, stop-loss."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from cyberprov.errors import DomainError
from cyberprov.severity import (
    LognormalParams,
    SeverityParams,
    _y_inverse,
    cdf_raw,
    lognormal_moment_match,
    truncated_second_moment,
    y_gh,
)
from cyberprov.config import build_discretization
from oracles import (
    bisect_inverse,
    quantile_product,
    second_moment_mpmath,
    stop_loss_expression,
    stop_loss_quadrature,
)

# Reference experiment parameters.
PARAMS = SeverityParams(alpha=0.0, sigma=1.0, g=1.8, h=0.15)
# ((e^1.8 - 1)/1.8) * e^0.075 at 20 digits.
Y_AT_ONE = 3.0238527608030450165
# 0.7-quantile found by bisecting the truncated CDF to 1e-10.
GAMMA_70 = 3.2876349847
SEED = 20250810


def y_gh_inverse(params, y):
    """``Y^{-1}`` of a scalar (as a float) or of an array, by ``_y_inverse``."""
    out = _y_inverse(params.g, params.h, y)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# The normal-to-loss transform and its inverse
# ---------------------------------------------------------------------------
class TestTransform:
    def test_zero_maps_to_zero(self):
        assert y_gh(PARAMS, 0.0) == 0.0

    def test_reference_value(self):
        assert y_gh(PARAMS, 1.0) == pytest.approx(Y_AT_ONE, abs=1e-12)
        assert y_gh(PARAMS, 1.0) > (math.exp(1.8) - 1.0) / 1.8

    def test_strictly_increasing(self):
        rng = np.random.default_rng(SEED)
        z = np.sort(rng.uniform(-8.0, 8.0, size=2000))
        vals = y_gh(PARAMS, z)
        assert np.all(np.diff(vals) > 0)

    def test_inverse_at_zero(self):
        assert y_gh_inverse(PARAMS, 0.0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("z", [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    def test_inverse_round_trip(self, z):
        assert y_gh_inverse(PARAMS, y_gh(PARAMS, z)) == pytest.approx(z, abs=1e-8)

    def test_forward_then_inverse_at_two(self):
        assert y_gh_inverse(PARAMS, y_gh(PARAMS, 2.0)) == pytest.approx(2.0, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_inverse_identity_property(self, z):
        assert y_gh_inverse(PARAMS, y_gh(PARAMS, z)) == pytest.approx(z, abs=1e-8)

    def test_value_below_range_inverts_to_minus_inf(self):
        # With h = 0 the transform is bounded below by -1/g; the generalized
        # inverse of a value under it is -inf, where Phi is 0.
        flat_tail = SeverityParams(alpha=0.0, sigma=1.0, g=1.8, h=0.0)
        assert y_gh_inverse(flat_tail, -1.0) == -math.inf


# ---------------------------------------------------------------------------
# The inverse returns bisection's bits
# ---------------------------------------------------------------------------
SHAPES = [(1.8, 0.15), (1.8, 0.0), (0.5, 0.4), (3.0, 0.9)]


def _inverse_pair(g, h, y):
    params = SeverityParams(alpha=0.0, sigma=1.0, g=g, h=h)
    return y_gh_inverse(params, y), bisect_inverse(g, h, y)


class TestInverseMatchesBisection:
    @pytest.mark.parametrize("measure", [0, 1])
    def test_reference_midpoint_grid(self, reference_context, measure):
        # The points at which compound_fft evaluates the CDF of each measure.
        ctx = reference_context
        disc = build_discretization(ctx.config)
        mids = np.arange(disc.n_atoms) * disc.step + 0.5 * disc.step
        x = np.maximum(mids, 0.0) + ctx.menu.gammas[measure]
        sev = ctx.severity
        y = (x - sev.alpha) / sev.sigma
        ours, reference = _inverse_pair(sev.g, sev.h, y)
        assert np.array_equal(ours, reference)

    @pytest.mark.parametrize("g,h", SHAPES)
    def test_random_values(self, g, h):
        rng = np.random.default_rng(SEED)
        y = np.concatenate(
            [
                rng.normal(0.0, 3.0, 20_000),
                rng.lognormal(0.0, 3.0, 20_000),
                -rng.lognormal(-2.0, 2.0, 5_000),
            ]
        )
        if h == 0.0:
            y = y[y > -1.0 / g]  # the range of Y is (-1/g, inf)
        ours, reference = _inverse_pair(g, h, y)
        assert np.array_equal(ours, reference)

    @pytest.mark.parametrize("g,h", SHAPES)
    def test_lattice_points_and_bracket_ends(self, g, h):
        # Y(z) at these z sits on a bracket end or an exact lattice point,
        # where the snap's strict and non-strict comparisons decide the cell.
        z = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 4.0, 8.0, 0.5])
        y = y_gh(SeverityParams(alpha=0.0, sigma=1.0, g=g, h=h), z)
        y = np.concatenate([y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf)])
        ours, reference = _inverse_pair(g, h, y)
        assert np.array_equal(ours, reference)

    def test_flat_left_tail(self):
        # With h = 0 and z below -8, Y creeps towards -1/g: one float step
        # of Y spans thousands to billions of lattice cells, so Newton cannot
        # place the root and the snap halves its way to bisection's cell.
        g = 1.8
        y = -1.0 / g + np.geomspace(1e-12, 1e-7, 2_000)
        ours, reference = _inverse_pair(g, 0.0, y)
        assert np.array_equal(ours, reference)

    def test_wide_bracket_within_tolerance(self):
        # The bracket reaches 64, so bisection's midpoints are rounded and
        # the results may differ in the last bits.
        g, h = 0.1, 0.01
        y = np.linspace(-5.0, 5e4, 100_001)
        assert y_gh(SeverityParams(alpha=0.0, sigma=1.0, g=g, h=h), 32.0) < y[-1]
        ours, reference = _inverse_pair(g, h, y)
        assert np.abs(ours - reference).max() <= 1e-13


class TestNanInput:
    X = np.array([0.3, np.nan, 5.0, -2.0, np.nan, 40.0])

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: y_gh_inverse(PARAMS, x),
            lambda x: cdf_raw(PARAMS, x),
            lambda x: PARAMS.cdf(x),
            LognormalParams(mu=0.2, s=0.8).cdf,
        ],
        ids=["y_gh_inverse", "cdf_raw", "cdf", "lognormal_cdf"],
    )
    def test_nan_in_nan_out(self, fn):
        nan = np.isnan(self.X)
        out = fn(self.X)
        assert np.isnan(out[nan]).all()
        assert np.array_equal(out[~nan], fn(self.X[~nan]))
        assert math.isnan(fn(math.nan))


# ---------------------------------------------------------------------------
# Raw and truncated CDFs
# ---------------------------------------------------------------------------
class TestCdf:
    def test_raw_at_location(self):
        assert cdf_raw(PARAMS, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_raw_limits(self):
        assert cdf_raw(PARAMS, -1e6) < 1e-12
        assert cdf_raw(PARAMS, 1e6) > 1.0 - 1e-6

    def test_raw_nondecreasing(self):
        x = np.linspace(-50.0, 50.0, 401)
        assert np.all(np.diff(cdf_raw(PARAMS, x)) >= 0)

    def test_truncated_zero_below_origin(self):
        assert PARAMS.cdf(0.0) == 0.0
        assert PARAMS.cdf(-3.0) == 0.0

    def test_truncated_tends_to_one(self):
        assert PARAMS.cdf(1e6) > 1.0 - 1e-6

    def test_quantile_cdf_round_trip(self):
        assert PARAMS.cdf(PARAMS.quantile(0.7)) == pytest.approx(
            0.7, abs=1e-8
        )

    def test_cdf_quantile_round_trip_on_grid(self):
        hi = PARAMS.quantile(0.999)
        for x in np.linspace(0.05, hi, 40):
            u = PARAMS.cdf(x)
            assert PARAMS.quantile(u) == pytest.approx(
                x, abs=1e-6 * max(1.0, x)
            )

    def test_cdf_matches_empirical(self):
        rng = np.random.default_rng(SEED)
        samples = PARAMS.sample(rng.random(1_000_000))
        for x in (0.5, 1.0, 3.0, 10.0):
            p = PARAMS.cdf(x)
            se = math.sqrt(p * (1 - p) / len(samples))
            assert abs((samples <= x).mean() - p) <= 3 * se


# ---------------------------------------------------------------------------
# Quantile and sampling
# ---------------------------------------------------------------------------
class TestQuantile:
    def test_small_u_approaches_zero(self):
        assert PARAMS.quantile(1e-12) == pytest.approx(0.0, abs=1e-6)

    def test_reference_70th_percentile(self):
        assert PARAMS.quantile(0.7) == pytest.approx(GAMMA_70, abs=1e-9)

    def test_rejects_out_of_range(self):
        for law in (PARAMS, LognormalParams(mu=0.2, s=0.8)):
            for u in (0.0, 1.0, -0.1, 1.1):
                with pytest.raises(DomainError, match="strictly inside"):
                    law.quantile(u)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(SEED)
        u = np.sort(rng.uniform(1e-6, 1 - 1e-6, size=2000))
        q = PARAMS.quantile(u)
        assert np.all(np.diff(q) > 0)

    @pytest.mark.parametrize(
        "alpha, sigma, g, h",
        [
            (0.0, 1.0, 1.8, 0.15),
            (0.7, 2.3, 0.5, 0.4),
            (-1.3, 0.37, 3.0, 0.0),
            (2.0, 11.0, 1.1, 0.9),
        ],
    )
    def test_product_order_bits(self, alpha, sigma, g, h):
        # alpha + sigma * core * e, multiplied left to right: scaling the
        # product in another order moves last bits wherever sigma != 1.
        params = SeverityParams(alpha=alpha, sigma=sigma, g=g, h=h)
        u = np.random.default_rng(SEED).random(200_000)
        assert np.array_equal(params.quantile(u), quantile_product(params, u))

    def test_sample_is_quantile_elementwise(self):
        assert PARAMS.sample(np.array([0.5]))[0] == PARAMS.quantile(0.5)

    def test_sample_monotone_in_draws(self):
        rng = np.random.default_rng(SEED)
        u = np.sort(rng.random(1000))
        x = PARAMS.sample(u)
        assert np.all(np.diff(x) >= 0)

    def test_sample_mean_matches_stop_loss_at_zero(self):
        rng = np.random.default_rng(SEED)
        x = PARAMS.sample(rng.random(2_000_000))
        se = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean() - PARAMS.stop_loss(0.0)) <= 3 * se

    def test_kolmogorov_smirnov(self):
        rng = np.random.default_rng(SEED)
        n = 1_000_000
        x = np.sort(PARAMS.sample(rng.random(n)))
        cdf = PARAMS.cdf(x)
        ranks = np.arange(1, n + 1) / n
        d_stat = max(np.abs(cdf - ranks).max(), np.abs(cdf - ranks + 1.0 / n).max())
        assert d_stat < 1.628 / math.sqrt(n)  # 1% critical value


# ---------------------------------------------------------------------------
# Stop-loss expectation (closed form vs oracles)
# ---------------------------------------------------------------------------
class TestStopLoss:
    def test_tail_vanishes(self):
        assert PARAMS.stop_loss(1e6) <= 1e-3

    def test_matches_quadrature(self):
        for gamma in (0.0, PARAMS.quantile(0.5), GAMMA_70):
            closed = PARAMS.stop_loss(gamma)
            quad = stop_loss_quadrature(PARAMS, gamma)
            assert closed == pytest.approx(quad, rel=1e-6)

    @pytest.mark.parametrize(
        "params",
        [
            PARAMS,
            SeverityParams(alpha=0.5, sigma=2.0, g=0.5, h=0.4),
            SeverityParams(alpha=-1.0, sigma=1.0, g=3.0, h=0.1),
            SeverityParams(alpha=1.0, sigma=3.0, g=1.0, h=0.7),
        ],
        ids=["reference", "light-skew", "shifted-left", "h-0.7"],
    )
    def test_bitwise_written_out_expression(self, params):
        # The deductibles 0.5 and 5 and the mitigation's 0.7-quantile of the
        # reference config, then random retentions.
        rng = np.random.default_rng(SEED)
        gammas = [0.0, 0.5, 5.0, PARAMS.quantile(0.7), GAMMA_70, 1e4]
        gammas += rng.uniform(0.0, 50.0, 200).tolist()
        for gamma in gammas:
            assert params.stop_loss(gamma) == stop_loss_expression(params, gamma), gamma

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(SEED)
        x = PARAMS.sample(rng.random(2_000_000))
        excess = np.maximum(x - GAMMA_70, 0.0)
        se = excess.std(ddof=1) / math.sqrt(len(x))
        assert abs(excess.mean() - PARAMS.stop_loss(GAMMA_70)) <= 3 * se

    def test_one_lipschitz_in_retention(self):
        gammas = np.linspace(0.0, 30.0, 61)
        vals = [PARAMS.stop_loss(g) for g in gammas]
        base = vals[0]
        for gamma, val in zip(gammas, vals):
            assert 0.0 <= base - val <= gamma + 1e-12

    def test_nonincreasing_convex(self):
        gammas = np.linspace(0.0, 20.0, 41)
        vals = np.array([PARAMS.stop_loss(g) for g in gammas])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-10)

    def test_rejects_negative_retention(self):
        for law in (PARAMS, LognormalParams(mu=0.2, s=0.8)):
            with pytest.raises(DomainError, match="gamma must be >= 0"):
                law.stop_loss(-0.5)


# ---------------------------------------------------------------------------
# Parameter object invariants
# ---------------------------------------------------------------------------
class TestParams:
    def test_f0_matches_recomputation(self):
        assert PARAMS.f0 == pytest.approx(cdf_raw(PARAMS, 0.0), abs=1e-12)

    def test_immutable(self):
        with pytest.raises(Exception):
            PARAMS.sigma = 2.0  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, sigma=0.0, g=1.8, h=0.15),
            dict(alpha=0.0, sigma=1.0, g=0.0, h=0.15),
            dict(alpha=0.0, sigma=1.0, g=1.8, h=1.0),
            dict(alpha=0.0, sigma=1.0, g=1.8, h=-0.1),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(DomainError):
            SeverityParams(**kwargs)


# ---------------------------------------------------------------------------
# Second moment and log-normal matching
# ---------------------------------------------------------------------------
class TestMomentMatch:
    def test_second_moment_against_independent_integrator(self):
        ours = truncated_second_moment(PARAMS)
        reference = second_moment_mpmath(0.0, 1.0, 1.8, 0.15)
        assert ours == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("h", [0.0, 0.15, 0.3, 0.45, 0.49])
    @pytest.mark.parametrize("g", [1e-3, 0.5, 1.8, 3.0])
    def test_second_moment_closed_form(self, g, h):
        # The second difference of the closed form loses about 2e-16 / g^2.
        rel = 1e-12 if g >= 0.5 else 1e-9
        if 2 * g * g / (1 - 2 * h) > 709:
            with pytest.raises(DomainError, match="second moment overflows"):
                truncated_second_moment(SeverityParams(0.0, 1.0, g, h))
            return
        # At h = 0, Y > -1/g, so with alpha = 1 and g >= 1 every raw variate
        # is positive (f0 = 0, z0 = -inf).
        for alpha in (-1.0, 0.0, 1.0):
            ours = truncated_second_moment(SeverityParams(alpha, 1.0, g, h))
            reference = second_moment_mpmath(alpha, 1.0, g, h)
            assert ours == pytest.approx(reference, rel=rel), alpha

    def test_matched_mean(self):
        matched = lognormal_moment_match(PARAMS)
        assert matched.mean() == pytest.approx(
            PARAMS.stop_loss(0.0), abs=1e-8
        )
        assert matched.s > 0

    def test_matched_variance(self):
        matched = lognormal_moment_match(PARAMS)
        m2 = math.exp(2 * matched.mu + 2 * matched.s**2)
        assert m2 == pytest.approx(truncated_second_moment(PARAMS), rel=1e-6)

    def test_requires_finite_second_moment(self):
        heavy = SeverityParams(alpha=0.0, sigma=1.0, g=1.8, h=0.6)
        with pytest.raises(DomainError):
            lognormal_moment_match(heavy)

    def test_lognormal_stop_loss_vs_quadrature(self):
        matched = lognormal_moment_match(PARAMS)
        for gamma in (0.5, 2.0, 10.0):
            assert matched.stop_loss(gamma) == pytest.approx(
                stop_loss_quadrature(matched, gamma), rel=1e-6
            )

    def test_lognormal_sampling_mean(self):
        params = LognormalParams(mu=0.2, s=0.8)
        rng = np.random.default_rng(SEED)
        x = params.sample(rng.random(1_000_000))
        se = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean() - params.mean()) <= 3 * se


# ---------------------------------------------------------------------------
# The constructors own the domain: an accepted law answers every method
# ---------------------------------------------------------------------------
class TestFlatTailAboveOrigin:
    """h = 0 and alpha >= sigma/g: Y > -1/g, so every raw variate is positive."""

    A, S, G = 1.0, 1.0, 1.8
    EY = (math.exp(G * G / 2) - 1) / G
    EY2 = (math.exp(2 * G * G) - 2 * math.exp(G * G / 2) + 1) / G**2

    @pytest.fixture()
    def law(self):
        return SeverityParams(alpha=self.A, sigma=self.S, g=self.G, h=0.0)

    def test_no_mass_at_or_below_zero(self, law):
        assert law.f0 == 0.0

    def test_moments(self, law):
        assert law.mean() == pytest.approx(self.A + self.S * self.EY, rel=1e-12)
        second = self.A**2 + 2 * self.A * self.S * self.EY + self.S**2 * self.EY2
        assert truncated_second_moment(law) == pytest.approx(second, rel=1e-12)

    def test_cdf(self, law):
        support = self.A - self.S / self.G
        x = np.concatenate([np.linspace(0.0, 40.0, 401), [support, support + 1e-9]])
        inside = x > support
        z = np.log1p(self.G * (x[inside] - self.A) / self.S) / self.G
        expected = np.zeros_like(x)
        expected[inside] = ndtr(z)
        assert np.abs(law.cdf(x) - expected).max() <= 1e-12

    def test_stop_loss_below_support(self, law):
        for gamma in (0.0, 0.1, 0.3, self.A - self.S / self.G):
            assert law.stop_loss(gamma) == pytest.approx(law.mean() - gamma, rel=1e-12)

    def test_moment_match(self, law):
        matched = lognormal_moment_match(law)
        assert matched.mean() == pytest.approx(law.mean(), rel=1e-12)
        m2 = math.exp(2 * matched.mu + 2 * matched.s**2)
        assert m2 == pytest.approx(truncated_second_moment(law), rel=1e-12)


class TestSeverityDomain:
    def test_small_g_returns(self, tmp_path):
        # A bracket of 2^10 needs 2^54 lattice cells for a 1e-13 cell; the
        # lattice stops at 2^53, where cell indices still count exactly. The
        # calls run in a child process, so a hang fails by its timeout.
        code = (
            "import sys, numpy as np\n"
            "from cyberprov.severity import SeverityParams, _y_inverse\n"
            "print(SeverityParams(0, 1, 1e-3, 0).cdf(1000.0))\n"
            "print(SeverityParams(2, 0.5, 1e-3, 0).stop_loss(1e4))\n"
            "y = np.linspace(-0.5, 1e4, 20_001)\n"
            "np.save(sys.argv[1], _y_inverse(1e-3, 0.0, y))\n"
        )
        src = os.path.dirname(os.path.dirname(sys.modules["cyberprov"].__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code, str(tmp_path / "z.npy")],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        cdf, stop_loss = map(float, proc.stdout.split())
        assert cdf == pytest.approx(ndtr(math.log1p(1.0) / 1e-3), abs=1e-12)
        assert 0.0 <= stop_loss < 1e-12
        reference = bisect_inverse(1e-3, 0.0, np.linspace(-0.5, 1e4, 20_001))
        ours = np.load(tmp_path / "z.npy")
        assert np.abs(ours - reference).max() <= 4 * np.spacing(np.abs(reference).max())

    def test_out_of_range_entries_match_oracle(self):
        # Below the range of Y (h = 0: y <= -1/g) the generalized inverse is
        # -inf; the other entries keep bisection's bits.
        g = 1.8
        rng = np.random.default_rng(SEED)
        y = rng.normal(0.0, 3.0, 5_000)
        y[::7] = -1.0 / g - rng.lognormal(0.0, 2.0, y[::7].size)
        y[3] = -np.inf
        ours, reference = _inverse_pair(g, 0.0, y)
        assert np.array_equal(ours, reference)
        assert np.all(ours[y < -1.0 / g] == -np.inf)

    def test_beyond_the_tables_for_tiny_g(self):
        # Y(2^199) is finite only for g below about 1e-57: a y above it
        # inverts to +inf, as one below -1/g inverts to -inf.
        y = np.array([-np.inf, -2e60, -0.5, 1.0, 1e70, np.inf])
        ours, reference = _inverse_pair(1e-60, 0.0, y)
        assert np.array_equal(ours, reference)
        assert ours[[0, 1]].tolist() == [-np.inf] * 2 and ours[[4, 5]].tolist() == [np.inf] * 2

    @pytest.mark.parametrize(
        "make, cause",
        [
            (lambda: SeverityParams(-40.0, 1.0, 0.1, 0.0), "f0 = P.* rounds to 1"),
            (lambda: SeverityParams(0.0, 1.0, 5.0, 0.99), "mean overflows a double"),
            (lambda: LognormalParams(0.0, 40.0), "mean overflows a double"),
        ],
        ids=["no-positive-losses", "g-and-h-mean", "lognormal-mean"],
    )
    def test_constructor_rejects(self, make, cause):
        with pytest.raises(DomainError, match=cause):
            make()

    @settings(max_examples=300, deadline=None)
    @given(
        log_g=st.floats(-5.0, math.log10(5.0)),
        h=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
        alpha=st.floats(-100.0, 100.0),
        log_sigma=st.floats(-2.0, 2.0),
    )
    def test_accepted_laws_answer(self, log_g, h, alpha, log_sigma):
        try:
            law = SeverityParams(alpha, 10.0**log_sigma, 10.0**log_g, h)
        except DomainError:
            return
        cdf = law.cdf(np.linspace(0.0, 1e4, 201))
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.isfinite(law.quantile(np.array([1e-12, 0.3, 0.5, 0.9, 1.0 - 1e-12]))).all()
        assert math.isfinite(law.mean())
        assert math.isfinite(law.stop_loss(1.0))
