"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Criteria cover the reference experiment's regime thresholds, reported
figure landmarks, oracle equivalences (scenario-tree and Monte Carlo),
the closed-form stop-loss, the aggregate-loss transform sanity bounds,
and robustness across tail-heaviness and a moment-matched log-normal.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from cyberprov.compound import (
    DiscretizationConfig,
    compound_fft,
    expected_aggregate_loss,
)
from cyberprov.config import (
    build_contract,
    build_discretization,
    build_frequency,
    build_menu,
    build_severity,
    emit_experiment_defaults,
    validate_config,
)
from cyberprov.severity import (
    SeverityParams,
    lognormal_moment_match,
)
from cyberprov.simulate import SimulationConfig, simulate
from cyberprov.solver import solve
from cyberprov.sweep import run_sweep
from oracles import (
    compound_poisson_samples,
    random_tiny_instance,
    stop_loss_quadrature,
    tree_optimal_value,
)

RETENTION_TOL = 1e-9
EDGE_TOL = 0.015  # three sweep grid steps


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {verdict}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def flat_sweep(reference_context):
    start = time.time()
    ctx = reference_context
    result = run_sweep(ctx.config, variants=("flat",), context=ctx)
    return result["flat"].rows, time.time() - start


@pytest.fixture(scope="module")
def bm_sweep(reference_context):
    ctx = reference_context
    result = run_sweep(ctx.config, variants=("bm",), context=ctx)
    return result["bm"].rows


def _row_at(rows, premium):
    return next(r for r in rows if abs(r.base_premium - premium) < 1e-9)


def test_criterion_1_flat_moral_hazard_threshold(flat_sweep):
    rows, elapsed = flat_sweep
    switch = next(
        r.base_premium
        for r in rows
        if r.base_premium > 1.0 and r.retention <= RETENTION_TOL
    )
    below = _row_at(rows, round(switch - 0.005, 9))
    above = _row_at(rows, switch)
    regimes_ok = (
        below.retention >= 1 - RETENTION_TOL
        and abs(below.mitigation_years - 1.0) < 1e-6
        and above.retention <= RETENTION_TOL
        and abs(above.mitigation_years - 20.0) < 1e-6
    )
    _report(
        1,
        4.400 <= switch <= 4.425 and regimes_ok and elapsed < 300.0,
        f"switch at {switch:.3f} (target window [4.400, 4.425]), "
        f"insure/mitigate-final-year below vs never-insure/always-mitigate "
        f"above, 1401-point sweep in {elapsed:.0f}s",
    )


def test_criterion_2_bonus_malus_regime_bands(bm_sweep):
    rows = bm_sweep
    full = [
        r.base_premium
        for r in rows
        if r.retention >= 1 - RETENTION_TOL and r.mitigation_years >= 20 - 1e-9
    ]
    partial = [
        r.base_premium
        for r in rows
        if RETENTION_TOL < r.retention < 1 - RETENTION_TOL
    ]
    zero_from = min(
        r.base_premium
        for r in rows
        if r.base_premium > max(partial) and r.retention <= RETENTION_TOL
    )
    edges = {
        "full_lo": (min(full), 4.495),
        "full_hi": (max(full), 4.930),
        "partial_lo": (min(partial), 4.935),
        "partial_hi": (max(partial), 5.050),
        "zero_from": (zero_from, 5.055),
    }
    ok = all(abs(got - want) <= EDGE_TOL for got, want in edges.values())
    detail = ", ".join(
        f"{name} {got:.3f} (ref {want:.3f})" for name, (got, want) in edges.items()
    )
    _report(2, ok, detail)


def test_criterion_3_loss_prevented_levels(flat_sweep, bm_sweep):
    flat_rows, _ = flat_sweep
    always = _row_at(bm_sweep, 4.70).loss_prevented
    always_flat = _row_at(flat_rows, 5.00).loss_prevented
    final_year_only = _row_at(flat_rows, 4.40).loss_prevented
    ok = (
        abs(always - 17.183) / 17.183 <= 5e-3
        and abs(always_flat - 17.183) / 17.183 <= 5e-3
        and abs(final_year_only - 0.505) / 0.505 <= 5e-3
    )
    _report(
        3,
        ok,
        f"always-mitigate {always:.4f} / {always_flat:.4f} (ref 17.183), "
        f"final-year-only {final_year_only:.4f} (ref 0.505), rel tol 0.5%",
    )


def test_criterion_4_insurer_profit_landmarks(flat_sweep, bm_sweep):
    flat_rows, _ = flat_sweep
    landmarks = {
        "flat@4.410": (_row_at(flat_rows, 4.410).insurer_profit, -10.510),
        "bm@4.930": (_row_at(bm_sweep, 4.930).insurer_profit, -0.860),
        "bm@5.050": (_row_at(bm_sweep, 5.050).insurer_profit, -0.006),
    }
    ok = all(abs(got - want) <= 0.02 for got, want in landmarks.values())
    detail = ", ".join(
        f"{name} {got:+.4f} (ref {want:+.3f})"
        for name, (got, want) in landmarks.items()
    )
    _report(4, ok, detail + ", abs tol 0.02")


def test_criterion_5_scenario_tree_equivalence():
    rng = np.random.default_rng(20250810)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        contract, dists, els, atoms, probs = random_tiny_instance(rng)
        solution = solve(contract, dists, els)
        tree_value, _, _ = tree_optimal_value(contract, atoms, probs)
        worst = max(worst, abs(solution.value - tree_value))
    elapsed = time.time() - start
    _report(
        5,
        worst <= 1e-9 and elapsed < 60.0,
        f"50 random tiny instances, max |V_dp - V_tree| = {worst:.2e} "
        f"(tol 1e-9) in {elapsed:.1f}s",
    )


def test_criterion_6_monte_carlo_consistency(reference_context):
    ctx = reference_context
    config = ctx.config
    contract = build_contract(config, ctx.menu, 4.70, "bm")
    solution = solve(contract, ctx.distributions, ctx.expected_losses)
    mc = config.mc
    result = simulate(
        solution,
        ctx.severity,
        ctx.frequency,
        SimulationConfig(n_paths=int(mc["n_paths"]), seed=int(mc["seed"])),
    )
    diff = result.mean - solution.value
    bound = max(3 * result.std_error, 5e-3 * solution.value)
    worst_cell = 0.0
    for t in range(1, contract.horizon + 1):
        p = solution.marginals[t]
        emp = result.state_frequency[t]
        se = np.sqrt(np.maximum(p * (1 - p), 0.0) / result.n_paths)
        live = se > 0
        worst_cell = max(worst_cell, float(np.max(np.abs(emp - p)[live] / se[live])))
        if np.any(emp[~live] != p[~live]):
            worst_cell = math.inf
    ok = abs(diff) <= bound and worst_cell <= 3.0
    _report(
        6,
        ok,
        f"1e6 paths: MC {result.mean:.4f} vs V0 {solution.value:.4f} "
        f"(|diff| {abs(diff):.4f} <= {bound:.4f}), worst state-frequency "
        f"z = {worst_cell:.2f} (<= 3)",
    )


def test_criterion_7_stop_loss_closed_form():
    params = SeverityParams(alpha=0.0, sigma=1.0, g=1.8, h=0.15)
    gammas = {
        "0": 0.0,
        "q50": params.quantile(0.5),
        "q70": params.quantile(0.7),
        "q95": params.quantile(0.95),
    }
    rng = np.random.default_rng(77)
    samples = params.sample(rng.random(10_000_000))
    worst_rel, worst_z = 0.0, 0.0
    for gamma in gammas.values():
        closed = params.stop_loss(gamma)
        quad = stop_loss_quadrature(params, gamma)
        worst_rel = max(worst_rel, abs(closed - quad) / quad)
        excess = np.maximum(samples - gamma, 0.0)
        se = excess.std(ddof=1) / math.sqrt(len(excess))
        worst_z = max(worst_z, abs(excess.mean() - closed) / se)
    ok = worst_rel <= 1e-6 and worst_z <= 3.0
    _report(
        7,
        ok,
        f"four retentions: max rel gap vs quadrature {worst_rel:.2e} (<= 1e-6), "
        f"max |z| vs 1e7-sample MC {worst_z:.2f} (<= 3)",
    )


def test_criterion_8_transform_sanity(reference_context):
    ctx = reference_context
    severity, frequency, menu = ctx.severity, ctx.frequency, ctx.menu
    checks = []
    # Mass and nonnegativity on the reference grid.
    for d in menu.measures:
        dist = ctx.distributions[d]
        checks.append(dist.probs.min() >= 0.0)
        checks.append(abs(dist.probs.sum() - 1.0) <= 1e-6)
    # Mean identity where the grid truncation supports the tolerance.
    wide = DiscretizationConfig(l_bar=200_000.0, k_gr=21, theta=10.0 / 2**21)
    rels = []
    for d in menu.measures:
        dist = compound_fft(severity, frequency, menu.gamma(d), wide)
        wald = expected_aggregate_loss(severity, frequency, menu.gamma(d))
        rels.append(abs(dist.mean() - wald) / wald)
        checks.append(rels[-1] <= 1e-3)
    # Decile CDF agreement with forward Monte Carlo on the reference grid.
    worst_z = 0.0
    for d, seed in zip(menu.measures, (101, 102)):
        dist = ctx.distributions[d]
        mitigated = _MitigatedSeverity(severity, menu.gamma(d))
        samples = compound_poisson_samples(mitigated, frequency.rate, 1_000_000, seed)
        cum = np.cumsum(dist.probs)
        for q in (0.5, 0.6, 0.7, 0.8, 0.9):
            x = dist.atoms[np.searchsorted(cum, q)]
            grid_p = float(dist.cdf(x))
            emp = float((samples <= x).mean())
            se = math.sqrt(grid_p * (1 - grid_p) / len(samples))
            worst_z = max(worst_z, abs(emp - grid_p) / se)
    checks.append(worst_z <= 3.0)
    _report(
        8,
        all(checks),
        f"mass/nonnegativity on reference grid ok, mean identity rel "
        f"{max(rels):.2e} (<= 1e-3, wide grid), decile |z| vs MC "
        f"{worst_z:.2f} (<= 3)",
    )


class _MitigatedSeverity:
    """Severity clipped by a fixed reduction, for forward simulation."""

    def __init__(self, severity, gamma):
        self.severity = severity
        self.gamma = gamma

    def sample(self, draws):
        return np.maximum(self.severity.sample(draws) - self.gamma, 0.0)


def test_criterion_9_robustness_variants():
    # Qualitative replication: with a different tail parameter, or the
    # moment-matched log-normal, a band of premiums must exist where cover
    # is kept every year and the measure is adopted in (nearly) every
    # expected policy-year, and retention must fall as the premium rises.
    # "Nearly" is taken as at least 95% of expected years: the knife-edge
    # state-by-state unanimity of the reference setting is allowed to
    # soften without changing the picture.
    outcomes = []
    for label, severity_doc in (
        ("h=0.10", {"family": "truncated_g_and_h", "alpha": 0.0, "sigma": 1.0, "g": 1.8, "h": 0.10}),
        ("h=0.20", {"family": "truncated_g_and_h", "alpha": 0.0, "sigma": 1.0, "g": 1.8, "h": 0.20}),
        ("h=0.25", {"family": "truncated_g_and_h", "alpha": 0.0, "sigma": 1.0, "g": 1.8, "h": 0.25}),
        ("lognormal", {"family": "lognormal_matched", "alpha": 0.0, "sigma": 1.0, "g": 1.8, "h": 0.15}),
    ):
        doc = emit_experiment_defaults().to_dict()
        doc["severity"] = severity_doc
        # Centre the sweep on the expected-loss scale of the variant.
        severity = build_severity(validate_config(doc))
        mean_loss = 0.8 * severity.mean()
        doc["sweep"] = {
            "premium_min": round(0.55 * mean_loss, 3),
            "premium_max": round(1.05 * mean_loss, 3),
            "premium_step": 0.01,
        }
        config = validate_config(doc)
        rows = run_sweep(config, variants=("bm",))["bm"].rows
        horizon = config.horizon
        full_band = [
            r.base_premium
            for r in rows
            if r.retention >= 1 - RETENTION_TOL
            and r.mitigation_years >= 0.95 * horizon
        ]
        retention = np.array([r.retention for r in rows])
        nonincreasing = bool(np.all(np.diff(retention) <= 1e-9))
        outcomes.append(
            (label, len(full_band) > 0, nonincreasing, len(full_band))
        )
    ok = all(band and mono for _, band, mono, _ in outcomes)
    detail = "; ".join(
        f"{label}: full-retention+mitigation band "
        f"{'present' if band else 'absent'} ({count} grid points), retention "
        f"{'monotone' if mono else 'NOT monotone'}"
        for label, band, mono, count in outcomes
    )
    _report(9, ok, detail)
