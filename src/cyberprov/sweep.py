"""Premium sweeps over contract variants, with CSV and threshold emission.

The aggregate-loss distributions depend only on the severity, frequency,
and mitigation menu, so they are computed once and shared across every
premium grid point and both contract variants. Each variant's contract is
built once and solved in batched backward inductions over consecutive base
premiums; rows keep premium order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from typing import Iterable, Optional

import numpy as np

from .compound import compound_fft, expected_aggregate_loss
from .config import (
    ExperimentConfig,
    VARIANTS,
    build_contract,
    build_discretization,
    build_frequency,
    build_menu,
    build_severity,
)
from .errors import ConfigError
from .solver import PolicySolution, insurer_profit, occupancy_summaries, solve_premiums

__all__ = ["SweepRow", "SweepResult", "SweepContext", "premium_grid", "run_sweep", "write_csv"]

# Fixed CSV column order.
CSV_COLUMNS = (
    "base_premium",
    "V0",
    "retention",
    "years_bm_m2",
    "years_bm_m1",
    "years_bm_0",
    "years_bm_1",
    "years_uninsured",
    "mitigation_years",
    "loss_prevented",
    "insurer_profit",
)
_LEVEL_COLUMNS = {-2: "years_bm_m2", -1: "years_bm_m1", 0: "years_bm_0", 1: "years_bm_1"}
# Premiums per batched solve. The solver's tables grow linearly in the
# batch; this bounds them without giving up the batching.
_BATCH = 128


@dataclass(frozen=True)
class SweepRow:
    base_premium: float
    V0: float
    retention: float
    years_bm_m2: float
    years_bm_m1: float
    years_bm_0: float
    years_bm_1: float
    years_uninsured: float
    mitigation_years: float
    loss_prevented: float
    insurer_profit: float

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class SweepResult:
    variant: str
    rows: list
    regime_changes: list  # [{premium_from, premium_to, before, after}]


def premium_grid(config: ExperimentConfig) -> np.ndarray:
    spec = config.sweep
    lo, hi, step = spec["premium_min"], spec["premium_max"], spec["premium_step"]
    n = int(round((hi - lo) / step)) + 1 if hi > lo else 1
    return np.round(lo + step * np.arange(n), 9)


class SweepContext:
    """Everything premium-independent, shared across grid points."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.severity = build_severity(config)
        self.frequency = build_frequency(config)
        self.menu = build_menu(config, self.severity)
        disc = build_discretization(config)
        self.distributions = {
            d: compound_fft(self.severity, self.frequency, self.menu.gamma(d), disc)
            for d in self.menu.measures
        }
        self.expected_losses = {
            d: expected_aggregate_loss(self.severity, self.frequency, self.menu.gamma(d))
            for d in self.menu.measures
        }
        self.grid_cache: dict = {}


def _row(solution: PolicySolution, premium: float, variant: str) -> SweepRow:
    occ = occupancy_summaries(solution)
    level_years = {
        col: occ.years_by_level.get(level, 0.0) for level, col in _LEVEL_COLUMNS.items()
    }
    row = SweepRow(
        base_premium=premium,
        V0=solution.value,
        retention=occ.retention_rate,
        years_uninsured=occ.years_uninsured,
        mitigation_years=float(occ.mitigation_years[1:].sum()),
        loss_prevented=solution.qoi_total["loss_prevented"],
        insurer_profit=insurer_profit(solution),
        **level_years,
    )
    if not all(map(math.isfinite, row.as_tuple())):
        raise ConfigError(f"sweep: non-finite output at premium {premium} ({variant})")
    return row


def _classify(row: SweepRow, horizon: int) -> dict:
    tol = 1e-9
    if row.retention >= 1.0 - tol:
        retention = "full"
    elif row.retention <= tol:
        retention = "none"
    else:
        retention = "partial"
    if row.mitigation_years >= horizon - tol:
        mitigation = "always"
    elif row.mitigation_years <= tol:
        mitigation = "never"
    else:
        mitigation = "partial"
    return {"retention": retention, "mitigation": mitigation}


def _regime_changes(rows: Iterable[SweepRow], horizon: int) -> list:
    changes = []
    rows = list(rows)
    for prev, cur in zip(rows[:-1], rows[1:]):
        before, after = _classify(prev, horizon), _classify(cur, horizon)
        if before != after:
            changes.append(
                {
                    "premium_from": prev.base_premium,
                    "premium_to": cur.base_premium,
                    "before": before,
                    "after": after,
                }
            )
    return changes


def _format(value: float) -> str:
    # Decimal notation, six significant digits, no scientific form.
    return np.format_float_positional(
        value, precision=6, unique=False, fractional=False, trim="k"
    )


def write_csv(rows: Iterable[SweepRow], path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format(v) for v in row.as_tuple()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_sweep(
    config: ExperimentConfig,
    variants: Iterable[str] = VARIANTS,
    out_dir: Optional[str] = None,
    context: Optional[SweepContext] = None,
) -> dict:
    """Sweep the base premium for each variant; optionally write files.

    Returns ``{variant: SweepResult}``. When ``out_dir`` is given, writes
    ``sweep_<variant>.csv`` and ``thresholds_<variant>.json`` per variant;
    nothing is written unless every grid point solved.
    """
    variants = tuple(variants)
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"variant: expected one of {VARIANTS}, got {variant!r}")
    model = context or SweepContext(config)
    premiums = [float(p) for p in premium_grid(config)]

    out: dict = {}
    for variant in variants:
        contract = build_contract(config, model.menu, premiums[0], variant)
        rows = []
        for start in range(0, len(premiums), _BATCH):
            batch = premiums[start : start + _BATCH]
            solutions = solve_premiums(
                contract, batch, model.distributions, model.expected_losses, model.grid_cache
            )
            rows += [_row(sol, p, variant) for p, sol in zip(batch, solutions)]
        out[variant] = SweepResult(
            variant=variant,
            rows=rows,
            regime_changes=_regime_changes(rows, config.horizon),
        )

    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            for variant in variants:
                write_csv(out[variant].rows, os.path.join(out_dir, f"sweep_{variant}.csv"))
                with open(os.path.join(out_dir, f"thresholds_{variant}.json"), "w") as fh:
                    json.dump(out[variant].regime_changes, fh, indent=2)
                    fh.write("\n")
        except OSError as exc:
            path, reason = exc.filename or out_dir, exc.strerror or exc
            raise ConfigError(f"output_dir: cannot write {path}: {reason}") from None
    return out
