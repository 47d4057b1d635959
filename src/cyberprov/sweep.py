"""Premium sweeps over contract variants, with CSV and threshold emission.

The aggregate-loss distributions depend only on the severity, frequency,
and mitigation menu, so they are computed once and shared across every
premium grid point and both contract variants. Each variant's contract is
built once. The variants differ in their levels, not in their measures,
deductibles or caps, so one :func:`~cyberprov.solver.layer_tables` call
builds the layer tables of all of them, and both variants read that one
set; it goes when the sweep returns. Each contract is solved at every base
premium by one :func:`~cyberprov.solver.solve_premiums` call, whose
iterator batches the premiums itself. The sweep keeps one row per
solution, so only one batch of solutions is alive at a time; rows keep
premium order. The output files appear together or not at all.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from functools import partial
from typing import Iterable, Optional

import numpy as np

from .compound import compound_fft, expected_aggregate_loss
from .config import (
    ExperimentConfig,
    LEVEL_COLUMNS,
    VARIANTS,
    build_contract,
    build_discretization,
    build_frequency,
    build_menu,
    build_severity,
)
from .errors import ConfigError
from .solver import (
    QOI_PREVENTED,
    PolicySolution,
    insurer_profit,
    layer_tables,
    occupancy_summaries,
    solve_premiums,
)

__all__ = ["SweepRow", "SweepResult", "SweepContext", "premium_grid", "run_sweep", "write_csv"]


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


# Fixed CSV column order.
CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class SweepResult:
    variant: str
    rows: list
    regime_changes: list  # [{premium_from, premium_to, before, after}]


def premium_grid(config: ExperimentConfig) -> np.ndarray:
    """``premium_min + k * premium_step`` up to ``premium_max``, to 9 decimals.

    A step that does not divide the range stops below ``premium_max``; the
    tolerance keeps the last point of a range that a step divides up to
    roundoff, as ``7 / 0.005``.
    """
    spec = config.sweep
    lo, hi, step = spec["premium_min"], spec["premium_max"], spec["premium_step"]
    n = math.floor((hi - lo) / step + 1e-9) + 1
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
            d: compound_fft(self.severity, self.frequency, self.menu.gammas[d], disc)
            for d in self.menu.measures
        }
        self.expected_losses = {
            d: expected_aggregate_loss(self.severity, self.frequency, self.menu.gammas[d])
            for d in self.menu.measures
        }


def _row(solution: PolicySolution, variant: str) -> SweepRow:
    premium = solution.contract.base_premium
    occ = occupancy_summaries(solution)
    level_years = {
        col: occ.years_by_level.get(level, 0.0) for level, col in LEVEL_COLUMNS.items()
    }
    row = SweepRow(
        base_premium=premium,
        V0=solution.value,
        retention=occ.retention_rate,
        years_uninsured=occ.years_uninsured,
        mitigation_years=float(occ.mitigation_years[1:].sum()),
        loss_prevented=solution.qoi_total[QOI_PREVENTED],
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

    Returns ``{variant: SweepResult}``. When ``out_dir`` is given, it is
    made before anything is solved, and ``sweep_<variant>.csv`` and
    ``thresholds_<variant>.json`` are written per variant once every grid
    point has solved. Nothing is written if any grid point or any file
    write fails.
    """
    variants = tuple(variants)
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"variant: expected one of {VARIANTS}, got {variant!r}")
    if out_dir is not None:
        with _writing(out_dir):
            os.makedirs(out_dir, exist_ok=True)
    model = context or SweepContext(config)
    premiums = [float(p) for p in premium_grid(config)]

    contracts = {v: build_contract(config, model.menu, premiums[0], v) for v in variants}
    tables = layer_tables(contracts.values(), model.distributions)
    out: dict = {}
    for variant, contract in contracts.items():
        solutions = solve_premiums(
            contract, premiums, model.distributions, model.expected_losses, tables
        )
        rows = [_row(solution, variant) for solution in solutions]
        out[variant] = SweepResult(
            variant=variant,
            rows=rows,
            regime_changes=_regime_changes(rows, config.horizon),
        )

    if out_dir is not None:
        writers = {}
        for v in variants:
            writers[f"sweep_{v}.csv"] = partial(write_csv, out[v].rows)
            writers[f"thresholds_{v}.json"] = partial(_write_json, out[v].regime_changes)
        with _writing(out_dir):
            _write_together(out_dir, writers)
    return out


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_together(out_dir, writers: dict) -> None:
    """Write each file ``name -> write(path)`` under a temporary name in
    ``out_dir`` and move them into place only once all are written. On
    failure the temporaries are removed, so a failed write leaves no file."""
    temps = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in writers}
    try:
        for name, write in writers.items():
            write(temps[name])
        for name, temp in temps.items():
            os.replace(temp, os.path.join(out_dir, name))
    except BaseException:
        for temp in temps.values():
            with suppress(OSError):
                os.remove(temp)
        raise


@contextmanager
def _writing(out_dir):
    """Report a failed file operation in ``out_dir`` as a config error."""
    try:
        yield
    except OSError as exc:
        path, reason = exc.filename or out_dir, exc.strerror or exc
        raise ConfigError(f"output_dir: cannot write {path}: {reason}") from None
