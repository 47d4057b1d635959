"""Experiment configuration: JSON schema, validation, and defaults.

A configuration is a plain JSON document with a ``schema_version`` field.
Schedules are stored materialized (per-year arrays), never as formulas, so
the solver stays contract-agnostic. Mitigation reductions may be given as
absolute amounts or as severity quantiles (resolved against the configured
severity model at build time).

Two contract variants are built from one configuration: the experience-
rated contract ("bm") and a flat baseline ("flat") with a single level 0
charging the base premium, everything else identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .compound import DiscretizationConfig, FrequencyModel
from .contract import (
    STATUS_NO,
    STATUS_ON,
    BonusMalusRule,
    ContractSchedules,
    ContractSpec,
    MitigationMenu,
    contract_statuses,
    off_status,
)
from .errors import ConfigError, DomainError
from .severity import LognormalParams, SeverityParams, lognormal_moment_match

__all__ = [
    "ExperimentConfig",
    "emit_experiment_defaults",
    "load_config",
    "save_config",
    "validate_config",
    "build_severity",
    "build_frequency",
    "build_menu",
    "build_discretization",
    "build_contract",
]

SCHEMA_VERSION = 1
VARIANTS = ("bm", "flat")


@dataclass
class ExperimentConfig:
    """Validated experiment configuration (mirror of the JSON document)."""

    horizon: int
    discount_factor: float
    severity: dict
    frequency: dict
    mitigation: list
    contract: dict
    discretization: dict
    sweep: dict
    mc: dict = field(default_factory=dict)
    output_dir: str = "results"
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)


def _require(mapping: dict, key: str, ctx: str) -> Any:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{ctx}: expected an object, got {mapping!r}")
    if key not in mapping:
        raise ConfigError(f"{ctx}.{key}: missing required field")
    return mapping[key]


def _build(where: str, make):
    """Run ``make``, reporting a rejection of its input as a config error."""
    try:
        return make()
    except (ArithmeticError, DomainError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _num(mapping: dict, key: str, ctx: str, kind=float):
    value = _require(mapping, key, ctx)
    number = _build(f"{ctx}.{key}", lambda: float(value))
    if not math.isfinite(number) or (kind is int and not number.is_integer()):
        raise ConfigError(f"{ctx}.{key}: not a finite {kind.__name__}: {value!r}")
    return kind(number)


_SEVERITY_KEYS = {
    "truncated_g_and_h": ("alpha", "sigma", "g", "h"),
    "lognormal": ("mu", "s"),
    "lognormal_matched": ("alpha", "sigma", "g", "h"),
}


def validate_config(doc: dict) -> ExperimentConfig:
    """Validate a raw JSON document; error messages name the bad field.

    After the structural checks the severity, frequency, menu, grid and
    both contract variants (at any base premium: it only scales them) are
    built, so the builders' own checks apply as well: a config that
    validates is one that ``solve`` and ``mc-check`` can build.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config: document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    horizon = _num(doc, "horizon", "config", int)
    if horizon < 1:
        raise ConfigError(f"horizon: must be >= 1, got {horizon}")
    discount = _num(doc, "discount_factor", "config")
    if not 0 < discount <= 1:
        raise ConfigError(f"discount_factor: must lie in (0, 1], got {discount}")

    severity = _require(doc, "severity", "config")
    family = _require(severity, "family", "severity")
    if family not in _SEVERITY_KEYS:
        raise ConfigError(f"severity.family: unknown family {family!r}")
    for key in _SEVERITY_KEYS[family]:
        _num(severity, key, "severity")
    if family == "truncated_g_and_h" and not 0 <= float(severity["h"]) < 1:
        raise ConfigError(f"severity.h: must lie in [0, 1), got {severity['h']}")

    frequency = _require(doc, "frequency", "config")
    if _require(frequency, "kind", "frequency") != "poisson":
        raise ConfigError("frequency.kind: only 'poisson' is supported")
    _num(frequency, "rate", "frequency")

    mitigation = _require(doc, "mitigation", "config")
    if not isinstance(mitigation, list) or not mitigation:
        raise ConfigError("mitigation: must be a nonempty list of measures")
    for k, measure in enumerate(mitigation):
        _require(measure, "beta", f"mitigation[{k}]")
        gamma = _require(measure, "gamma", f"mitigation[{k}]")
        if isinstance(gamma, dict):
            _require(gamma, "quantile", f"mitigation[{k}].gamma")
    if mitigation[0]["beta"] not in (0, 0.0) or mitigation[0]["gamma"] not in (0, 0.0):
        raise ConfigError("mitigation[0]: must be the null measure (beta=gamma=0)")

    contract = _require(doc, "contract", "config")
    raw_levels = _require(contract, "levels", "contract")
    levels = _build("contract.levels", lambda: [int(b) for b in raw_levels])
    if sorted(set(levels)) != levels or 0 not in levels:
        raise ConfigError("contract.levels: must be strictly increasing and contain 0")
    claim = _require(contract, "claim_transition", "contract")
    inactive = _require(contract, "inactive_transition", "contract")
    multipliers = _require(contract, "premium_multipliers", "contract")
    for b in levels:
        entry = _require(claim, str(b), "contract.claim_transition")
        _require(entry, "zero", f"contract.claim_transition.{b}")
        pieces = _require(entry, "pieces", f"contract.claim_transition.{b}")
        where = f"contract.claim_transition.{b}.pieces"
        if _build(where, lambda: float(pieces[0][0])) != 0.0:
            raise ConfigError(
                f"contract.claim_transition.{b}.pieces: first threshold must be 0"
            )
        entry = _require(inactive, str(b), "contract.inactive_transition")
        _require(entry, "on", f"contract.inactive_transition.{b}")
        _require(entry, "off", f"contract.inactive_transition.{b}")
        for status, target in entry.items():
            where = f"contract.inactive_transition.{b}.{status}"
            pair = isinstance(target, list) and len(target) == 2
            if not pair or not isinstance(target[1], str):
                raise ConfigError(f"{where}: expected [level, status], got {target!r}")
            _build(where, lambda: int(target[0]))
        _require(multipliers, str(b), "contract.premium_multipliers")
    for key in ("deductible", "fee_in", "fee_out"):
        arr = _require(contract, key, "contract")
        if not isinstance(arr, list) or len(arr) != horizon:
            raise ConfigError(f"contract.{key}: needs one entry per year")
    _require(contract, "max_compensation", "contract")
    _require(contract, "fee_re", "contract")

    discretization = _require(doc, "discretization", "config")
    _require(discretization, "l_bar", "discretization")
    _num(discretization, "k_gr", "discretization", int)

    sweep = _require(doc, "sweep", "config")
    lo = _num(sweep, "premium_min", "sweep")
    hi = _num(sweep, "premium_max", "sweep")
    step = _num(sweep, "premium_step", "sweep")
    if step <= 0:
        raise ConfigError(f"sweep.premium_step: must be > 0, got {step}")
    if not 0 <= lo <= hi:
        raise ConfigError(f"sweep.premium_min: must lie in [0, premium_max], got {lo}")

    mc = doc.get("mc", {})
    if mc:
        if _num(mc, "n_paths", "mc", int) < 1:
            raise ConfigError("mc.n_paths: must be >= 1")
        _require(mc, "seed", "mc")
        if _num(mc, "base_premium", "mc") < 0:
            raise ConfigError("mc.base_premium: must be >= 0")

    config = ExperimentConfig(
        horizon=horizon,
        discount_factor=discount,
        severity=dict(severity),
        frequency=dict(frequency),
        mitigation=[dict(m) for m in mitigation],
        contract=dict(contract),
        discretization=dict(discretization),
        sweep=dict(sweep),
        mc=dict(mc),
        output_dir=str(doc.get("output_dir", "results")),
    )
    model = _build("severity", lambda: build_severity(config))
    menu = _build("mitigation", lambda: build_menu(config, model))
    _build("frequency", lambda: build_frequency(config))
    _build("discretization", lambda: build_discretization(config))
    for variant in VARIANTS:
        _build(
            f"contract ({variant} variant)",
            lambda: build_contract(config, menu, lo, variant),
        )
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return validate_config(doc)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")


def _g_and_h(spec: dict) -> SeverityParams:
    return SeverityParams(*(float(spec[key]) for key in ("alpha", "sigma", "g", "h")))


def build_severity(config: ExperimentConfig):
    """Instantiate the configured severity model."""
    spec = config.severity
    family = spec["family"]
    if family == "truncated_g_and_h":
        return _g_and_h(spec)
    if family == "lognormal":
        return LognormalParams(mu=float(spec["mu"]), s=float(spec["s"]))
    if family == "lognormal_matched":
        return lognormal_moment_match(_g_and_h(spec))
    raise ConfigError(f"severity.family: unknown family {family!r}")


def build_frequency(config: ExperimentConfig) -> FrequencyModel:
    return FrequencyModel(rate=float(config.frequency["rate"]))


def build_menu(config: ExperimentConfig, severity) -> MitigationMenu:
    """Resolve quantile-specified reductions into loss units.

    A mitigation measure clips each event by a fixed amount of loss; when
    the severity is the moment-matched log-normal, quantile reductions
    still resolve against the underlying heavy-tailed model, so swapping
    the fitted law does not quietly change the mitigation technology.
    """
    anchor = severity
    if config.severity["family"] == "lognormal_matched":
        anchor = _g_and_h(config.severity)
    betas, gammas = [], []
    for measure in config.mitigation:
        betas.append(float(measure["beta"]))
        gamma = measure["gamma"]
        if isinstance(gamma, dict):
            gammas.append(float(anchor.quantile(float(gamma["quantile"]))))
        else:
            gammas.append(float(gamma))
    return MitigationMenu(betas=tuple(betas), gammas=tuple(gammas))


def build_discretization(config: ExperimentConfig) -> DiscretizationConfig:
    spec = config.discretization
    return DiscretizationConfig(
        l_bar=float(spec["l_bar"]),
        k_gr=int(spec["k_gr"]),
        theta=spec.get("theta"),
    )


def build_contract(
    config: ExperimentConfig,
    menu: MitigationMenu,
    base_premium: float,
    variant: str = "bm",
) -> ContractSpec:
    """Materialize the contract for one variant and base premium.

    The premium schedule holds the level multipliers. The flat variant
    collapses the level set to {0} with multiplier one; deductibles, caps,
    and fees are shared between variants.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant: expected one of {VARIANTS}, got {variant!r}")
    T = config.horizon
    raw = config.contract
    statuses = contract_statuses(T)

    if variant == "bm":
        levels = tuple(int(b) for b in raw["levels"])
        zero_claim = {b: int(raw["claim_transition"][str(b)]["zero"]) for b in levels}
        pieces = {
            b: tuple(
                (float(thr), int(lvl))
                for thr, lvl in raw["claim_transition"][str(b)]["pieces"]
            )
            for b in levels
        }
        multipliers = {b: float(raw["premium_multipliers"][str(b)]) for b in levels}
        inactive_doc = {b: raw["inactive_transition"][str(b)] for b in levels}
    else:
        levels = (0,)
        zero_claim = {0: 0}
        pieces = {0: ((0.0, 0),)}
        multipliers = {0: 1.0}
        inactive_doc = {0: {"on": [0, off_status(1)], "off": [0, off_status(1)]}}

    inactive = {}
    for b in levels:
        entry = inactive_doc[b]
        for status in statuses:
            if status == STATUS_NO:
                continue
            if status == STATUS_ON:
                target = entry["on"]
            else:
                target = entry.get(status, entry["off"])
            inactive[(b, status)] = (int(target[0]), str(target[1]))

    rule = BonusMalusRule(
        levels=levels,
        statuses=statuses,
        zero_claim=zero_claim,
        pieces=pieces,
        inactive=inactive,
    )
    premium = np.array([[multipliers[b]] * T for b in levels])
    deductible = np.tile(np.asarray(raw["deductible"], dtype=float), (len(levels), 1))
    max_comp = np.full((len(levels), T), float(raw["max_compensation"]))
    schedules = ContractSchedules(
        levels=levels,
        horizon=T,
        premium=premium,
        deductible=deductible,
        max_comp=max_comp,
        fee_in=np.asarray(raw["fee_in"], dtype=float),
        fee_out=np.asarray(raw["fee_out"], dtype=float),
        fee_re=float(raw["fee_re"]),
        discount_factor=config.discount_factor,
    )
    return ContractSpec(rule, schedules, menu, base_premium)


def emit_experiment_defaults() -> ExperimentConfig:
    """The reference experiment: 20-year policy, Poisson(0.8) frequency,
    truncated g-and-h(0, 1, 1.8, 0.15) severity, one mitigation measure
    costing 0.5 that clips events at the severity's 70th percentile, four
    experience levels with premium multipliers 0.6/0.8/1.0/1.5, cap 1000,
    deductible 0.5 (5 in the final year), a sign-on fee ramping up after
    year 16, a withdrawal penalty growing from 3 to 8, re-activation fee 3,
    and a base-premium sweep over [0, 7] in steps of 0.005.
    """
    T = 20
    doc = {
        "schema_version": SCHEMA_VERSION,
        "horizon": T,
        "discount_factor": 0.95,
        "severity": {
            "family": "truncated_g_and_h",
            "alpha": 0.0,
            "sigma": 1.0,
            "g": 1.8,
            "h": 0.15,
        },
        "frequency": {"kind": "poisson", "rate": 0.8},
        "mitigation": [
            {"beta": 0.0, "gamma": 0.0},
            {"beta": 0.5, "gamma": {"quantile": 0.7}},
        ],
        "contract": {
            "levels": [-2, -1, 0, 1],
            "claim_transition": {
                "-2": {"zero": -2, "pieces": [[0.0, 1]]},
                "-1": {"zero": -2, "pieces": [[0.0, 1]]},
                "0": {"zero": -1, "pieces": [[0.0, 1]]},
                "1": {"zero": 0, "pieces": [[0.0, 1]]},
            },
            "inactive_transition": {
                "-2": {"on": [-2, "off_1"], "off": [-1, "off_1"]},
                "-1": {"on": [-1, "off_1"], "off": [0, "off_1"]},
                "0": {"on": [0, "off_1"], "off": [0, "off_1"]},
                "1": {"on": [1, "off_1"], "off": [0, "off_1"]},
            },
            "premium_multipliers": {"-2": 0.6, "-1": 0.8, "0": 1.0, "1": 1.5},
            "deductible": [0.5] * (T - 1) + [5.0],
            "max_compensation": 1000.0,
            "fee_in": [0.75 * max(t - 16, 0) for t in range(1, T + 1)],
            "fee_out": [3.0 + 5.0 / 19.0 * (t - 1) for t in range(1, T + 1)],
            "fee_re": 3.0,
        },
        "discretization": {"l_bar": 10000.0, "k_gr": 20, "theta": 20.0 / 2**20},
        "sweep": {"premium_min": 0.0, "premium_max": 7.0, "premium_step": 0.005},
        "mc": {"n_paths": 1_000_000, "seed": 20240601, "base_premium": 4.70},
        "output_dir": "results",
    }
    return validate_config(doc)
