"""Experiment configuration: JSON schema, validation, and defaults.

A configuration is a plain JSON document with a ``schema_version`` field.
Schedules are stored materialized (per-year arrays), never as formulas, so
the solver stays contract-agnostic. Mitigation reductions may be given as
absolute amounts or as severity quantiles (resolved against the configured
severity model at build time).

Two contract variants are built from one configuration: the experience-
rated contract ("bm") and a flat baseline ("flat") with a single level 0
charging the base premium, everything else identical.

Each ``build_*`` function is the one reader of its section, and
``validate_config`` runs them all. Numbers must be finite, except that the
cap may be infinite, and the per-level contract maps take no key that is
not a level. Errors begin with the field's path, as in ``horizon``,
``contract.premium_multipliers.0``, ``contract.deductible[3]``.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import asdict, dataclass, field

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


def _path(ctx: str, key) -> str:
    if isinstance(key, int):
        return f"{ctx}[{key}]"
    return f"{ctx}.{key}" if ctx else key


def _require(container, key, ctx: str = ""):
    """``container[key]``: a dict field (str key) or a list entry (int key)."""
    kind = list if isinstance(key, int) else dict
    if not isinstance(container, kind):
        expected = "a list" if kind is list else "an object"
        raise ConfigError(f"{ctx}: expected {expected}, got {container!r}")
    if key not in container if kind is dict else key >= len(container):
        raise ConfigError(f"{_path(ctx, key)}: missing required field")
    return container[key]


def _list(container, key, ctx: str, length: int | None = None) -> list:
    value = _require(container, key, ctx)
    if not isinstance(value, list):
        raise ConfigError(f"{_path(ctx, key)}: expected a list, got {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{_path(ctx, key)}: expected {length} entries, got {len(value)}")
    return value


def _num(container, key, ctx: str = "", kind=float, lo=None, inf_ok=False):
    """A checked number: finite (or infinite, if ``inf_ok``), integral for
    ``kind=int`` and ``>= lo`` when given. A JSON integer read as an int
    stays exact."""
    value = _require(container, key, ctx)
    where = _path(ctx, key)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if kind is int and isinstance(value, numbers.Integral):
        number = int(value)
    else:
        number = _build(where, lambda: float(value))
        if math.isnan(number) or math.isinf(number) and not inf_ok:
            raise ConfigError(f"{where}: not a finite number: {value!r}")
        if kind is int and not number.is_integer():
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        number = kind(number)
    if lo is not None and number < lo:
        raise ConfigError(f"{where}: must be >= {lo}, got {value!r}")
    return number


def _build(where: str, make):
    """Run ``make``, reporting a rejection of its input as a config error."""
    try:
        return make()
    except (ArithmeticError, DomainError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


_SECTIONS = ("severity", "frequency", "mitigation", "contract", "discretization")


def validate_config(doc: dict) -> ExperimentConfig:
    """Validate a raw JSON document; error messages name the bad field.

    Checks the document-level fields, then builds the severity, frequency,
    menu, grid and both contract variants (at any base premium: it only
    scales them), each builder reading its own section: a config that
    validates is one that ``solve`` and ``mc-check`` can build.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config: document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    horizon = _num(doc, "horizon", kind=int, lo=1)
    discount = _num(doc, "discount_factor")
    if not 0 < discount <= 1:
        raise ConfigError(f"discount_factor: must lie in (0, 1], got {discount}")

    sweep = _require(doc, "sweep")
    lo = _num(sweep, "premium_min", "sweep", lo=0.0)
    hi = _num(sweep, "premium_max", "sweep", lo=0.0)
    step = _num(sweep, "premium_step", "sweep")
    if step <= 0:
        raise ConfigError(f"sweep.premium_step: must be > 0, got {step}")
    if lo > hi:
        raise ConfigError(f"sweep.premium_min: must lie in [0, premium_max], got {lo}")

    mc = doc.get("mc") or {}
    if mc:
        _num(mc, "n_paths", "mc", int, lo=1)
        _num(mc, "seed", "mc", int)
        _num(mc, "base_premium", "mc", lo=0.0)
    output_dir = doc.get("output_dir", "results")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {output_dir!r}")

    config = ExperimentConfig(
        horizon=horizon,
        discount_factor=discount,
        **{name: copy.deepcopy(_require(doc, name)) for name in _SECTIONS},
        sweep=dict(sweep),
        mc=dict(mc),
        output_dir=output_dir,
    )
    model = _build("severity", lambda: build_severity(config))
    menu = _build("mitigation", lambda: build_menu(config, model))
    _build("frequency", lambda: build_frequency(config))
    _build("discretization", lambda: build_discretization(config))
    for variant in VARIANTS:
        where = f"contract ({variant} variant)"
        _build(where, lambda: build_contract(config, menu, lo, variant))
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer of > 4300 digits
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror or exc}") from None
    return validate_config(doc)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")


def _g_and_h(spec: dict) -> SeverityParams:
    alpha, sigma, g, h = (_num(spec, k, "severity") for k in ("alpha", "sigma", "g", "h"))
    if not 0 <= h < 1:
        raise ConfigError(f"severity.h: must lie in [0, 1), got {h}")
    return SeverityParams(alpha, sigma, g, h)


def build_severity(config: ExperimentConfig):
    """Instantiate the configured severity model."""
    spec = config.severity
    family = _require(spec, "family", "severity")
    if family == "truncated_g_and_h":
        return _g_and_h(spec)
    if family == "lognormal":
        return LognormalParams(_num(spec, "mu", "severity"), _num(spec, "s", "severity"))
    if family == "lognormal_matched":
        return lognormal_moment_match(_g_and_h(spec))
    raise ConfigError(f"severity.family: unknown family {family!r}")


def build_frequency(config: ExperimentConfig) -> FrequencyModel:
    spec = config.frequency
    if _require(spec, "kind", "frequency") != "poisson":
        raise ConfigError("frequency.kind: only 'poisson' is supported")
    return FrequencyModel(rate=_num(spec, "rate", "frequency", lo=0.0))


def build_menu(config: ExperimentConfig, severity) -> MitigationMenu:
    """Resolve quantile-specified reductions into loss units.

    A mitigation measure clips each event by a fixed amount of loss; when
    the severity is the moment-matched log-normal, quantile reductions
    still resolve against the underlying heavy-tailed model, so swapping
    the fitted law does not quietly change the mitigation technology.
    """
    matched = _require(config.severity, "family", "severity") == "lognormal_matched"
    anchor = _g_and_h(config.severity) if matched else severity
    measures = config.mitigation
    if not isinstance(measures, list) or not measures:
        raise ConfigError("mitigation: must be a nonempty list of measures")
    betas, gammas = [], []
    for k, measure in enumerate(measures):
        where = f"mitigation[{k}]"
        betas.append(_num(measure, "beta", where, lo=0.0))
        gamma = _require(measure, "gamma", where)
        if isinstance(gamma, dict):
            at = f"{where}.gamma"
            u = _num(gamma, "quantile", at)
            gammas.append(_build(f"{at}.quantile", lambda: float(anchor.quantile(u))))
        else:
            gammas.append(_num(measure, "gamma", where, lo=0.0))
    if betas[0] != 0.0 or gammas[0] != 0.0:
        raise ConfigError("mitigation[0]: must be the null measure (beta=gamma=0)")
    return MitigationMenu(betas=tuple(betas), gammas=tuple(gammas))


def build_discretization(config: ExperimentConfig) -> DiscretizationConfig:
    spec, at = config.discretization, "discretization"
    return DiscretizationConfig(
        l_bar=_num(spec, "l_bar", at),
        k_gr=_num(spec, "k_gr", at, int),
        theta=None if spec.get("theta") is None else _num(spec, "theta", at),
    )


def _pair(container, key, ctx: str):
    """A two-entry list ``container[key]`` and its path."""
    return _list(container, key, ctx, length=2), _path(ctx, key)


def _known(entry: dict, keys, ctx: str) -> None:
    """Reject a key of ``entry`` outside ``keys``, naming its path."""
    for key in entry:
        if key not in keys:
            raise ConfigError(f"{_path(ctx, key)}: unknown key")


def _bm_rule(raw: dict, statuses):
    """The bm variant's transition rule and premium multipliers by level."""
    entries = _list(raw, "levels", "contract")
    levels = tuple(_num(entries, k, "contract.levels", int) for k in range(len(entries)))
    if sorted(set(levels)) != list(levels) or 0 not in levels:
        raise ConfigError("contract.levels: must be strictly increasing and contain 0")
    claim = _require(raw, "claim_transition", "contract")
    idle = _require(raw, "inactive_transition", "contract")
    factors = _require(raw, "premium_multipliers", "contract")
    zero_claim, pieces, inactive, multipliers = {}, {}, {}, {}
    idle_keys = {"off"} | {s for s in statuses if s != STATUS_NO}
    for b in levels:
        where = f"contract.claim_transition.{b}"
        entry = _require(claim, str(b), "contract.claim_transition")
        zero_claim[b] = _num(entry, "zero", where, int)
        bands = _list(entry, "pieces", where)
        pieces[b] = []
        for k in range(len(bands)):
            band, at = _pair(bands, k, f"{where}.pieces")
            pieces[b].append((_num(band, 0, at), _num(band, 1, at, int)))
        if not pieces[b] or pieces[b][0][0] != 0.0:
            raise ConfigError(f"{where}.pieces: first threshold must be 0")
        where = f"contract.inactive_transition.{b}"
        entry = _require(idle, str(b), "contract.inactive_transition")
        for status in (s for s in statuses if s != STATUS_NO):
            key = status if status == STATUS_ON or status in entry else "off"
            target, at = _pair(entry, key, where)
            if not isinstance(target[1], str):
                raise ConfigError(f"{at}[1]: expected a status, got {target[1]!r}")
            inactive[(b, status)] = (_num(target, 0, at, int), target[1])
        _known(entry, idle_keys, where)
        multipliers[b] = _num(factors, str(b), "contract.premium_multipliers", lo=0.0)
    for key, table in (("claim_transition", claim), ("inactive_transition", idle),
                       ("premium_multipliers", factors)):
        _known(table, {str(b) for b in levels}, f"contract.{key}")
    return BonusMalusRule(levels, statuses, zero_claim, pieces, inactive), multipliers


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

    def per_year(key):
        entries = _list(raw, key, "contract", length=T)
        return np.array([_num(entries, t, f"contract.{key}", lo=0.0) for t in range(T)])

    # The per-year schedules bound the horizon before T + 2 statuses are made.
    deductible, fee_in, fee_out = (per_year(k) for k in ("deductible", "fee_in", "fee_out"))
    statuses = contract_statuses(T)
    if variant == "bm":
        rule, multipliers = _bm_rule(raw, statuses)
    else:
        inactive = {(0, s): (0, off_status(1)) for s in statuses if s != STATUS_NO}
        rule = BonusMalusRule((0,), statuses, {0: 0}, {0: ((0.0, 0),)}, inactive)
        multipliers = {0: 1.0}
    levels = rule.levels
    cap = _num(raw, "max_compensation", "contract", lo=0.0, inf_ok=True)
    schedules = ContractSchedules(
        levels=levels,
        horizon=T,
        premium=np.array([[multipliers[b]] * T for b in levels]),
        deductible=np.tile(deductible, (len(levels), 1)),
        max_comp=np.full((len(levels), T), cap),
        fee_in=fee_in,
        fee_out=fee_out,
        fee_re=_num(raw, "fee_re", "contract", lo=0.0),
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
