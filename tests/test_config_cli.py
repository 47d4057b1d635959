"""Configuration schema, defaults, CLI surface, and CSV emission."""

from __future__ import annotations

import copy
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from cyberprov import cli, compound
from cyberprov import config as config_mod
from cyberprov import solver as solver_mod
from cyberprov.cli import main
from cyberprov.config import (
    build_contract,
    build_mc,
    build_menu,
    build_severity,
    emit_experiment_defaults,
    load_config,
    save_config,
    validate_config,
)
from cyberprov.errors import ConfigError, DomainError
from cyberprov.severity import SeverityParams
from cyberprov.simulate import SimulationConfig, simulate
from cyberprov.solver import insurer_profit, occupancy_summaries, solve, solve_premiums
from cyberprov import sweep as sweep_mod
from cyberprov.sweep import CSV_COLUMNS, premium_grid, run_sweep


@pytest.fixture()
def defaults():
    return emit_experiment_defaults()


# sha256 of the reference `cyberprov solve` outputs (numpy 2.4.6, scipy 1.17.1),
# taken with numpy's float64 exp/expm1 dispatched to X86_V4 (AVX-512). An AVX2
# kernel changes sweep_bm.csv (ROADMAP item 13).
REFERENCE_SHA256 = {
    "sweep_bm.csv": "c00757ab83b7181b1112517ffae195a4f0292861273808a6fd2e807e69ad0a35",
    "sweep_flat.csv": "9a47aab28f549eb00fc443186a30b8c78ff8410259f5b1c46d4b358759356b4f",
    "thresholds_bm.json": "a988d5e3582e9d84ca71254a1c36035b153511da6572337e21fc40588f3b75a4",
    "thresholds_flat.json": "2c7152627e559dc24f2baaa827b3a4540cbe4ebf6378b0320d22352dac11111f",
}


def _exp_dispatch() -> str:
    """The float64 ``exp``/``expm1`` kernels that numpy dispatches to."""
    info = opt_func_info(func_name="^(exp|expm1)$", signature="float64")
    kernels = (f"{name} {sig['current']}" for name, sigs in info.items() for sig in sigs.values())
    return ", ".join(kernels)


def _totals(solution) -> tuple:
    """A solution's three reporting totals, bit for bit."""
    return tuple(
        float.hex(x) for x in (solution.payments, solution.loss_prevented, solution.compensation)
    )


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reference")


@pytest.fixture(scope="module")
def reference_sweep(reference_context, reference_dir):
    """The full reference sweep (both variants, 1401 premiums each), written
    to ``reference_dir``."""
    ctx = reference_context
    return run_sweep(ctx.config, out_dir=reference_dir, context=ctx)


@pytest.fixture()
def small_config(defaults, tmp_path):
    doc = defaults.to_dict()
    doc["sweep"] = {"premium_min": 4.4, "premium_max": 4.5, "premium_step": 0.05}
    path = tmp_path / "small.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _lognormal_doc(defaults, beta=0.5):
    """A small config on the closed-form log-normal family (2^12 atoms)."""
    doc = defaults.to_dict()
    doc["severity"] = {"family": "lognormal", "mu": 0.0, "s": 1.0}
    doc["mitigation"][1]["beta"] = beta
    doc["discretization"] = {"l_bar": 200.0, "k_gr": 12}
    doc["sweep"] = {"premium_min": 0.5, "premium_max": 2.5, "premium_step": 0.5}
    doc["mc"].update(n_paths=20000, base_premium=1.0)
    return doc


def _setter(field, value):
    """A mutation setting ``field``, a path as config errors print it
    (``contract.deductible[3]``), to ``value``."""
    *parents, last = re.findall(r"[^.\[\]]+", field)

    def mutate(doc):
        for key in parents:
            doc = doc[int(key) if isinstance(doc, list) else key]
        doc[int(last) if isinstance(doc, list) else last] = value

    return mutate


def _fields(node, keys=(), paths=()):
    """``(keys, paths)`` of every object field and list entry below ``node``:
    the keys that reach it and the paths, as config errors print them, of
    its ancestors and, last, of itself."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(key, int):
            path = f"{paths[-1]}[{key}]"
        else:
            path = f"{paths[-1]}.{key}" if paths else key
        yield keys + (key,), paths + (path,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, keys + (key,), paths + (path,))


def _named(message, paths):
    """The deepest of ``paths`` that ``message`` begins with, or None. An
    ancestor's path must end at ": " or " (" so that a sibling is not taken
    for it; the field's own may go on into the object or list put there."""
    named = None
    for path in paths:
        if re.match(re.escape(path) + "[: ]", message):
            named = path
    if re.match(re.escape(paths[-1]) + r"[.\[]", message):
        named = paths[-1]
    return named


# ---------------------------------------------------------------------------
# Defaults
# ---------------------------------------------------------------------------
class TestDefaults:
    def test_round_trip(self, defaults, tmp_path):
        path = tmp_path / "config.json"
        save_config(defaults, path)
        again = load_config(path)
        assert again.to_dict() == defaults.to_dict()

    def test_reference_values(self, defaults):
        assert defaults.horizon == 20
        assert defaults.discount_factor == 0.95
        assert defaults.frequency["rate"] == 0.8
        contract = defaults.contract
        assert contract["fee_out"][19] == pytest.approx(8.0)
        assert contract["fee_in"][15] == 0.0
        assert contract["fee_in"][16] == pytest.approx(0.75)
        assert contract["deductible"][:3] == [0.5, 0.5, 0.5]
        assert contract["deductible"][19] == 5.0
        assert contract["max_compensation"] == 1000.0

    def test_tilt_parameter(self, defaults):
        # 20 / 2^20; the tilt decays by e^-20 across the grid.
        assert defaults.discretization["theta"] == pytest.approx(
            1.9073486328125e-05, abs=1e-12
        )

    def test_mitigation_resolves_quantile(self, defaults):
        severity = build_severity(defaults)
        menu = build_menu(defaults, severity)
        assert menu.betas == (0.0, 0.5)
        assert menu.gammas[1] == pytest.approx(
            SeverityParams(0.0, 1.0, 1.8, 0.15).quantile(0.7), abs=1e-12
        )

    def test_tiny_quantile_validates(self, defaults, tmp_path):
        # A gamma quantile of 1e-16 resolves to the truncation point 0, not
        # to a reduction a few ulps below it, which the menu would reject.
        doc = defaults.to_dict()
        doc["mitigation"][1]["gamma"] = {"quantile": 1e-16}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 0
        config = validate_config(doc)
        assert build_menu(config, build_severity(config)).gammas[1] == 0.0

    def test_flat_variant_collapses_levels(self, defaults):
        severity = build_severity(defaults)
        menu = build_menu(defaults, severity)
        flat = build_contract(defaults, menu, 2.0, "flat")
        assert flat.rule.levels == (0,)
        assert flat.base_premium * flat.schedules.premium[0, 0] == 2.0
        bm = build_contract(defaults, menu, 2.0, "bm")
        premium = bm.base_premium * bm.schedules.premium[:, 0]
        assert premium.tolist() == [1.2, 1.6, 2.0, 3.0]


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------
class TestValidation:
    def _broken(self, defaults, mutate):
        doc = copy.deepcopy(defaults.to_dict())
        mutate(doc)
        return doc

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d["sweep"].update(premium_step=0.0), "sweep.premium_step"),
            (lambda d: d["sweep"].update(premium_min=9.0), "sweep.premium_min"),
            pytest.param(
                lambda d: d["sweep"].update(premium_min=-1),
                "sweep.premium_min",
                id="negative-premium_min",
            ),
            pytest.param(
                lambda d: d["sweep"].update(premium_step=math.nan),
                "sweep.premium_step",
                id="nan-premium_step",
            ),
            pytest.param(
                lambda d: d["sweep"].update(premium_max=math.inf),
                "sweep.premium_max",
                id="inf-premium_max",
            ),
            pytest.param(
                lambda d: d["sweep"].update(premium_max=math.nan),
                "sweep.premium_max",
                id="nan-premium_max",
            ),
            pytest.param(lambda d: d.update(horizon=20.7), "horizon", id="fractional-horizon"),
            pytest.param(
                lambda d: d["discretization"].update(k_gr=12.5),
                "discretization.k_gr",
                id="fractional-k_gr",
            ),
            pytest.param(
                lambda d: d["mc"].update(n_paths=2.5), "mc.n_paths", id="fractional-n_paths"
            ),
            pytest.param(
                lambda d: d["frequency"].update(rate=math.nan), "frequency.rate", id="nan-rate"
            ),
            pytest.param(
                lambda d: d["mc"].update(base_premium=-0.5),
                "mc.base_premium",
                id="negative-mc.base_premium",
            ),
            pytest.param(
                lambda d: d["severity"].update(h=1.5),
                "severity: h must lie in [0, 1)",
                id="range-severity.h",
            ),
            pytest.param(
                _setter("contract.premium_multipliers.1", 0.1),
                "contract.premium_multipliers: premium must be nondecreasing in the level",
                id="decreasing-contract.premium_multipliers",
            ),
            (lambda d: d["severity"].pop("g"), "severity.g"),
            (lambda d: d["frequency"].update(kind="binomial"), "frequency.kind"),
            (lambda d: d["mitigation"][0].update(beta=0.3), "mitigation[0]"),
            (
                lambda d: d["contract"]["claim_transition"].pop("0"),
                "claim_transition.0",
            ),
            (
                lambda d: d["contract"].update(deductible=[0.5] * 3),
                "contract.deductible",
            ),
            (lambda d: d.update(discount_factor=1.5), "discount_factor"),
            (
                lambda d: d["contract"]["claim_transition"]["0"].update(
                    pieces=[[1.0, 1]]
                ),
                "pieces",
            ),
            *(
                pytest.param(_setter(field, value), field, id=f"{label}-{field}")
                for label, value, field in [
                    ("nan", math.nan, "contract.max_compensation"),
                    ("nan", math.nan, "contract.fee_re"),
                    ("nan", math.nan, "contract.deductible[3]"),
                    ("nan", math.nan, "contract.fee_in[0]"),
                    ("nan", math.nan, "contract.premium_multipliers.0"),
                    ("nan", math.nan, "mitigation[1].beta"),
                    ("nan", math.nan, "mitigation[1].gamma.quantile"),
                    ("null", None, "contract.deductible[0]"),
                    ("null", None, "contract.fee_re"),
                    ("string", "x", "mc.seed"),
                    ("negative", -1, "contract.premium_multipliers.0"),
                    ("negative", -1, "contract.fee_out[0]"),
                    ("negative", -1, "mitigation[1].beta"),
                ]
            ),
            *(
                pytest.param(_setter("mc", value), "mc: expected an object", id=f"mc-{value!r}")
                for value in (0, "", [], False)
            ),
            *(
                pytest.param(_setter(field, value), field, id=f"unknown-{field}")
                for field, value in [
                    ("contract.inactive_transition.1.of_3", [1, "off_1"]),
                    ("contract.inactive_transition.1.off_21", [1, "off_1"]),
                    ("contract.premium_multipliers.7", 1.0),
                    ("contract.claim_transition.9", {"zero": 0, "pieces": [[0.0, 1]]}),
                    ("discretization.thetta", 1e-5),
                    ("contract.claim_transition.0.piece", [[0.0, 1]]),
                    ("mc.n_path", 10),
                    ("horizn", 20),
                    ("severity.mu", 0.0),  # a lognormal key on g-and-h
                    ("mitigation[1].bta", 0.5),
                    ("sweep.premium_stp", 0.01),
                    ("contract.fee_ree", 3.0),
                    ("frequency.rat", 0.8),
                    ("mitigation[1].gamma.quantil", 0.7),
                ]
            ),
            *(
                pytest.param(_setter(field, value), message, id=f"shape-{field}")
                for field, value, message in [
                    ("severity", 5, "severity: expected an object, got 5"),
                    ("contract.claim_transition", [], "contract.claim_transition: expected an object"),
                    ("contract.levels", 5, "contract.levels: expected a list, got 5"),
                    ("mitigation", [], "mitigation: must be a nonempty list of measures"),
                ]
            ),
        ],
    )
    def test_field_level_errors(self, defaults, mutate, fragment):
        doc = self._broken(defaults, mutate)
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert fragment in str(err.value)

    def test_document_must_be_object(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="^config: document must be a JSON object$"):
            validate_config([])
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: config: document must be a JSON object\n"

    def test_build_contract_rejects_unknown_variant(self, defaults):
        menu = build_menu(defaults, build_severity(defaults))
        with pytest.raises(ConfigError, match="^variant: expected one of"):
            build_contract(defaults, menu, 4.7, "gold")

    def test_uncapped_reference_refused(self, defaults, tmp_path, capsys):
        # Infinity is the one non-finite number a config may hold: an
        # uncapped contract. The reference grid ends at l_bar 1e4 and drops
        # 1.31 % of measure 0's yearly loss, over mc-check's 0.5 % floor.
        doc = defaults.to_dict()
        doc["contract"]["max_compensation"] = math.inf
        path = tmp_path / "uncapped.json"
        path.write_text(json.dumps(doc))
        assert '"max_compensation": Infinity' in path.read_text()
        with pytest.raises(ConfigError, match=r"^contract.max_compensation: .* 1\.31% "):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: contract.max_compensation") and "Traceback" not in err

    def test_uncapped_wide_grid_validates(self, defaults, monkeypatch):
        # At l_bar 4e4 the grid drops 0.31 % / 0.41 % of the two measures'
        # yearly loss. Validation runs no transform.
        doc = defaults.to_dict()
        doc["contract"]["max_compensation"] = math.inf
        doc["discretization"].update(l_bar=4e4, k_gr=22, theta=20.0 / 2**22)

        def no_transform(*args, **kwargs):
            raise AssertionError("validation ran a transform")

        for module in (compound, sweep_mod):
            monkeypatch.setattr(module, "compound_fft", no_transform)
        validate_config(doc)

    def test_infinite_cap_solves(self, reference_context):
        # The library solves an uncapped contract at the reference grid;
        # only the config is refused.
        ctx = reference_context
        contract = build_contract(ctx.config, ctx.menu, 4.70, "bm")
        max_comp = np.full_like(contract.schedules.max_comp, math.inf)
        contract = replace(contract, schedules=replace(contract.schedules, max_comp=max_comp))
        solution = solve(contract, ctx.distributions, ctx.expected_losses)
        assert solution.value == pytest.approx(55.0825, abs=1e-4)

    def test_mutants_rejected_by_field(self, defaults):
        # Every scalar leaf of the default document set to each of these
        # values, and every object key deleted: validation either accepts
        # the mutant or raises ConfigError naming the field or an ancestor.
        # NaN at a numeric leaf must be named below its top-level section.
        doc = defaults.to_dict()
        deleted = object()
        failures = []
        for keys, paths in _fields(doc):
            *parents, key = keys
            original = doc
            for k in keys:
                original = original[k]
            leaf = not isinstance(original, (dict, list))
            values = [math.nan, math.inf, -1.0, 2.5, "x", None, [], {}] if leaf else []
            for value in values + ([deleted] if isinstance(key, str) else []):
                mutant = copy.deepcopy(doc)
                parent = mutant
                for k in parents:
                    parent = parent[k]
                if value is deleted:
                    del parent[key]
                else:
                    parent[key] = value
                label = f"{paths[-1]} {'deleted' if value is deleted else f'= {value!r}'}"
                try:
                    validate_config(mutant)
                except ConfigError as exc:
                    named = _named(str(exc), paths)
                    nan_at_number = value is math.nan and isinstance(original, (int, float))
                    if named is None or nan_at_number and named == paths[0] != paths[-1]:
                        failures.append(f"{label}: {exc}")
                except Exception as exc:  # any other exception is a defect
                    failures.append(f"{label}: {type(exc).__name__}: {exc}")
        # Every object, the document itself included, rejects a key that it
        # does not know, naming the key's path.
        for keys, paths in [((), ("",))] + list(_fields(doc)):
            mutant = copy.deepcopy(doc)
            node = mutant
            for k in keys:
                node = node[k]
            if not isinstance(node, dict):
                continue
            node["zz"] = 1
            where = f"{paths[-1]}.zz" if keys else "zz"
            try:
                validate_config(mutant)
                failures.append(f"{where} added: validates")
            except ConfigError as exc:
                if not str(exc).startswith(f"{where}: unknown key"):
                    failures.append(f"{where} added: {exc}")
        assert not failures, "\n".join(failures)

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        # A missing file and a directory are config errors naming the path.
        for path in (tmp_path / "missing.json", tmp_path):
            assert main(["validate", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: config: cannot read {path}:")
            assert "Traceback" not in err

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        for text in ("{not json", '{"horizon": 1' + "0" * 5000 + "}"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_config(path)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (
                lambda d: d["discretization"].update(k_gr=30, theta=20.0 / 2**30),
                "discretization.k_gr",
            ),
            (lambda d: d["mc"].update(n_paths=1e13), "mc.n_paths"),
            (lambda d: d["mc"].update(n_paths=10**400), "mc.n_paths"),
            (lambda d: d["sweep"].update(premium_step=1e-9), "sweep.premium_step"),
            (lambda d: d["sweep"].update(premium_step=5e-324), "sweep.premium_step"),
        ],
    )
    def test_oversized_run_exits_2(
        self, defaults, tmp_path, capsys, monkeypatch, mutate, field
    ):
        # Each of these asks for tens of GiB or more; validate refuses it by
        # arithmetic on the fields, naming the field, without allocating.
        monkeypatch.setattr(config_mod, "_physical_memory", lambda: 16 * 2**30)
        doc = self._broken(defaults, mutate)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ")
        assert "physical memory" in err and "Traceback" not in err

    def test_memory_estimates(self, defaults, monkeypatch):
        # The transform's estimate is the 80 MiB per 2^20 atoms that the
        # traced guard allows, the largest estimate of the reference config;
        # a config like the benchmark's 2^22-atom lognormal workload fits
        # in 1 GiB.
        doc = defaults.to_dict()
        monkeypatch.setattr(config_mod, "_physical_memory", lambda: 80 * 2**20)
        validate_config(doc)
        monkeypatch.setattr(config_mod, "_physical_memory", lambda: 80 * 2**20 - 1)
        with pytest.raises(ConfigError, match="^discretization.k_gr: a 2\\^20-atom transform"):
            validate_config(doc)
        monkeypatch.setattr(config_mod, "_physical_memory", lambda: 2**30)
        fine = defaults.to_dict()
        fine["discretization"].update(k_gr=22, theta=20.0 / 2**22)
        fine["severity"]["family"] = "lognormal_matched"
        fine["sweep"] = {"premium_min": 4.0, "premium_max": 5.5, "premium_step": 0.05}
        fine["mc"]["n_paths"] = 10**6
        validate_config(fine)
        # The replay needs 16 B per path beyond one block's temporaries (80
        # B per path of a 2^16-path block), the sweep 512 B per premium.
        paths = self._broken(defaults, lambda d: d["mc"].update(n_paths=2**29))
        monkeypatch.setattr(config_mod, "_physical_memory", lambda: 16 * 2**29 + 80 * 2**16)
        validate_config(paths)
        paths["mc"]["n_paths"] += 1
        with pytest.raises(ConfigError, match="^mc.n_paths: the replay needs "):
            validate_config(paths)
        step = self._broken(defaults, lambda d: d["sweep"].update(premium_step=7.0 / 2**24))
        monkeypatch.setattr(config_mod, "_physical_memory", lambda: 512 * (2**24 + 1))
        validate_config(step)
        step["sweep"]["premium_step"] = 7.0 / (2**24 + 1)
        with pytest.raises(ConfigError, match="^sweep.premium_step: a sweep of "):
            validate_config(step)


# ---------------------------------------------------------------------------
# Sweep output
# ---------------------------------------------------------------------------
class TestSweep:
    def test_degenerate_single_point(self, defaults, reference_context):
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": 4.7, "premium_max": 4.7, "premium_step": 0.005}
        config = validate_config(doc)
        assert premium_grid(config).tolist() == [4.7]
        result = run_sweep(config, variants=("bm",), context=reference_context)
        assert len(result["bm"].rows) == 1

    def test_unwritable_output_dir(self, defaults, tmp_path, reference_context, monkeypatch):
        # The directory is made before the first solve, so the error comes
        # without solving anything.
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": 4.7, "premium_max": 4.7, "premium_step": 0.005}
        config = validate_config(doc)
        blocker = tmp_path / "file"
        blocker.write_text("")

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output directory was made")

        monkeypatch.setattr(sweep_mod, "solve_premiums", no_solve)
        with pytest.raises(ConfigError) as err:
            run_sweep(config, out_dir=str(blocker / "sub"), context=reference_context)
        assert str(err.value).startswith(f"output_dir: cannot write {blocker / 'sub'}:")

    def test_unknown_variant_rejected_first(self, defaults, tmp_path, monkeypatch):
        # Checked before the output directory or the loss model is made.
        def no_model(config):
            raise AssertionError("loss model built for an unknown variant")

        monkeypatch.setattr(sweep_mod, "SweepContext", no_model)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="^variant: expected one of"):
            run_sweep(defaults, variants=("bm", "gold"), out_dir=str(out))
        assert not out.exists()

    def test_non_finite_row_rejected(self, defaults, tmp_path, reference_context, monkeypatch):
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": 4.7, "premium_max": 4.7, "premium_step": 0.005}
        config = validate_config(doc)
        monkeypatch.setattr(sweep_mod, "insurer_profit", lambda solution: math.nan)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape("sweep: non-finite output at premium 4.7 (bm)")):
            run_sweep(config, out_dir=str(out), context=reference_context)
        assert os.listdir(out) == []

    def test_never_mitigating_regime(self, defaults):
        # A measure dearer than any loss it prevents is never taken.
        config = validate_config(_lognormal_doc(defaults, beta=100.0))
        result = run_sweep(config, variants=("bm",))["bm"]
        assert all(row.mitigation_years == 0.0 for row in result.rows)
        assert result.regime_changes, "the band crosses no retention change"
        for change in result.regime_changes:
            assert change["before"]["mitigation"] == change["after"]["mitigation"] == "never"

    def test_failed_write_leaves_nothing(self, defaults, tmp_path, reference_context, monkeypatch):
        # The second CSV fails after the bm CSV and JSON are written; no
        # file may be left in the output directory.
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": 4.7, "premium_max": 4.7, "premium_step": 0.005}
        config = validate_config(doc)
        write, calls = sweep_mod.write_csv, []

        def second_write_fails(rows, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device", path)
            write(rows, path)

        monkeypatch.setattr(sweep_mod, "write_csv", second_write_fails)
        out_dir = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            run_sweep(config, out_dir=str(out_dir), context=reference_context)
        assert str(err.value).startswith("output_dir: cannot write ")
        assert len(calls) == 2
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "lo, hi, step, expected",
        [
            (0.0, 1.0, 0.6, [0.0, 0.6]),
            (4.0, 4.5, 0.3, [4.0, 4.3]),
            (4.4, 4.5, 0.05, [4.4, 4.45, 4.5]),
            (4.7, 4.7, 0.005, [4.7]),
        ],
    )
    def test_premium_grid_ends_at_max(self, defaults, lo, hi, step, expected):
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": lo, "premium_max": hi, "premium_step": step}
        assert premium_grid(validate_config(doc)).tolist() == expected

    def test_premium_grid_on_a_lattice(self, defaults):
        # Ends and steps on a 0.001 lattice: exactly the lattice points
        # lo + k * step that do not pass premium_max, the reference grid
        # among them.
        rng = np.random.default_rng(4)
        cases = [(0, 7000, 5)] + [
            (a, a + int(rng.integers(0, 3000)), int(rng.integers(1, 700)))
            for a in rng.integers(0, 8000, size=300)
        ]
        doc = defaults.to_dict()
        for a, b, k in cases:
            lo, hi, step = a / 1000, b / 1000, k / 1000
            doc["sweep"] = {"premium_min": lo, "premium_max": hi, "premium_step": step}
            grid = premium_grid(validate_config(doc))
            n = (b - a) // k + 1
            assert np.array_equal(grid, np.round(lo + step * np.arange(n), 9)), (lo, hi, step)
            assert grid[-1] <= hi

    def test_csv_contract(self, defaults, tmp_path, reference_context):
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": 4.4, "premium_max": 4.5, "premium_step": 0.05}
        config = validate_config(doc)
        run_sweep(config, out_dir=tmp_path, context=reference_context)
        for variant in ("bm", "flat"):
            lines = (tmp_path / f"sweep_{variant}.csv").read_text().splitlines()
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert len(lines) == 4
            for line in lines[1:]:
                fields = line.split(",")
                assert len(fields) == len(CSV_COLUMNS)
                for field in fields:
                    value = float(field)
                    assert math.isfinite(value)
                    assert "e" not in field and "E" not in field
        flat_lines = (tmp_path / "sweep_flat.csv").read_text().splitlines()
        idx = {name: k for k, name in enumerate(CSV_COLUMNS)}
        for line in flat_lines[1:]:
            fields = line.split(",")
            assert float(fields[idx["years_bm_m2"]]) == 0.0
            assert float(fields[idx["years_bm_1"]]) == 0.0

    def test_reruns_identical(self, defaults, tmp_path):
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": 4.4, "premium_max": 4.45, "premium_step": 0.05}
        config = validate_config(doc)
        run_sweep(config, variants=("bm",), out_dir=tmp_path / "a")
        run_sweep(config, variants=("bm",), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "sweep_bm.csv").read_bytes() == (
            tmp_path / "b" / "sweep_bm.csv"
        ).read_bytes()

    @pytest.mark.parametrize("variant", ["bm", "flat"])
    def test_batched_rows_match_single_solves(
        self, reference_context, reference_sweep, variant
    ):
        # The batched inductions of the sweep must give, float for float, the
        # rows of separate single-premium solves across the regime band.
        ctx = reference_context
        rows = {row.base_premium: row for row in reference_sweep[variant].rows}
        for premium in np.round(4.40 + 0.035 * np.arange(21), 9):
            contract = build_contract(ctx.config, ctx.menu, float(premium), variant)
            solution = solve(contract, ctx.distributions, ctx.expected_losses)
            occ = occupancy_summaries(solution)
            years = [occ.years_by_level.get(level, 0.0) for level in (-2, -1, 0, 1)]
            expected = (
                float(premium),
                solution.value,
                occ.retention_rate,
                *years,
                occ.years_uninsured,
                float(occ.mitigation_years[1:].sum()),
                solution.loss_prevented,
                insurer_profit(solution),
            )
            assert rows[float(premium)].as_tuple() == expected, premium
            assert insurer_profit(solution) == solution.payments - solution.compensation

    def test_premium_vector_matches_single_solves(self, reference_context):
        # One contract solved at a vector of base premiums gives, bit for
        # bit, the tables of a contract built and solved at each premium.
        ctx = reference_context
        models = (ctx.distributions, ctx.expected_losses)
        premiums = [0.0, 4.41, 4.70, 4.98, 7.0]
        for variant in ("bm", "flat"):
            contract = build_contract(ctx.config, ctx.menu, 1.0, variant)
            batch = list(solve_premiums(contract, premiums, *models))
            singles = [
                solve(build_contract(ctx.config, ctx.menu, p, variant), *models)
                for p in premiums
            ]
            for premium, got, want in zip(premiums, batch, singles):
                assert got.contract.base_premium == premium
                for name in ("values", "d_opt", "iota_opt", "marginals", "alpha", "claim_prob"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                assert _totals(got) == _totals(want)
        # The simulator reads the premium due through the base premium: the
        # batched bm solution at 4.98, where cover lapses on some paths,
        # replays bit for bit like a contract with that premium baked into
        # its schedule and a base premium of one.
        bm = build_contract(ctx.config, ctx.menu, 1.0, "bm")
        batched = list(solve_premiums(bm, premiums, *models))[3]
        sched = bm.schedules
        baked = replace(bm, schedules=replace(sched, premium=4.98 * sched.premium))
        cfg = SimulationConfig(n_paths=10**4, seed=20240601)
        got = simulate(batched, ctx.severity, ctx.frequency, cfg)
        want = simulate(solve(baked, *models), ctx.severity, ctx.frequency, cfg)
        assert np.array_equal(got.path_costs, want.path_costs)
        assert np.array_equal(got.state_frequency, want.state_frequency)
        for bad in (-1.0, math.nan):
            with pytest.raises(DomainError):
                solve_premiums(bm, [4.7, bad], *models)
            with pytest.raises(DomainError):
                build_contract(ctx.config, ctx.menu, bad, "bm")

    def test_solve_premiums_checks_on_call(self, reference_context):
        # Missing inputs raise on the call itself, before any iteration.
        ctx = reference_context
        bm = build_contract(ctx.config, ctx.menu, 1.0, "bm")
        dists, els = ctx.distributions, ctx.expected_losses
        with pytest.raises(ConfigError, match="^distributions: missing mitigation measure 1"):
            solve_premiums(bm, [4.7], {0: dists[0]}, els)
        with pytest.raises(ConfigError, match="^expected_losses: missing mitigation measure 1"):
            solve_premiums(bm, [4.7], dists, {0: els[0]})

    def test_layer_tables_built_once_per_sweep(self, defaults, reference_context, monkeypatch):
        # bm and flat read the same four (measure, deductible, cap) tables:
        # a two-variant sweep builds each once, a second sweep on the same
        # loss model builds them again (no table outlives the call), and a
        # single solve builds its own four. The builder constructs each
        # table once its arrays are filled, so its constructor calls are the
        # builds that perfbench counts; the keys come from its result.
        builds, keys = [], []

        def counting(*args, **kwargs):
            builds.append(args)
            return grid(*args, **kwargs)

        def recording(*args):
            tables = build(*args)
            keys.extend(tables)
            return tables

        grid, build = compound.CompensationGrid, solver_mod.build_tables
        monkeypatch.setattr(compound, "CompensationGrid", counting)
        monkeypatch.setattr(solver_mod, "build_tables", recording)
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": 4.6, "premium_max": 4.8, "premium_step": 0.1}
        config = validate_config(doc)
        ctx = reference_context
        run_sweep(config, context=ctx)
        assert len(builds) == len(keys) == 4
        assert sorted(keys) == [(d, dtb, 1000.0) for d in (0, 1) for dtb in (0.5, 5.0)]
        run_sweep(config, context=ctx)
        assert len(builds) == len(keys) == 8
        solve(build_contract(config, ctx.menu, 4.7, "bm"), ctx.distributions, ctx.expected_losses)
        assert len(builds) == len(keys) == 12

    def test_chunked_premiums_match_single_solves(self, reference_context):
        # 300 premiums take three backward inductions of at most 128; the
        # solutions on either side of each chunk boundary equal single
        # solves bit for bit, and the premiums come back in order.
        ctx = reference_context
        models = (ctx.distributions, ctx.expected_losses)
        premiums = np.round(4.0 + 0.005 * np.arange(300), 9).tolist()
        for variant in ("bm", "flat"):
            contract = build_contract(ctx.config, ctx.menu, 1.0, variant)
            batch = list(solve_premiums(contract, premiums, *models))
            assert [s.contract.base_premium for s in batch] == premiums
            for k in (0, 127, 128, 255, 256, 299):
                got = batch[k]
                want = solve(build_contract(ctx.config, ctx.menu, premiums[k], variant), *models)
                assert got.value == want.value, (variant, k)
                for name in ("values", "d_opt", "iota_opt", "marginals", "alpha", "claim_prob"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (name, k)
                assert _totals(got) == _totals(want), k

    def test_reference_outputs_pinned(self, reference_sweep, reference_dir):
        for name, digest in REFERENCE_SHA256.items():
            data = (reference_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (name, _exp_dispatch())

    def test_retention_within_unit_interval(self, reference_sweep):
        for result in reference_sweep.values():
            retention = [row.retention for row in result.rows]
            assert all(0.0 <= r <= 1.0 for r in retention)
        # Full retention up to roundoff reads exactly one.
        row = next(r for r in reference_sweep["bm"].rows if r.base_premium == 4.68)
        assert row.retention == 1.0 and row.years_uninsured == 0.0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCli:
    def test_defaults_validate_cycle(self, tmp_path, capsys):
        out = tmp_path / "config.json"
        assert main(["defaults", "--out", str(out)]) == 0
        assert main(["validate", "--config", str(out)]) == 0

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        assert main(["validate", "--config", str(bad)]) == 2

    def test_solve_writes_outputs(self, small_config, tmp_path):
        out = tmp_path / "results"
        code = main(
            ["solve", "--config", str(small_config), "--variant", "flat", "--out", str(out)]
        )
        assert code == 0
        assert (out / "sweep_flat.csv").exists()
        assert (out / "thresholds_flat.json").exists()
        changes = json.loads((out / "thresholds_flat.json").read_text())
        assert changes and changes[0]["after"]["retention"] == "none"

    def test_env_var_overrides_output_dir(self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv("CYBERPROV_OUT", str(out))
        assert main(["solve", "--config", str(small_config), "--variant", "flat"]) == 0
        assert (out / "sweep_flat.csv").exists()

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (
                lambda d: d["contract"]["inactive_transition"]["1"].update(off=[7]),
                "contract.inactive_transition.1.off",
            ),
            # The rule's own checks, reported under the entry they reject.
            *(
                pytest.param(_setter(field, value), f"{where}: {message}", id=label)
                for label, field, value, where, message in [
                    ("inactive-target", "contract.inactive_transition.1.off", [7, "off_1"],
                     "contract.inactive_transition.1.off",
                     "inactive transition (1, off_1) -> (7, off_1) invalid"),
                    ("decreasing-bands", "contract.claim_transition.0.pieces",
                     [[0, 1], [5, -2]], "contract.claim_transition.0.pieces",
                     "level 0: claim transition must be nondecreasing"),
                    ("equal-thresholds", "contract.claim_transition.0.pieces",
                     [[0, 1], [0, 1]], "contract.claim_transition.0.pieces",
                     "level 0: band thresholds must increase"),
                    ("band-target", "contract.claim_transition.0.pieces", [[0, 5]],
                     "contract.claim_transition.0.pieces",
                     "level 0: transition targets unknown level"),
                    ("zero-target", "contract.claim_transition.0.zero", 7,
                     "contract.claim_transition.0.zero",
                     "level 0: transition targets unknown level"),
                    # Level 0's zero-claim level -1 lies above a first band to
                    # -2: a defect of the pair, named by the entry holding both.
                    ("zero-above-band", "contract.claim_transition.0.pieces", [[0, -2]],
                     "contract.claim_transition.0",
                     "level 0: zero-claim level exceeds first band"),
                ]
            ),
            (lambda d: d.update(horizon="twenty"), "horizon"),
            pytest.param(
                lambda d: d["severity"].update(family=[]), "severity.family", id="family-list"
            ),
        ],
    )
    def test_config_defects_exit_2(self, defaults, tmp_path, capsys, mutate, fragment):
        # Every defect that solve would hit is caught by validate, and both
        # commands report it as a config error naming the field.
        doc = copy.deepcopy(defaults.to_dict())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for argv in (["validate"], ["solve", "--out", str(out)]):
            assert main(argv + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and fragment in err
            assert "Traceback" not in err
        assert not out.exists()

    def test_level_without_csv_column_exits_2(self, defaults, tmp_path, capsys):
        # The sweep CSV has a column per level -2..1 only; a level 2 would
        # drop out of the row, so every command rejects it naming the field.
        doc = defaults.to_dict()
        raw = doc["contract"]
        raw["levels"].append(2)
        raw["claim_transition"]["2"] = {"zero": 1, "pieces": [[0.0, 2]]}
        raw["inactive_transition"]["2"] = {"on": [2, "off_1"], "off": [1, "off_1"]}
        raw["premium_multipliers"]["2"] = 2.0
        path = tmp_path / "five_levels.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for argv in (["validate"], ["solve", "--out", str(out)], ["mc-check"]):
            assert main(argv + ["--config", str(path)]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: contract.levels:") and "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def _matched_config(defaults, tmp_path, h):
        doc = defaults.to_dict()
        doc["severity"].update(family="lognormal_matched", h=h)
        doc["discretization"]["k_gr"] = 12
        doc["sweep"] = {"premium_min": 4.6, "premium_max": 4.7, "premium_step": 0.05}
        path = tmp_path / f"matched_{h}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_matched_heavy_tail_solves(self, defaults, tmp_path):
        # The matched log-normal's second moment is finite for h < 1/2.
        path = self._matched_config(defaults, tmp_path, h=0.3)
        assert main(["validate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert len((out / "sweep_bm.csv").read_text().splitlines()) == 4

    def test_matched_overflow_exits_2(self, defaults, tmp_path, capsys):
        # At g = 1.8 the second moment exceeds a double once h > 0.4954.
        path = self._matched_config(defaults, tmp_path, h=0.497)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: severity: second moment overflows a double")

    @staticmethod
    def _severity_config(defaults, tmp_path, name, gamma=None, **severity):
        doc = defaults.to_dict()
        doc["severity"].update(severity)
        if gamma is not None:
            doc["mitigation"][1]["gamma"] = gamma
        doc["discretization"]["k_gr"] = 12
        doc["sweep"] = {"premium_min": 4.6, "premium_max": 4.8, "premium_step": 0.1}
        doc["mc"]["n_paths"] = 20000
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_flat_tail_above_origin_runs(self, defaults, tmp_path, capsys):
        # At h = 0, Y > -1/g, so with alpha >= sigma/g every raw variate is
        # positive and f0 is 0: a law like any other.
        path = self._severity_config(defaults, tmp_path, "flat_tail", alpha=1.0, h=0.0)
        assert main(["validate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert len((out / "sweep_bm.csv").read_text().splitlines()) == 4
        assert main(["mc-check", "--config", str(path)]) == 0
        assert "mc-check passed" in capsys.readouterr().out

    def test_no_positive_losses_exits_2(self, defaults, tmp_path, capsys):
        # P(X_raw <= 0) rounds to 1: the severity section is at fault, not
        # the absolute mitigation amount that would meet the NaN first.
        path = self._severity_config(
            defaults, tmp_path, "no_losses", gamma=1.0, alpha=-40.0, sigma=1.0, g=0.1, h=0.0
        )
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: severity") and "Traceback" not in err

    def test_jobs_flag_removed(self, small_config):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(small_config), "--jobs", "2"])
        assert exc.value.code == 2

    def test_numerical_failure_exit_code(self, defaults, tmp_path):
        # A grid far too short for the severity tail loses visible mass,
        # which the transform reports as a numerical failure (exit 3).
        doc = defaults.to_dict()
        doc["discretization"] = {"l_bar": 200.0, "k_gr": 10}
        doc["sweep"] = {"premium_min": 4.5, "premium_max": 4.5, "premium_step": 0.01}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3

    @staticmethod
    def _mc_config(defaults, tmp_path, **mc):
        doc = defaults.to_dict()
        doc["mc"].update(mc)
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(doc))
        return path

    def test_mc_check_runs(self, defaults, tmp_path, capsys):
        path = self._mc_config(defaults, tmp_path, n_paths=20000, seed=3)
        assert main(["mc-check", "--config", str(path)]) == 0
        captured = capsys.readouterr().out
        assert "MC (20000 paths, seed 3)" in captured
        assert "mc-check passed" in captured

    def test_mc_check_fails_on_zero_error_cell(
        self, defaults, tmp_path, capsys, monkeypatch, reference_context
    ):
        # A replay that reaches a state the solver rules out has an infinite
        # z-score there; mc-check prints it and fails, though the mean agrees.
        def visits_ruled_out_state(solution, *args):
            result = simulate(solution, *args)
            freq = np.array(result.state_frequency)
            t, s = np.argwhere(solution.marginals[1:] == 0.0)[0] + (1, 0)
            freq[t, s] = 1 / result.n_paths
            return replace(result, state_frequency=freq)

        monkeypatch.setattr(cli, "SweepContext", lambda config: reference_context)
        monkeypatch.setattr(cli, "simulate", visits_ruled_out_state)
        path = self._mc_config(defaults, tmp_path, n_paths=20000, seed=3)
        assert main(["mc-check", "--config", str(path)]) == 3
        out = capsys.readouterr().out
        assert "worst state-frequency z-score: inf\n" in out
        assert "FAILED: a state frequency the solver fixes at 0 or 1 differs" in out

    def test_mc_check_zero_cost(self, defaults, tmp_path, capsys):
        # With no losses and no premium the optimal cost is 0: the verdict
        # prints no relative difference instead of dividing by V0.
        doc = defaults.to_dict()
        doc["frequency"]["rate"] = 0.0
        doc["discretization"]["k_gr"] = 12
        doc["sweep"] = {"premium_min": 0.0, "premium_max": 0.0, "premium_step": 0.05}
        doc["mc"].update(base_premium=0.0, n_paths=100)
        path = tmp_path / "zero_cost.json"
        path.write_text(json.dumps(doc))
        assert main(["mc-check", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "premium 0.0: V0 = 0.000000\n" in out
        assert "difference +0.000000 (rel n/a), tolerance 0.000000\n" in out
        assert "mc-check passed" in out

    def test_lognormal_family_runs(self, defaults, tmp_path, capsys):
        path = tmp_path / "lognormal.json"
        path.write_text(json.dumps(_lognormal_doc(defaults)))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert len((out / "sweep_flat.csv").read_text().splitlines()) == 6
        assert main(["mc-check", "--config", str(path)]) == 0
        assert "mc-check passed" in capsys.readouterr().out

    def test_mc_check_fails_on_mean(
        self, defaults, tmp_path, capsys, monkeypatch, reference_context
    ):
        # The mean moves by V0; the state frequencies stay those replayed.
        def shifted_mean(solution, *args):
            result = simulate(solution, *args)
            return replace(result, mean=result.mean + solution.value)

        monkeypatch.setattr(cli, "SweepContext", lambda config: reference_context)
        monkeypatch.setattr(cli, "simulate", shifted_mean)
        path = self._mc_config(defaults, tmp_path, n_paths=20000, seed=3)
        assert main(["mc-check", "--config", str(path)]) == 3
        out = capsys.readouterr().out
        assert out.endswith("mc-check FAILED: mean outside tolerance\n")

    def test_mc_check_needs_mc_block(self, defaults, tmp_path, capsys):
        # A config without an mc block validates and solves, but has nothing
        # for mc-check to replay.
        doc = defaults.to_dict()
        del doc["mc"]
        path = tmp_path / "no_mc.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).mc == {}
        assert main(["mc-check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: mc: config has no Monte Carlo block\n"

    def test_build_mc(self, defaults):
        cfg, premium = build_mc(defaults)
        assert cfg == SimulationConfig(n_paths=1_000_000, seed=20240601)
        assert premium == 4.70

    @pytest.mark.parametrize(
        "field, value", [("n_paths", 0), ("n_paths", -5), ("n_paths", "many"), ("seed", 1.5)]
    )
    def test_mc_check_rejects_bad_mc_block(
        self, defaults, tmp_path, capsys, monkeypatch, field, value
    ):
        # Rejected by validation, before the loss model is built.
        def no_build(config):
            raise AssertionError(f"loss model built for a bad mc.{field}")

        monkeypatch.setattr(cli, "SweepContext", no_build)
        path = self._mc_config(defaults, tmp_path, **{field: value})
        assert main(["mc-check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: mc.{field}:") and "Traceback" not in err

    def test_mc_flags_removed(self, small_config):
        # The path count and seed are config-only.
        for flag in ("--paths", "--seed"):
            with pytest.raises(SystemExit) as exc:
                main(["mc-check", "--config", str(small_config), flag, "3"])
            assert exc.value.code == 2

    def test_import_skips_quadrature(self):
        # Nothing in the package integrates numerically, so scipy.integrate
        # stays unloaded; loading it would slow every CLI start, validate
        # included.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import sys, cyberprov.cli; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyberprov.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "mc-check" in proc.stdout
