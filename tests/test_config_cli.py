"""Configuration schema, defaults, CLI surface, and CSV emission."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cyberprov import cli
from cyberprov.cli import main
from cyberprov.config import (
    build_contract,
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
from cyberprov.sweep import CSV_COLUMNS, premium_grid, run_sweep


@pytest.fixture()
def defaults():
    return emit_experiment_defaults()


# sha256 of the reference `cyberprov solve` outputs (numpy 2.4.6, scipy 1.17.1).
REFERENCE_SHA256 = {
    "sweep_bm.csv": "c00757ab83b7181b1112517ffae195a4f0292861273808a6fd2e807e69ad0a35",
    "sweep_flat.csv": "9a47aab28f549eb00fc443186a30b8c78ff8410259f5b1c46d4b358759356b4f",
    "thresholds_bm.json": "a988d5e3582e9d84ca71254a1c36035b153511da6572337e21fc40588f3b75a4",
    "thresholds_flat.json": "2c7152627e559dc24f2baaa827b3a4540cbe4ebf6378b0320d22352dac11111f",
}


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
            (lambda d: d["severity"].update(h=1.5), "severity.h"),
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
                pytest.param(_setter(field, value), field, id=f"unknown-{field}")
                for field, value in [
                    ("contract.inactive_transition.1.of_3", [1, "off_1"]),
                    ("contract.inactive_transition.1.off_21", [1, "off_1"]),
                    ("contract.premium_multipliers.7", 1.0),
                    ("contract.claim_transition.9", {"zero": 0, "pieces": [[0.0, 1]]}),
                ]
            ),
        ],
    )
    def test_field_level_errors(self, defaults, mutate, fragment):
        doc = self._broken(defaults, mutate)
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert fragment in str(err.value)

    def test_infinite_cap_solves(self, defaults, tmp_path, reference_context):
        # Infinity is the one non-finite number a config may hold: an
        # uncapped contract.
        doc = defaults.to_dict()
        doc["contract"]["max_compensation"] = math.inf
        path = tmp_path / "uncapped.json"
        path.write_text(json.dumps(doc))
        assert '"max_compensation": Infinity' in path.read_text()
        config = load_config(path)
        ctx = reference_context
        contract = build_contract(config, ctx.menu, 4.70, "bm")
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

    def test_unwritable_output_dir(self, defaults, tmp_path, reference_context):
        doc = defaults.to_dict()
        doc["sweep"] = {"premium_min": 4.7, "premium_max": 4.7, "premium_step": 0.005}
        config = validate_config(doc)
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ConfigError) as err:
            run_sweep(config, out_dir=str(blocker / "sub"), context=reference_context)
        assert str(err.value).startswith(f"output_dir: cannot write {blocker / 'sub'}:")

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
                solution.qoi_total["loss_prevented"],
                insurer_profit(solution),
            )
            assert rows[float(premium)].as_tuple() == expected, premium

    def test_premium_vector_matches_single_solves(self, reference_context):
        # One contract solved at a vector of base premiums gives, bit for
        # bit, the tables of a contract built and solved at each premium.
        ctx = reference_context
        models = (ctx.distributions, ctx.expected_losses)
        premiums = [0.0, 4.41, 4.70, 4.98, 7.0]
        for variant in ("bm", "flat"):
            contract = build_contract(ctx.config, ctx.menu, 1.0, variant)
            batch = solve_premiums(contract, premiums, *models)
            singles = [
                solve(build_contract(ctx.config, ctx.menu, p, variant), *models)
                for p in premiums
            ]
            for premium, got, want in zip(premiums, batch, singles):
                assert got.contract.base_premium == premium
                for name in ("values", "d_opt", "iota_opt", "marginals", "alpha", "claim_prob"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                for name, per_year in want.qoi_per_year.items():
                    assert np.array_equal(got.qoi_per_year[name], per_year), name
        # The simulator reads the premium due through the base premium: the
        # batched bm solution at 4.98, where cover lapses on some paths,
        # replays bit for bit like a contract with that premium baked into
        # its schedule and a base premium of one.
        bm = build_contract(ctx.config, ctx.menu, 1.0, "bm")
        batched = solve_premiums(bm, premiums, *models)[3]
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

    def test_reference_outputs_pinned(self, reference_sweep, reference_dir):
        for name, digest in REFERENCE_SHA256.items():
            data = (reference_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

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
                lambda d: d["contract"]["inactive_transition"]["1"].update(
                    off=[7, "off_1"]
                ),
                "inactive transition",
            ),
            (
                lambda d: d["contract"]["inactive_transition"]["1"].update(off=[7]),
                "contract.inactive_transition.1.off",
            ),
            (
                lambda d: d["contract"]["claim_transition"]["0"].update(
                    pieces=[[0, 1], [5, -2]]
                ),
                "claim transition must be nondecreasing",
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
        # scipy.integrate serves only the moment-matched log-normal; loading
        # it would slow every CLI start, validate included.
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
