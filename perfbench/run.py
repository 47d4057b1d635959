#!/usr/bin/env python3
"""cyberprov benchmark: premium sweeps, Monte Carlo replay, fine-grid build.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_ref --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/selfcheck.py                     # tiny-size self-check

One run is one process. It loads the library from ``src/``, builds the
loss model ``BUILDS`` times (the set-up), and repeats *passes* for
``--seconds`` in all, spread over the builds. A pass is what ``cyberprov
solve`` followed by ``cyberprov mc-check`` does after set-up. Its *solve
part* sweeps the workload's premiums for both variants with fresh layer
tables, writes the CSV and threshold files and solves one premium cold; its
*replay* simulates that policy by Monte Carlo. Every output is checked. With
``--trace 1`` untraced and traced repetitions alternate in one process; the
per-layer metrics come from the traced ones and the tracing overhead is the
difference of the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Single-threaded numerics, set before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if not (SRC / "cyberprov" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cyberprov sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import cyberprov
import cyberprov.config as config_mod
import cyberprov.simulate as simulate_mod
import cyberprov.solver as solver_mod
import cyberprov.sweep as sweep_mod

import tracing

WORKLOADS = ("sweep_ref", "mc_ref", "lognormal_fine")
DEFAULT_SEED = 20240601  # the reference Monte Carlo seed; outputs recorded at it
BUILDS = 3  # set-up repetitions per run; setup_s is their median
STEP = 0.005  # premium grid step of the reference config
BAND = (4.40, 5.10)  # regime band of the reference bm sweep
REPLAY_PREMIUM = 4.70  # base premium of the reference Monte Carlo check
# Roundoff allowance of the checks made on every seed: V0 nondecreasing and
# concave in the premium, retention in [0, 1]. The library can return a
# retention one ulp above 1 (1.0000000000000002 at premium 4.68 of the
# reference config); such rows are counted and reported, not failed.
CHECK_TOL = 1e-9
REFERENCE_TOL = 1e-12  # V0 against the recorded seed-commit values
MASS_TOL = 1e-6
MEAN_GAP_LIMIT = 0.02
MC_REL_FLOOR = 5e-3  # mc-check: |MC - V0| <= max(3 SE, 0.5 % V0)


@dataclass(frozen=True)
class Plan:
    doc: dict  # config document handed to the library
    replay_premium: float
    n_paths: int
    mc_seed: int
    builds: int
    solve_reps: int  # solve parts per replay in one pass
    mc_verdict: bool  # judge the replay by the mc-check verdict


def _grid_point(lo: float, k: int) -> float:
    return round(lo + STEP * k, 9)


def make_plan(workload: str, seed: int, tiny: bool) -> Plan:
    """Derive the workload's config and replay settings from the seed.

    A sweep covers ``width + 1`` premiums spaced ``stride`` grid steps apart,
    starting at a seed-chosen grid point; the work per pass is the same for
    every seed. Tiny plans (the self-check) use 5 adjacent premiums,
    ``k_gr = 16`` and 1e4 paths.
    """
    rng = np.random.default_rng(seed)
    doc = config_mod.emit_experiment_defaults().to_dict()
    k_gr = 16 if tiny else None
    n_paths = 10_000 if tiny else 100_000
    solve_reps = 1
    if workload == "sweep_ref":
        if tiny:
            lo, stride, width = _grid_point(BAND[0], int(rng.integers(0, 137))), 1, 4
        else:  # 33 premiums over 0.8 that always cover the regime band
            lo, stride, width = _grid_point(BAND[0], -int(rng.integers(0, 21))), 5, 32
    elif workload == "mc_ref":
        lo, stride, width = REPLAY_PREMIUM, 1, 0
        n_paths = 10_000 if tiny else 1_000_000  # as the reference mc-check
        # One solve part takes about 0.3 s and the replay about 9 s, so a
        # pass repeats the solve part to give premiums_per_s more time.
        solve_reps = 1 if tiny else 6
    elif workload == "lognormal_fine":
        doc["severity"]["family"] = "lognormal_matched"
        k_gr = k_gr or 22
        if tiny:
            lo, stride, width = _grid_point(4.00, int(rng.integers(0, 297))), 1, 4
        else:  # 4.00 to 5.50 in steps of 0.05
            lo, stride, width = 4.00, 10, 30
    else:
        raise ValueError(f"unknown workload {workload!r}")
    step = round(STEP * stride, 9)
    hi = round(lo + step * width, 9)
    # The replayed premium is the swept one nearest REPLAY_PREMIUM, so the
    # Monte Carlo work barely depends on the seed.
    replay = round(lo + step * min(max(round((REPLAY_PREMIUM - lo) / step), 0), width), 9)
    if k_gr is not None:
        doc["discretization"]["k_gr"] = k_gr
        doc["discretization"]["theta"] = 20.0 / 2**k_gr
    doc["sweep"] = {"premium_min": lo, "premium_max": hi, "premium_step": step}
    doc["mc"] = {"n_paths": n_paths, "seed": seed, "base_premium": replay}
    doc["output_dir"] = "results"
    return Plan(
        doc=doc,
        replay_premium=replay,
        n_paths=n_paths,
        mc_seed=seed,
        builds=1 if tiny else BUILDS,
        solve_reps=solve_reps,
        mc_verdict=workload == "mc_ref",
    )


class Checks:
    """Output checks; every call counts as attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.roundoff = 0  # rows with retention outside [0, 1] within CHECK_TOL

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_model(checks: Checks, ctx) -> None:
    """Mass and closed-form mean of every aggregate-loss distribution."""
    for d, dist in ctx.distributions.items():
        mass = float(dist.probs.sum())
        checks.check(abs(mass - 1.0) <= MASS_TOL, f"measure {d}: mass {mass!r}")
        exact = ctx.expected_losses[d]
        gap = abs(dist.mean() - exact) / exact
        checks.check(gap < MEAN_GAP_LIMIT, f"measure {d}: mean gap {gap:.4f}")


def check_sweep(checks: Checks, results: dict, out_dir: Path, reference) -> None:
    """Finite outputs, retention in [0, 1], V0 nondecreasing and concave.

    With a reference (the workload's default seed), the written files must
    match the recorded digests byte for byte and V0 the recorded values.
    """
    for variant, result in results.items():
        rows = result.rows
        values = np.array([row.as_tuple() for row in rows], dtype=float)
        checks.check(np.isfinite(values).all(), f"{variant}: non-finite output")
        retention = np.array([row.retention for row in rows])
        checks.check(
            ((retention >= -CHECK_TOL) & (retention <= 1.0 + CHECK_TOL)).all(),
            f"{variant}: retention outside [0, 1]",
        )
        checks.roundoff += int(((retention < 0.0) | (retention > 1.0)).sum())
        p = np.array([row.base_premium for row in rows])
        v = np.array([row.V0 for row in rows])
        checks.check((np.diff(v) >= -CHECK_TOL).all(), f"{variant}: V0 decreases")
        if len(v) > 2:
            chord = v[:-2] + (v[2:] - v[:-2]) * (p[1:-1] - p[:-2]) / (p[2:] - p[:-2])
            checks.check(
                (v[1:-1] >= chord - CHECK_TOL).all(), f"{variant}: V0 not concave"
            )
        if reference is not None:
            ref_v = np.array(reference["V0"][variant])
            checks.check(
                ref_v.shape == v.shape and np.abs(v - ref_v).max() <= REFERENCE_TOL,
                f"{variant}: V0 differs from the recorded values",
            )
    if reference is not None:
        for name, digest in reference["files"].items():
            got = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            checks.check(got == digest, f"{name}: digest differs from the recorded one")


def check_replay(checks: Checks, solution, mc, results: dict, premium: float, verdict: bool) -> None:
    """The replay, and the cold solve against the sweep row.

    With ``verdict`` the replay must pass the mc-check verdict; otherwise
    its mean and standard error must be finite. Short replays get no
    verdict: the cost is heavy-tailed, and with 5e4 paths the 3-SE test
    fails for about one seed in 40 although solver and simulator agree.
    """
    v0 = solution.value
    ok = bool(np.isfinite([mc.mean, mc.std_error]).all())
    if verdict:
        bound = max(3.0 * mc.std_error, MC_REL_FLOOR * abs(v0))
        ok = ok and abs(mc.mean - v0) <= bound
    checks.check(ok, f"mc-check: {mc.mean} +- {mc.std_error} vs V0 {v0}")
    row = [r for r in results["bm"].rows if abs(r.base_premium - premium) < 1e-9]
    checks.check(
        len(row) == 1 and abs(row[0].V0 - v0) <= REFERENCE_TOL,
        f"cold solve at {premium} differs from the sweep row",
    )


def build(config_path: Path):
    """Set-up: config load and the premium-independent loss model."""
    config = config_mod.load_config(config_path)
    return config, sweep_mod.SweepContext(config)


def solve_part(ctx, config, plan: Plan, out_dir: Path, checks: Checks, reference):
    """`cyberprov solve` over the workload's premiums, then mc-check's cold solve.

    Returns the timings, the sweep results and the cold solution.
    """
    t0 = perf_counter()
    ctx.grid_cache = {}  # each part builds its layer tables, as one CLI run does
    results = sweep_mod.run_sweep(
        config, variants=config_mod.VARIANTS, out_dir=str(out_dir), context=ctx
    )
    points = sum(len(r.rows) for r in results.values())
    ctx.grid_cache = {}  # the sweep's tables go, as when `cyberprov solve` exits
    # As `cyberprov mc-check`: one cold solve, no shared layer tables.
    contract = config_mod.build_contract(config, ctx.menu, plan.replay_premium, "bm")
    solution = solver_mod.solve(contract, ctx.distributions, ctx.expected_losses)
    solver_mod.occupancy_summaries(solution)
    solver_mod.insurer_profit(solution)
    t1 = perf_counter()
    check_sweep(checks, results, out_dir, reference)
    info = {
        "solve_s": t1 - t0,
        "points": points + 1,
        "part_s": perf_counter() - t0,
        "write_bytes": sum(f.stat().st_size for f in out_dir.iterdir()),
    }
    return info, results, solution


def replay_part(ctx, plan: Plan, checks: Checks, results: dict, solution) -> dict:
    """mc-check's replay of the cold solution, and its check."""
    t0 = perf_counter()
    mc = simulate_mod.simulate(
        solution,
        ctx.severity,
        ctx.frequency,
        simulate_mod.SimulationConfig(n_paths=plan.n_paths, seed=plan.mc_seed),
    )
    t1 = perf_counter()
    check_replay(checks, solution, mc, results, plan.replay_premium, plan.mc_verdict)
    return {
        "sim_s": t1 - t0,
        "path_years": plan.n_paths * solution.contract.horizon,
        "part_s": perf_counter() - t0,
    }


# --------------------------------------------------------------------------
# Per-layer metrics from a traced repetition


def layer_metrics(spans, hot) -> dict:
    """Layer counts and times of one traced repetition (a build or a pass)."""
    m: dict = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for name, start, end, _parent, child, attrs in spans:
        dur = end - start
        if name == "config.load":
            add("config.load_s", dur)
        elif name == "config.build_contract":
            add("config.build_contract_calls", 1)
            add("config.build_contract_s", dur)
        elif name == "severity.cdf":
            add("severity.cdf_calls", 1)
            add("severity.cdf_points", attrs["points"])
            add("severity.cdf_s", dur)
        elif name == "severity.sample":
            add("severity.sample_points", attrs["points"])
            add("severity.sample_s", dur)
            add("simulate.events", attrs["points"])
        elif name == "compound.fft":
            add("compound.fft_calls", 1)
            add("compound.atoms", attrs["atoms"])
            add("compound.fft_self_s", dur - child)
            # Computed: one complex128 array of n per transform pass, two passes.
            add("compound.fft_bytes_computed", 2 * 16 * attrs["atoms"])
        elif name == "compound.layer_grid_build":
            add("compound.layer_grid_builds", 1)
            add("compound.layer_grid_build_s", dur)
        elif name == "solver.solve":
            add("solver.solves", 1)
            add("solver.solve_self_s", dur - child)
            add("solver.kernel_bytes_computed", attrs["kernel_bytes"])
        elif name == "solver.report":
            add("solver.report_s", dur)
        elif name == "simulate.simulate":
            add("simulate.path_years", attrs["path_years"])
            add("simulate.self_s", dur - child)
        elif name == "sweep.row":
            add("sweep.rows", 1)
        elif name == "sweep.write":
            add("sweep.write_s", dur)
    for (name, _owner), (calls, self_s) in hot.items():
        if name == "compound.layer_query":
            add("compound.layer_queries", calls)
            add("compound.layer_query_s", self_s)
        elif name == "intervals":
            add("intervals.calls", calls)
            add("intervals.s", self_s)
        elif name == "contract.claim_level":
            add("contract.claim_level_calls", calls)
            add("contract.claim_level_s", self_s)
    return m


def self_times(spans, hot) -> dict:
    """Self time per span name, for the set-up breakdown."""
    out: dict = {}
    for name, start, end, _parent, child, _attrs in spans:
        out[name] = out.get(name, 0.0) + (end - start - child)
    for (name, _owner), (_calls, self_s) in hot.items():
        out[name] = out.get(name, 0.0) + self_s
    return out


def solve_percentiles(spans) -> dict:
    out = {}
    for variant in ("bm", "flat"):
        ms = [
            1e3 * (end - start)
            for name, start, end, _p, _c, attrs in spans
            if name == "solver.solve" and attrs["variant"] == variant
        ]
        for q in (50, 99):
            out[f"solver.solve_ms_p{q}.{variant}"] = float(np.percentile(ms, q)) if ms else 0.0
        out[f"solver.solve_samples.{variant}"] = len(ms)
    return out


def median_of(reps: list, key: str) -> float:
    return statistics.median(rep.get(key, 0) for rep in reps) if reps else 0.0


# --------------------------------------------------------------------------
# Run


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = "unknown"
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size = (read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    commit = "unknown"
    head = read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = read(ROOT / ".git" / head[5:]) or commit
    elif head:
        commit = head
    return {
        "commit": commit,
        "cpu": cpu,
        "caches": caches,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def load_reference(workload: str, seed: int, tiny: bool):
    path = HERE / "reference.json"
    if tiny or not path.is_file():
        return None
    entry = json.loads(path.read_text()).get(workload)
    return entry if entry is not None and entry["seed"] == seed else None


def run_workload(args) -> dict:
    workload, seed = args.workload, args.seed
    plan = make_plan(workload, seed, args.tiny)
    run_dir = OUT / f"{workload}-seed{seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    out_dir = run_dir / "results"  # what the passes write, and nothing else
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(plan.doc, indent=2) + "\n")
    reference = load_reference(workload, seed, args.tiny)
    checks = Checks()
    env = environment()
    traced_modes = (False, True) if args.trace else (False,)
    tracer = tracing.Tracer()
    setups = {mode: [] for mode in traced_modes}
    solves = {mode: [] for mode in traced_modes}
    replays = {mode: [] for mode in traced_modes}
    pass_s = {mode: [] for mode in traced_modes}
    layer_reps = {"build": [], "solve": [], "replay": []}
    setup_selfs = []
    pass_spans = []

    def repeat(kind, traced, body):
        undo = tracing.install(tracer) if traced else None
        first = len(tracer.spans)
        try:
            result = body()
        finally:
            if undo is not None:
                tracing.uninstall(undo)
        if traced:
            spans = tracer.spans[first:]
            hot = {k: list(v) for k, v in tracer.hot.items()}
            tracer.hot.clear()
            layer_reps[kind].append(layer_metrics(spans, hot))
            if kind == "build":
                setup_selfs.append(self_times(spans, hot))
            else:
                pass_spans.extend(spans)
        return result

    def run_pass(traced):
        """solve_reps solve parts, then the replay of the last cold solve."""
        t0 = perf_counter()
        for _ in range(plan.solve_reps):
            info, results, solution = repeat(
                "solve", traced, lambda: solve_part(ctx, config, plan, out_dir, checks, reference)
            )
            solves[traced].append(info)
        replays[traced].append(
            repeat("replay", traced, lambda: replay_part(ctx, plan, checks, results, solution))
        )
        pass_s[traced].append(perf_counter() - t0)

    def order():  # untraced and traced go first in turn
        return traced_modes[:: -1 if (len(setups[False]) + len(pass_s[False])) % 2 else 1]

    # Builds are spread over the run, each followed by its share of the
    # passes, so that set-up samples do not share one stretch of machine
    # speed. A pass starts only while at least half of its expected length
    # fits in the share; the first pass of a run always starts.
    ctx = config = None
    rounds = []  # length of each round of passes (one per traced mode)
    for build_no in range(plan.builds):
        for traced in order():
            ctx = config = None  # free the previous model before timing a build
            t0 = perf_counter()
            config, ctx = repeat("build", traced, lambda: build(config_path))
            setups[traced].append(perf_counter() - t0)
            check_model(checks, ctx)
        share_end = args.seconds * (build_no + 1) / plan.builds
        while True:
            if rounds and sum(rounds) + statistics.median(rounds) / 2 > share_end:
                break
            t0 = perf_counter()
            for traced in order():
                run_pass(traced)
            rounds.append(perf_counter() - t0)

    def wall(mode):  # one build, one solve part and one replay, checks included
        return (
            statistics.median(setups[mode])
            + statistics.median(p["part_s"] for p in solves[mode])
            + statistics.median(p["part_s"] for p in replays[mode])
        )

    # The throughputs are totals over the run, not medians of parts: the
    # host's speed wanders in stretches of seconds, and the total weighs
    # every stretch by its length.
    untraced_solves, untraced_replays = solves[False], replays[False]
    e2e = {
        "setup_s": (statistics.median(setups[False]), "s"),
        "wall_s": (wall(False), "s"),
        "premiums_per_s": (
            sum(p["points"] for p in untraced_solves) / sum(p["solve_s"] for p in untraced_solves),
            "1/s",
        ),
        "mc_path_years_per_s": (
            sum(p["path_years"] for p in untraced_replays)
            / sum(p["sim_s"] for p in untraced_replays),
            "1/s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    layers = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        values = {}
        for key in set().union(*(rep for reps in layer_reps.values() for rep in reps)):
            values[key] = sum(median_of(reps, key) for reps in layer_reps.values())
        values.update(solve_percentiles(pass_spans))
        values["sweep.write_bytes"] = statistics.median(p["write_bytes"] for p in solves[True])
        values["trace.overhead_s"] = wall(True) - wall(False)
        layers = {name: (float(values.get(name, 0.0)), unit) for name, unit in units.items()}
        tracer.dump(
            run_dir / "trace.json",
            {"workload": workload, "seed": seed, "environment": env},
        )

    failed = len(checks.failures)
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "builds": plan.builds,
        "passes": len(pass_s[False]),
        "setup_samples_s": setups[False],
        "pass_samples_s": pass_s[False],
        "solve_parts": solves[False],
        "replays": replays[False],
        "failed_frac": failed / checks.attempted,
        "failures": checks.failures[:20],
        "retention_roundoff_rows": checks.roundoff,
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }
    if args.trace:
        summary["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        summary["solve_samples"] = {v: values[f"solver.solve_samples.{v}"] for v in ("bm", "flat")}
        summary["traced_setup_samples_s"] = setups[True]
        summary["traced_pass_samples_s"] = pass_s[True]
        summary["setup_self_s"] = {
            name: statistics.median(rep.get(name, 0.0) for rep in setup_selfs)
            for name in set().union(*setup_selfs)
        }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"workload {workload}  seed {seed}  passes {len(pass_s[False])}  builds {plan.builds}")
    print(f"environment {json.dumps(summary['environment'])}")
    shown = dict(e2e)
    shown["failed_frac"] = (failed / checks.attempted, "ratio")
    if args.trace:
        shown.update(layers)
        print("set-up self time by span (traced, median of builds):")
        for name, s in sorted(summary["setup_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<28} {s:10.4f} s")
        print(f"tracing overhead: traced wall_s - untraced wall_s = {values['trace.overhead_s']:+.4f} s")
    for name, (value, unit) in shown.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    if checks.roundoff:
        print(f"note: {checks.roundoff} rows with retention outside [0, 1] by roundoff")
    for what in checks.failures[:20]:
        print(f"  check failed: {what}")
    metrics = layers if args.trace else e2e
    return {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args) -> dict:
    """Each workload in its own fresh process; prints their metric tables."""
    combined = {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(args.seed if args.seed is not None else DEFAULT_SEED),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {workload} exited with {proc.returncode}")
        combined[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": {
            f"{w}.{k}": v for w, r in combined.items() for k, v in r["metrics"].items()
        },
    }


def record_reference() -> None:
    """Write the default-seed digests and V0 values of the current code."""
    reference = {}
    for workload in WORKLOADS:
        seed = DEFAULT_SEED
        plan = make_plan(workload, seed, tiny=False)
        out_dir = OUT / f"reference-{workload}" / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        config_path = out_dir.parent / "config.json"
        config_path.write_text(json.dumps(plan.doc, indent=2) + "\n")
        config, ctx = build(config_path)
        results = sweep_mod.run_sweep(
            config, variants=config_mod.VARIANTS, out_dir=str(out_dir), context=ctx
        )
        reference[workload] = {
            "seed": seed,
            "files": {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out_dir.iterdir())
            },
            "V0": {v: [row.V0 for row in r.rows] for v, r in results.items()},
        }
        print(f"recorded {workload}")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="k_gr 16, 5 premiums, 1e4 paths")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if Path(cyberprov.__file__).resolve().parent != SRC / "cyberprov":
        sys.exit(f"perfbench: imported cyberprov from {cyberprov.__file__}, not {SRC}")
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args)
    else:
        if args.seed is None:
            args.seed = DEFAULT_SEED
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
