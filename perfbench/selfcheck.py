#!/usr/bin/env python3
"""Self-check of the benchmark at tiny size (k_gr 16, 5 premiums, 1e4 paths).

Run from the repository root:

    python3 perfbench/selfcheck.py

It asserts that

* one command (``--workload all``) prints every end-to-end metric of
  BENCHMARK.json, and ``failed_frac``, with its unit for every workload;
* every traced run prints every per-layer metric with its unit, and two
  traced runs at the same seed give identical count metrics;
* the output checks run, and count a failure for each kind of bad output;
* in a directory holding only BENCHMARK.json and ``perfbench/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (sets thread variables, loads src/)
from cyberprov.sweep import SweepResult, SweepRow  # noqa: E402


def run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(lines, name, unit) -> bool:
    return any(l.split()[:1] == [name] and l.split()[-1] == unit for l in lines)


def check_result_shape(result: dict, lines) -> None:
    """The checks ran, and every failure printed is counted in ``failed``.

    Failures are allowed here: at ``k_gr = 16`` the lognormal grid misses
    the 2 % mean-gap bound (2.03 %), which the full-size grid meets.
    """
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    shown = [l for l in lines if l.strip().startswith("check failed:")]
    assert result["failed"] == len(shown) and result["correct"] == (not shown), result
    for line in shown:
        print("  seen:", line.strip())


def check_all_end_to_end() -> None:
    proc = run(["--workload", "all", "--tiny", "--seconds", "1", "--trace", "0"])
    result = last_json(proc)
    lines = proc.stdout.splitlines()
    check_result_shape(result, lines)
    blocks = {}
    for line in lines:
        if line.startswith("workload "):
            current = blocks.setdefault(line.split()[1], [])
        elif blocks:
            current.append(line)
    assert set(blocks) == set(bench.WORKLOADS), blocks.keys()
    for workload, block in blocks.items():
        for metric in SPEC["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            assert printed(block, name, unit), (workload, name)
            value = result["metrics"][f"{workload}.{name}"]
            assert value["unit"] == unit and math.isfinite(value["value"]) and value["value"] > 0
        assert printed(block, "failed_frac", "ratio"), workload
    print("ok: all end-to-end metrics printed with units for", ", ".join(blocks))


def check_traced(workload: str) -> None:
    results = []
    for _ in range(2):
        proc = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--tiny"])
        result = last_json(proc)
        lines = proc.stdout.splitlines()
        check_result_shape(result, lines)
        assert any(l.startswith("tracing overhead:") for l in lines)
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, set(got) ^ set(expected)
        for name, unit in expected.items():
            assert printed(lines, name, unit), (workload, name)
            assert math.isfinite(result["metrics"][name]["value"])
        results.append(result["metrics"])
    counts = [
        {k: v["value"] for k, v in r.items() if v["unit"] in COUNT_UNITS} for r in results
    ]
    assert counts[0] == counts[1], {k for k in counts[0] if counts[0][k] != counts[1][k]}
    print(f"ok: {workload} traced: every per-layer metric, counts repeat exactly")


def row(premium, v0, retention=1.0, profit=-1.0):
    return SweepRow(premium, v0, retention, 0.0, 0.0, 20.0, 0.0, 0.0, 20.0, 1.0, profit)


def check_failures_counted() -> None:
    out_dir = bench.OUT / "selfcheck"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep_bm.csv").write_text("x\n")

    checks = bench.Checks()
    good = [row(4.0, 1.0), row(4.1, 2.0), row(4.2, 2.5)]
    reference = {
        "files": {"sweep_bm.csv": hashlib.sha256(b"x\n").hexdigest()},
        "V0": {"bm": [1.0, 2.0, 2.5]},
    }
    bench.check_sweep(checks, {"bm": SweepResult("bm", good, [])}, out_dir, reference)
    assert checks.attempted == 6 and not checks.failures, checks.failures

    bad = [row(4.0, 1.0, retention=1.5), row(4.1, 1.1), row(4.2, 3.0, profit=math.nan)]
    reference["files"]["sweep_bm.csv"] = "0" * 64
    checks = bench.Checks()
    bench.check_sweep(checks, {"bm": SweepResult("bm", bad, [])}, out_dir, reference)
    # non-finite, retention, concavity, recorded V0 and digest fail; monotone holds.
    assert len(checks.failures) == 5, checks.failures

    dist = SimpleNamespace(probs=bench.np.full(4, 0.24), mean=lambda: 1.0)
    checks = bench.Checks()
    bench.check_model(checks, SimpleNamespace(distributions={0: dist}, expected_losses={0: 1.1}))
    assert len(checks.failures) == 2, checks.failures

    solution = SimpleNamespace(value=10.0)
    mc = SimpleNamespace(mean=10.2, std_error=0.01)
    checks = bench.Checks()
    rows = {"bm": SweepResult("bm", [row(4.7, 10.0)], [])}
    bench.check_replay(checks, solution, mc, rows, 4.7, verdict=True)
    assert len(checks.failures) == 1 and checks.attempted == 2, checks.failures
    checks = bench.Checks()
    nan = SimpleNamespace(mean=math.nan, std_error=0.01)
    bench.check_replay(checks, solution, nan, rows, 4.75, verdict=False)
    assert len(checks.failures) == 2, checks.failures
    print("ok: output checks count each kind of failure")


def check_bare_directory() -> None:
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(
        ["--workload", "sweep_ref", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        script=bare / "perfbench" / "run.py",
    )
    assert proc.returncode != 0, proc.returncode
    assert '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok: without the sources the benchmark exits", proc.returncode, "and prints no result")


def main() -> int:
    check_failures_counted()
    check_bare_directory()
    check_all_end_to_end()
    for workload in bench.WORKLOADS:
        check_traced(workload)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
