"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

It runs a handful of cheap CLI operations through the same workers, checks
and metric derivation as the real workloads, and checks that every metric
named in BENCHMARK.json appears and that failures are counted.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = [
    ["verify", "--suite", "matrix", "--J-max", "1", "--tau", "0.2"],
    ["verify", "--suite", "casimir", "--J-max", "0.5", "--q", "1.5"],
    ["gram", "--N", "0.5", "--J-max", "0.5", "--tau", "0.2"],
    ["eval", "--fn", "L", "--tau", "0.2", "--grid", "0.1:2:40"],
    ["eval", "--fn", "Q", "--J", "0.5", "--tau", "-0.2", "--grid", "0.1:2:40"],
    ["eval", "--fn", "psi", "--J", "0.5", "--M", "-0.5", "--N", "0.5", "--tau", "0.2",
     "--grid", "0.1:2:40"],
]


def test_every_end_to_end_metric_appears():
    result, report, _ = run.measure(TINY, False, checks.check)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY)
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert report["failed_frac"] == 0 and report["headroom_digits"] > 0


def test_every_per_layer_metric_appears():
    result, _, traced = run.measure(TINY, True, checks.check)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(TINY)
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert all(op.trace["start"].size for op in traced)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("qcore.q_number.calls", "qspecial.l_function.calls", "qspecial.leggauss.calls",
                 "qspecial.q_infinite_product.calls", "qspecial.psi.calls", "qops.stencil.evals",
                 "qops.psi_per_casimir", "quadrature.radial_integral.calls", "qinner.inner.calls",
                 "suites.matrix.wall_s", "suites.casimir.wall_s", "suites.cases",
                 "cli.main.wall_s", "cli.output_bytes"):
        assert values[name] > 0, name
    assert values["suites.cases_failed"] == 0


def test_a_failing_case_counts_as_failed():
    bad = TINY[0] + ["--tol", "1e-300"]   # no residual can pass
    result, report, _ = run.measure([TINY[0], bad], False, checks.check)
    assert result["failed"] == 1 and report["failed_frac"] == 0.5
    assert report["headroom_digits"] < 0
    assert result["correct"]              # the program reported the miss itself


def test_a_bad_check_counts_as_failed():
    def never_passes(argv, code, stdout):
        c = checks.check(argv, code, stdout)
        if argv[0] == "eval":
            c.ok = c.consistent = False
        return c
    result, report, _ = run.measure([TINY[0], TINY[3]], False, never_passes)
    assert result["failed"] == 1 and report["failed_frac"] == 0.5
    assert not result["correct"]


def test_batches_depend_only_on_the_seed():
    for name in workloads.GENERATORS:
        first = workloads.batch(name, 3, 30)
        assert first == workloads.batch(name, 3, 30)
        assert first != workloads.batch(name, 4, 30)
    for argv in workloads.batch("circle-verify", 5, 30) + workloads.batch("circle-forms", 5, 30):
        tau = abs(float(argv[argv.index("--tau") + 1]))
        assert 0.10 <= tau <= 0.30
    for argv in workloads.batch("real-verify", 5, 30):
        q = float(argv[argv.index("--q") + 1])
        assert 0.36 < q < 2.72 and not 0.90 < q < 1.11


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "circle-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
