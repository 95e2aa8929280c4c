"""Self-test of the benchmark at tiny sizes; not part of the tier-1 suite.

    python3 -m pytest bench/test_bench.py -q

Every workload runs untraced and traced.  The test checks that each run
reports every metric named in BENCHMARK.json with its unit, that the
correctness checks ran and passed, and that the benchmark refuses to run
without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_reports_every_metric_and_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    reps = json.loads(detail_line)["detail"]["repetitions"]
    for rep in reps:
        assert rep["checks"] and all(rep["checks"].values()), rep["checks"]
    if workload == "cli-index1":
        assert reps[0]["rerun_byte_identical"] is True


def test_traced_counts():
    proc = run_bench("bounded-newton", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["bounded.newton_iters_per_step"]["value"] == 1.0
    assert metrics["integrator.engine_steps"]["value"] == 2 * 20  # two chunks of 20 steps


def test_index1_input_is_the_acceptance_problem():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    from child import INDEX1_PROBLEM
    from sdaekit.problem import load_problem, print_problem
    from test_acceptance import index1_test_problems

    noisy = list(index1_test_problems())[2]
    assert noisy.m == 2 and not noisy.gamma_is_zero()
    assert print_problem(load_problem(INDEX1_PROBLEM)) == print_problem(noisy)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
