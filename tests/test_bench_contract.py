"""The benchmark's contract with the package, checked by the benchmark's own test.

The traced case of ``bench/test_bench.py`` runs here for each workload at its
tiny size: every run must pass its correctness checks and report a number for
every per-layer metric in BENCHMARK.json.  A missing number means an entry
point that the benchmark's tracer wraps is gone, so the benchmark would no
longer measure that layer.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_TEST = ROOT / "bench" / "test_bench.py"


def _load_bench_test():
    spec = importlib.util.spec_from_file_location("bench_self_test", BENCH_TEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench_test()


@pytest.mark.parametrize("workload", bench.NAMES)
def test_traced_tiny_run_reports_every_layer(workload):
    bench.test_reports_every_metric_and_checks(workload, trace=1)


@pytest.mark.parametrize("seed", [24, 63])
def test_unitprob_window_gate_at_seeds_with_band_exits(seed, tmp_path):
    """At these seeds a path of the full-size unitprob-window run is thrown
    off the characteristic; were it to run on as completed, criterion 4's
    per-path band check would fail the benchmark's gate."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--workload", "unitprob-window",
         "--seed", str(seed), "--dir", str(tmp_path), "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (tmp_path / "result.json").is_file(), proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert proc.returncode == 0 and result["ok"], (result["checks"], proc.stderr)
