"""The benchmark's contract with the package, checked by the benchmark's own test.

The traced case of ``bench/test_bench.py`` runs here for each workload at its
tiny size: every run must pass its correctness checks and report a number for
every per-layer metric in BENCHMARK.json.  A missing number means an entry
point that the benchmark's tracer wraps is gone, so the benchmark would no
longer measure that layer.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_TEST = Path(__file__).resolve().parents[1] / "bench" / "test_bench.py"


def _load_bench_test():
    spec = importlib.util.spec_from_file_location("bench_self_test", BENCH_TEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench_test()


@pytest.mark.parametrize("workload", bench.NAMES)
def test_traced_tiny_run_reports_every_layer(workload):
    bench.test_reports_every_metric_and_checks(workload, trace=1)
