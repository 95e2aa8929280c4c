"""One repetition of one benchmark workload, in a fresh interpreter.

Run by ``bench/run.py``; not meant to be called by hand, though it can be:

    PYTHONPATH=src python3 bench/child.py --workload unitprob-window --seed 1 \
        --dir .bench_work/x --trace 0

The timed part is everything up to the end of the workload's own work.  The
correctness checks and the output digest run afterwards; their duration is
reported as ``check_s`` so the parent can take it off the process wall time.
Results go to ``<dir>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import re
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Workload settings.  "tiny" keeps every code path (two chunks for the
# bounded run, saved path CSVs for the CLI run) at a size the self-test can
# afford.
SIZES = {
    "bounded-newton": {
        "full": {"paths": 512, "chunk": 256, "dt": 1e-4, "T": 1.0},
        "tiny": {"paths": 4, "chunk": 2, "dt": 1e-3, "T": 0.02},
    },
    "unitprob-window": {
        "full": {"paths": 512, "chunk": 512, "dt": 1e-5, "T": 0.1},
        "tiny": {"paths": 8, "chunk": 8, "dt": 1e-5, "T": 0.002},
    },
    "cli-index1": {
        "full": {"paths": 200, "dt": 1e-4, "T": 1.0, "save_paths": 16},
        "tiny": {"paths": 4, "dt": 1e-3, "T": 0.02, "save_paths": 2},
    },
}

EPSILON, ALPHA, BOX = 0.5, 0.8, [(-2.0, 2.0), (-5.0, 5.0)]  # Algorithm 2 settings
UNITPROB_EPS, BAND_SLACK = 0.25, 0.05  # Algorithm 1 band and the criterion-4 widening

# The 2x2 noisy-constraint index-1 problem (m = 2, Gamma != 0) of the
# acceptance suite, in the problem-file format.
INDEX1_PROBLEM = """\
[dims]
n=2 m=2 p=2 d=2
[drift]
x2 + u1
-x1 + u2
[diffusion]
0.2, 0
0.1, 0.3
[constraint]
u1 + 0.1*u2 - x1 - 0.05*x2^2
u2 - 0.2*x2 + 0.3*sin(x1)
[constraint_noise]
0.05, 0
0, 0.1
[initial]
x = 0.0, 0.0
u = 0.0, 0.0
"""


def _hash_paths(h, ens) -> None:
    for p in ens.paths:
        h.update(p.states.tobytes())
        h.update(p.dW.tobytes())
        h.update(str(p.status).encode())


def _summary(ens, steps: int) -> dict:
    return {
        "paths": len(ens.paths),
        "steps": steps,
        "path_steps": sum(len(p) - 1 for p in ens.paths),
        "completed": sum(1 for p in ens.paths if p.status.completed),
    }


# ---------------------------------------------------------------------------
# workloads: run(size, seed, work_dir) -> checks(); each returns a dict
# ---------------------------------------------------------------------------


def run_bounded_newton(size: dict, seed: int, work_dir: Path):
    import sdaekit

    pr = sdaekit.builtin("paper-example")
    sup = sdaekit.sup_trace(pr, BOX)
    b = sdaekit.choose_b(sup.raw, EPSILON, ALPHA)
    cfg = sdaekit.BoundedMConfig(epsilon=EPSILON, alpha=ALPHA, box=BOX, b=b, J_raw=sup.raw)
    ens = sdaekit.run_bounded_ensemble(
        pr, cfg, size["dt"], size["T"], size["paths"], seed,
        sdaekit.SolveMode.NEWTON_PER_STEP, chunk=size["chunk"],
    )
    report = sdaekit.verify_bound(ens, cfg)

    def checks() -> dict:
        import numpy as np

        from sdaekit.integrator import n_steps

        out = _summary(ens, n_steps(size["T"], size["dt"]))
        t = report.t_grid
        bound = cfg.J_raw * (1.0 - np.exp(-2.0 * cfg.b * t)) / (2.0 * cfg.b)
        out["checks"] = {
            # criterion 1: the gain a user gets from sup_trace / choose_b
            "gain_b_is_11": math.isclose(cfg.b, 11.0, rel_tol=1e-12),
            # criterion 2: probability target and the mean-square bound curve
            "max_empirical_p_le_alpha": bool(np.nanmax(report.empirical_p) <= ALPHA),
            "bound_curve_matches": bool(np.allclose(report.bound_curve, bound, rtol=1e-12, atol=0)),
            "mean_sq_le_bound_3se": bool(
                (report.mean_sq_lambda <= bound + 3.0 * report.se_mean_sq + 1e-15).all()
            ),
        }
        out["constraint_err"] = float(np.max(report.mean_sq_lambda[1:] / bound[1:]))
        out["newton_iters"] = sum(p.metadata["newton_iterations"] for p in ens.paths)
        h = hashlib.sha256()
        _hash_paths(h, ens)
        for arr in (report.empirical_p, report.mean_sq_lambda, report.se_mean_sq, report.mean_g):
            h.update(arr.tobytes())
        out["digest"] = h.hexdigest()
        return out

    return checks


def run_unitprob_window(size: dict, seed: int, work_dir: Path):
    import numpy as np

    import sdaekit

    pr = sdaekit.builtin("paper-example")
    spec = sdaekit.paper_example_spec(UNITPROB_EPS)
    red = sdaekit.build_unit_prob_sde(pr, spec)
    init = np.concatenate([pr.x0, sdaekit.consistent_init(spec, pr)])
    ens = sdaekit.run_ensemble(
        red.sde(), init, size["dt"], size["T"], size["paths"], seed,
        chunk=size["chunk"], problem=pr,
    )

    def checks() -> dict:
        from sdaekit.integrator import n_steps

        out = _summary(ens, n_steps(size["T"], size["dt"]))
        g = sdaekit.expr.CompiledVector(pr.g)
        band = UNITPROB_EPS + BAND_SLACK
        norms = []
        completed_inside = True
        for p in ens.paths:
            env = sdaekit.expr.make_env(p.labels, p.states)
            nrm = np.abs(g(env, (len(p),))).max(axis=1)
            norms.append(nrm)
            if p.status.completed:
                completed_inside &= bool(np.mean(nrm < band) >= 0.99)
        pooled = np.concatenate(norms)
        out["checks"] = {
            # criterion 4: every integrated step of every path, pooled
            "pooled_band_frac_ge_0.99": bool(np.mean(pooled < band) >= 0.99),
            "completed_paths_in_band": completed_inside,
        }
        out["constraint_err"] = float(np.mean(pooled) / UNITPROB_EPS)
        h = hashlib.sha256()
        _hash_paths(h, ens)
        out["digest"] = h.hexdigest()
        return out

    return checks


def cli_solve_argv(size: dict, seed: int, problem: Path, out_dir: Path) -> list[str]:
    return [
        "solve", str(problem), "--method", "index1",
        "--dt", repr(size["dt"]), "--t-end", repr(size["T"]),
        "--paths", str(size["paths"]), "--seed", str(seed),
        "--save-paths", str(size["save_paths"]), "--out", str(out_dir),
    ]


def manifest_digest(out_dir: Path) -> tuple[str, list[str]]:
    """sha256 over every manifest output, and the outputs that are missing."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    h = hashlib.sha256()
    missing = []
    for rel in manifest["outputs"]:
        path = out_dir / rel
        if not path.is_file():
            missing.append(rel)
            continue
        h.update(rel.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest(), missing


def run_cli_index1(size: dict, seed: int, work_dir: Path):
    import sdaekit.cli

    out_dir = work_dir / "out"
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = sdaekit.cli.main(cli_solve_argv(size, seed, work_dir.parent / "index1.sdae", out_dir))
    sys.stdout.write(captured.getvalue())

    def checks() -> dict:
        import numpy as np

        from sdaekit.integrator import n_steps

        out = {"paths": size["paths"], "steps": n_steps(size["T"], size["dt"])}
        out["checks"] = {"exit_code_0": code == 0}
        if code != 0:
            return out
        digest, missing = manifest_digest(out_dir)
        out["checks"]["manifest_outputs_present"] = not missing
        out["digest"] = digest
        m = re.search(r"(\d+) path\(s\), (\d+) completed", captured.getvalue())
        out["checks"]["summary_printed"] = m is not None and int(m.group(1)) == size["paths"]
        out["completed"] = int(m.group(2)) if m else 0
        report = np.genfromtxt(out_dir / "report.csv", delimiter=",", names=True)
        out["path_steps"] = int(report["alive"][1:].sum())
        out["constraint_err"] = float(np.mean(report["mean_sq_lambda"]))
        return out

    return checks


WORKLOADS = {
    "bounded-newton": ("sdaekit", run_bounded_newton),
    "unitprob-window": ("sdaekit", run_unitprob_window),
    "cli-index1": ("sdaekit.cli", run_cli_index1),
}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(tracer, res: dict, import_s: float, rss_end: float) -> dict:
    """Name -> (value or None when the entry point is missing, unit)."""
    sp = tracer.span
    counters = tracer.counters

    def calls(name):
        s = sp(name)
        return None if s is None else s.calls

    def secs(name):
        s = sp(name)
        return None if s is None else s.total_s

    def ratio(num, den, scale=1.0):
        if num is None or den is None:
            return None
        return num * scale / den if den else 0.0

    guard_calls = [calls("index1.guard"), calls("unit_prob.guard")]
    newton = calls("bounded.newton")
    if None in guard_calls or newton is None:
        engine_steps = None
    else:
        engine_steps = sum(guard_calls) + counters.get("engine.newton_steps", 0)
    engine = sp("integrator.engine")
    engine_self = None if engine is None else engine.self_s
    kernel_calls = calls("expr.kernel")
    newton_iters = res.get("newton_iters", 0) if newton is not None else None

    def present(name, value):
        return None if sp(name) is None else value

    return {
        "expr.kernel_calls": (kernel_calls, "count"),
        "expr.kernel_calls_per_step": (ratio(kernel_calls, engine_steps), "1/step"),
        "expr.kernel_s": (secs("expr.kernel"), "s"),
        "expr.compile_calls": (calls("expr.compile"), "count"),
        "expr.compile_s": (secs("expr.compile"), "s"),
        "index1.coeff_calls": (calls("index1.coeff"), "count"),
        "index1.coeff_s": (secs("index1.coeff"), "s"),
        "index1.guard_s": (secs("index1.guard"), "s"),
        "index1.build_s": (secs("index1.build"), "s"),
        "unit_prob.coeff_calls": (calls("unit_prob.coeff"), "count"),
        "unit_prob.coeff_s": (secs("unit_prob.coeff"), "s"),
        "unit_prob.guard_s": (secs("unit_prob.guard"), "s"),
        "unit_prob.build_s": (secs("unit_prob.build"), "s"),
        "bounded.newton_calls": (newton, "count"),
        "bounded.newton_iters": (newton_iters, "count"),
        "bounded.newton_iters_per_step": (ratio(newton_iters, res.get("path_steps")), "1/step"),
        "bounded.newton_s": (secs("bounded.newton"), "s"),
        "bounded.sup_trace_s": (secs("bounded.sup_trace"), "s"),
        "integrator.engine_steps": (engine_steps, "count"),
        "integrator.engine_self_s": (engine_self, "s"),
        "integrator.engine_us_per_step": (ratio(engine_self, engine_steps, 1e6), "us"),
        "integrator.noise_calls": (calls("integrator.noise"), "count"),
        "integrator.noise_normals": (present("integrator.noise", counters.get("noise.normals", 0)), "count"),
        "integrator.noise_s": (secs("integrator.noise"), "s"),
        "integrator.constraint_process_s": (secs("integrator.constraint_process"), "s"),
        "stats.violation_stats_s": (secs("stats.violation_stats"), "s"),
        "mem.ensemble_bytes": (present("integrator.engine", counters.get("mem.ensemble_bytes", 0)), "B"),
        "mem.rss_after_integrate_mb": (counters.get("mem.rss_after_integrate_mb", rss_end), "MB"),
        "mem.rss_after_stats_mb": (counters.get("mem.rss_after_stats_mb", rss_end), "MB"),
        "integrator.path_csv_s": (secs("integrator.path_csv"), "s"),
        "integrator.path_csv_bytes": (present("integrator.path_csv", counters.get("path_csv.bytes", 0)), "B"),
        "stats.report_csv_s": (secs("stats.report_csv"), "s"),
        "stats.report_bytes": (present("stats.report_csv", counters.get("report.bytes", 0)), "B"),
        "cli.import_s": (import_s, "s"),
        "problem.load_s": (secs("problem.load"), "s"),
        "problem.classify_s": (secs("problem.classify"), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="repetition directory (result.json goes here)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    ap.add_argument("--rerun", default=None, help="re-execute this CLI manifest into --dir/out")
    args = ap.parse_args(argv)
    work_dir = Path(args.dir)

    if args.rerun is not None:  # untimed reproducibility check of a CLI run
        import sdaekit.cli

        return sdaekit.cli.main(["rerun", args.rerun, "--out", str(work_dir / "out")])

    entry, run = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    module = importlib.import_module(entry)
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if not Path(module.__file__).resolve().is_relative_to(src):
        print(f"error: sdaekit imported from {module.__file__}, not from {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracing

    marks: dict = {}
    if not tracing.install_setup_probe(marks):
        print("error: sdaekit.integrator.wiener_increments is gone; cannot stamp set-up", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, marks)

    size = SIZES[args.workload]["tiny" if args.tiny else "full"]
    checks = run(size, args.seed, work_dir)
    t_work_end = time.perf_counter()
    rss = tracing.rss_mb()
    if tracer is not None:
        tracer.enabled = False
    res = checks()
    res["checks"]["setup_end_stamped"] = marks.get("first_step") is not None
    layers = None if tracer is None else layer_metrics(tracer, res, import_s, rss)

    import numpy
    import scipy

    res.update(
        first_step=marks.get("first_step"),
        rss_mb=rss,
        import_s=import_s,
        ok=all(res["checks"].values()),
        versions={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        layers=layers,
    )
    res["check_s"] = time.perf_counter() - t_work_end
    (work_dir / "result.json").write_text(json.dumps(res), encoding="utf-8")
    return 0 if res["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
