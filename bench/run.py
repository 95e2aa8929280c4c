"""sdaekit benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload bounded-newton --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is this file's parent directory.  A
closed loop with one caller: every repetition is a fresh interpreter
(``bench/child.py``) with BLAS pinned to one thread, started only after the
previous one has exited, until ``--seconds`` is used up.  Each repetition's
outputs are checked and digested; all digests of a run must agree.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over repetitions); with
``--trace 1`` the run alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones plus the tracing overhead.  The line
before it is a JSON object with provenance and every repetition's values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from child import INDEX1_PROBLEM, SIZES  # noqa: E402

CHILD_TIMEOUT_S = 150.0  # one repetition; the whole run must end within 180 s
RUN_BUDGET_S = 165.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "survived_frac": "ratio",
    "constraint_err": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], rep_dir: Path, timeout: float) -> tuple[int, float, float]:
    """Run ``child.py args`` to completion; returns (exit code, spawn, exit) times.

    Times are CLOCK_MONOTONIC, which the child's own stamps share.  A
    watchdog kills a child that outlives ``timeout``.
    """
    rep_dir.mkdir(parents=True, exist_ok=True)
    with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), *args, "--dir", str(rep_dir)],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
            t_exit = time.monotonic()
        finally:
            watchdog.cancel()
    return code, t_spawn, t_exit


def report_failure(rep_dir: Path, why: str) -> None:
    tail = (rep_dir / "stderr.txt").read_text(errors="replace").splitlines()[-5:]
    print(f"repetition {rep_dir.name} failed: {why}", *tail, sep="\n  ", file=sys.stderr)


def end_to_end(res: dict, t_spawn: float, t_exit: float) -> dict:
    """The end-to-end metrics of one untraced repetition."""
    wall = t_exit - t_spawn - res["check_s"]
    setup = res["first_step"] - t_spawn
    return {
        "wall_s": wall,
        "setup_s": setup,
        "path_steps_per_s": res["path_steps"] / (wall - setup),
        "peak_rss_mb": res["rss_mb"],
        "survived_frac": res["path_steps"] / (res["paths"] * res["steps"]),
        "constraint_err": res["constraint_err"],
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def median_metrics(samples: list[dict], units: dict) -> dict:
    """Median per metric; a metric absent (None) in any sample stays absent."""
    out = {}
    for name, unit in units.items():
        values = [s[name] for s in samples]
        value = None if not values or None in values else statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sdaekit" / "__init__.py").is_file():
        print(f"error: no sdaekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run is using it, or it is not empty


def measure(args, work: Path, t_start: float) -> int:
    # untimed warm-up: byte-compiles sdaekit so no repetition pays for it
    subprocess.run(
        [sys.executable, "-c", "import sdaekit.cli"], cwd=ROOT, env=child_env(), check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if args.workload == "cli-index1":
        (work / "index1.sdae").write_text(INDEX1_PROBLEM, encoding="utf-8")

    deadline = min(t_start + args.seconds, t_start + RUN_BUDGET_S)
    modes = [0, 1] if args.trace else [0]
    untraced, traced = [], []
    durations = {0: [], 1: []}
    reps, failures, digests, versions, layer_units = [], 0, set(), None, {}
    while True:
        mode = modes[len(reps) % len(modes)]
        rep_dir = work / f"rep{len(reps):03d}-t{mode}"
        child_args = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(mode)]
        if args.tiny:
            child_args.append("--tiny")
        timeout = max(1.0, min(CHILD_TIMEOUT_S, t_start + RUN_BUDGET_S - time.monotonic()))
        code, t_spawn, t_exit = run_child(child_args, rep_dir, timeout)
        durations[mode].append(t_exit - t_spawn)
        result_file = rep_dir / "result.json"
        res = json.loads(result_file.read_text()) if result_file.is_file() else None
        rep = {"trace": mode, "exit_code": code}
        ok = code == 0 and res is not None and res["ok"]
        if res is None or code != 0:
            report_failure(rep_dir, f"exit code {code}")
        if res is not None:
            rep["checks"] = res["checks"]
            versions = res["versions"]
            if res.get("digest"):
                digests.add(res["digest"])
            if len(digests) > 1:
                ok = False
                report_failure(rep_dir, "output digest differs from an earlier repetition")
        if ok and args.workload == "cli-index1" and not reps:
            ok = rep["rerun_byte_identical"] = rerun_matches(args, rep_dir, t_start)
        if ok:
            rep["metrics"] = end_to_end(res, t_spawn, t_exit)
            if mode == 0:
                untraced.append(rep["metrics"])
            else:
                rep["layers"] = {k: v for k, (v, _) in res["layers"].items()}
                layer_units = {k: u for k, (_, u) in res["layers"].items()}
                rep["completed_frac"] = res["completed"] / res["paths"]
                traced.append(rep)
        else:
            failures += 1
        reps.append(rep)
        shutil.rmtree(rep_dir, ignore_errors=True)
        if len(reps) >= len(modes):  # at least one repetition of each mode
            next_mode = modes[len(reps) % len(modes)]
            if time.monotonic() + max(durations[next_mode]) > deadline:
                break

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": SIZES[args.workload]["tiny" if args.tiny else "full"],
        "provenance": {**(versions or {}), "nproc": len(os.sched_getaffinity(0)), "commit": git_commit()},
        "repetitions": reps,
    }
    print(json.dumps({"detail": detail}))
    if args.trace:
        metrics = trace_metrics(untraced, traced, layer_units, len(reps), failures)
        measured = traced
    else:
        metrics = median_metrics(untraced, END_TO_END_UNITS)
        measured = untraced
    print(json.dumps({
        "correct": failures == 0,
        "attempted": len(reps),
        "failed": failures,
        "metrics": metrics,
    }))
    return 0 if measured else 1


def trace_metrics(untraced: list, traced: list, layer_units: dict, attempted: int, failures: int) -> dict:
    """Per-layer medians over traced repetitions, plus tracing overhead."""
    metrics = median_metrics([rep["layers"] for rep in traced], layer_units)
    overhead = None
    if untraced and traced:
        overhead = (
            statistics.median(rep["metrics"]["wall_s"] for rep in traced)
            / statistics.median(m["wall_s"] for m in untraced)
            - 1.0
        )
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    metrics["run.completed_frac"] = {
        "value": statistics.median(rep["completed_frac"] for rep in traced) if traced else None,
        "unit": "ratio",
    }
    metrics["run.error_frac"] = {"value": failures / attempted, "unit": "ratio"}
    return metrics


def rerun_matches(args, rep_dir: Path, t_start: float) -> bool:
    """Untimed ``sdae rerun`` of the first repetition, compared byte for byte."""
    from child import manifest_digest

    rerun_dir = rep_dir.parent / "rerun"
    timeout = max(1.0, min(CHILD_TIMEOUT_S, t_start + RUN_BUDGET_S - time.monotonic()))
    code, _, _ = run_child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--rerun", str(rep_dir / "out" / "manifest.json")],
        rerun_dir, timeout,
    )
    same = code == 0 and manifest_digest(rerun_dir / "out") == manifest_digest(rep_dir / "out")
    if not same:
        report_failure(rerun_dir, f"rerun exit code {code} or outputs differ")
    shutil.rmtree(rerun_dir, ignore_errors=True)
    return same


if __name__ == "__main__":
    sys.exit(main())
