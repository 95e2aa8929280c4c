"""Command-line interface: classify / check / reduce / solve / verify-bound.

Every solve writes a manifest recording the resolved flags, the problem hash
and the base seed; `rerun` re-executes a manifest and reproduces the output
files byte for byte; `verify-bound` re-executes a stored bounded solve and
checks that run against a new epsilon and alpha, keeping its gain b and J.
All randomness flows from the single --seed flag.  Each method's set-up is
the library's own, shared with its single-path solver.

A solve forks twice (``_workers``).  The integration of every method
spreads the paths over W = min(paths, usable CPUs) processes
(``stats.run_ensemble``), so it forks nothing for one path.  The output
phase runs the report and each saved path CSV as independent jobs, spread
over W = min(saved paths + 1, usable CPUs) processes: this process computes
the statistics and writes ``report.csv``, and a forked worker's only result
is the files it writes.  The manifest is written only once every output job
has succeeded, and a worker's exception is re-raised here with its type,
after every worker is reaped.  The output phase forks nothing without a
saved path; neither phase forks with one usable CPU, no ``os.fork``, or
another Python thread alive.

Exit codes: 0 success, 1 usage (a malformed command line, a flag value out
of range, or a flag the chosen run never reads given a value other than its
default), 2 invalid problem (a missing input file included), 3 method
precondition failed, 4 runtime failure (any other error, an OSError such as
an unwritable output or numeric ones from inside a solver included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, _workers
from .bounded import (
    BoundedMConfig,
    SolveMode,
    gain_threshold,
    resolve_config,
    run_bounded_ensemble,
    verify_bound,
)
from .errors import (
    DimensionMismatchError,
    ExpressionParseError,
    MethodPreconditionError,
    ProblemFormatError,
    SdaeError,
    UnknownBuiltinError,
)
from .expr import parse as parse_expr
from .expr import to_text
from .index1 import index1_setup
from .index_reduction import compute_index, reduce_once
from .integrator import Ensemble, constraint_process, write_path_csv
from .picard import check_contraction, picard_setup
from .problem import (
    ProblemKind,
    SdaeProblem,
    builtin,
    builtin_names,
    classify,
    load_problem_file,
    print_problem,
)
from .stats import run_ensemble, violation_stats, write_report_csv
from .unit_prob import CharacteristicSpec, _unit_prob_setup
from .wellposedness import is_ill_posed

EXIT_OK, EXIT_USAGE, EXIT_PROBLEM, EXIT_PRECONDITION, EXIT_RUNTIME = 0, 1, 2, 3, 4

# flags whose values may begin with '-' (boxes with negative bounds); they are
# rewritten to --flag=value before argparse sees them
_GLUED_FLAGS = ("--box", "--y-box")

Box = list[tuple[float, float]]  # (lo, hi) per dimension

# solve flags that one method alone reads: dest -> (that method, default).
# The parser takes these defaults, and a run of any other method refuses the
# flag unless it holds its default.  Every other solve flag is read by all.
_METHOD_FLAGS = {
    "iterations": ("picard", 100),
    "tol": ("picard", 1e-10),
    "y_file": ("unit-prob", None),
    "y_box": ("unit-prob", None),
    "y_grid": ("unit-prob", 101),
    "alpha": ("bounded", None),
    "box": ("bounded", None),
    "grid": ("bounded", 101),
    "b": ("bounded", None),
    "mode": ("bounded", SolveMode.NEWTON_PER_STEP.value),
}
# the flags every method reads; a manifest records these and the method flags
_COMMON_FLAGS = ("method", "dt", "t_end", "seed", "paths", "save_paths", "epsilon")
_MANIFEST_KEYS = _COMMON_FLAGS + tuple(_METHOD_FLAGS)

# check flags that one of its two runs alone reads, in the same form
_CHECK_FLAGS = {
    "tol": ("ill-posedness", 1e-8),
    "pairs": ("contraction", 10_000),
    "norm": ("contraction", "spectral"),
}


class _UsageError(Exception):
    """A flag value the command cannot use (exit code 1)."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _UsageError(message)


def _parse_box(text: str, dims: int, flag: str = "--box") -> Box:
    """``lo:hi`` per dimension, comma separated: ``dims`` finite intervals."""
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        try:
            bounds = (float(lo), float(hi))
        except ValueError:
            bounds = None
        _require(
            bool(sep) and bounds is not None and all(map(math.isfinite, bounds))
            and bounds[0] <= bounds[1],
            f"{flag} component '{part}' is not lo:hi with finite lo <= hi",
        )
        out.append(bounds)
    _require(len(out) == dims, f"{flag} has {len(out)} component(s); this problem needs {dims}")
    return out


def _check_epsilon_alpha(epsilon: float | None, alpha: float | None) -> None:
    if epsilon is not None:
        _require(math.isfinite(epsilon) and epsilon > 0,
                 f"--epsilon must be positive, got {epsilon:g}")
    if alpha is not None:
        _require(0 < alpha <= 1, f"--alpha must lie in (0, 1], got {alpha:g}")


def _refuse_unread(args, flags: dict, run: str, who: str) -> None:
    """Refuse a flag of ``flags`` that ``run`` does not read, unless it holds
    its default; ``who.format(run)`` names the run in the message."""
    for dest, (reader, default) in flags.items():
        _require(reader == run or getattr(args, dest) == default,
                 f"--{dest.replace('_', '-')} is not read by {who.format(run)}")


def _check_solve_flags(args) -> None:
    """Refuse unread and out-of-range solve flags before any work is done."""
    _refuse_unread(args, _METHOD_FLAGS, args.method, "--method {}")
    _require(math.isfinite(args.dt) and args.dt > 0, f"--dt must be positive, got {args.dt:g}")
    _require(math.isfinite(args.t_end) and args.t_end > 0,
             f"--t-end must be positive, got {args.t_end:g}")
    _require(args.paths >= 1, f"--paths must be at least 1, got {args.paths}")
    _require(args.save_paths >= 0, f"--save-paths must be at least 0, got {args.save_paths}")
    _require(args.grid >= 1, f"--grid must be at least 1, got {args.grid}")
    _require(args.y_grid >= 1, f"--y-grid must be at least 1, got {args.y_grid}")
    _check_epsilon_alpha(args.epsilon, args.alpha)
    if args.b is not None:
        _require(math.isfinite(args.b) and args.b > 0, f"--b must be positive, got {args.b:g}")
    _require(args.iterations >= 1, f"--iterations must be at least 1, got {args.iterations}")
    _require(math.isfinite(args.tol) and args.tol > 0, f"--tol must be positive, got {args.tol:g}")


def _add_flag(p, flags: dict, dest: str, who: str, help: str = "", **kw) -> None:
    """Add --<dest> with its default from ``flags``; the help names its reader."""
    reader, default = flags[dest]
    text = f"read by {who.format(reader)} only" + (f"; {help}" if help else "")
    p.add_argument(f"--{dest.replace('_', '-')}", default=default, help=text, **kw)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sdae",
        description="Classify, reduce, and approximately solve stochastic "
        "differential-algebraic equations.",
    )
    ap.add_argument("--version", action="version", version=f"sdae {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="print the problem taxonomy")
    p.add_argument("file")

    p = sub.add_parser("check", help="ill-posedness (default) or contraction check")
    p.add_argument("file")
    p.add_argument("--box", required=True, help="lo:hi per dimension, comma separated")
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--contraction", action="store_true",
                   help="run the contraction check instead of the ill-posedness check")
    _add_flag(p, _CHECK_FLAGS, "tol", "the {} check", type=float)
    _add_flag(p, _CHECK_FLAGS, "pairs", "the {} check", type=int)
    _add_flag(p, _CHECK_FLAGS, "norm", "the {} check", choices=["spectral", "rowsum"])

    p = sub.add_parser("reduce", help="print stacked constraints after k steps")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=1)

    p = sub.add_parser("solve", help="simulate one of the solution methods")
    p.add_argument("file")
    p.add_argument("--method", required=True,
                   choices=["index1", "picard", "unit-prob", "bounded"])
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--save-paths", type=int, default=16,
                   help="number of per-path CSVs to write")
    p.add_argument("--epsilon", type=float, default=None,
                   help="band half-width of the report's P_viol; required for unit-prob and bounded")
    method = "--method {}"
    _add_flag(p, _METHOD_FLAGS, "alpha", method, type=float)
    _add_flag(p, _METHOD_FLAGS, "box", method,
              "lo:hi per dimension of x (and of u where sigma reads u), comma separated")
    _add_flag(p, _METHOD_FLAGS, "grid", method, type=int)
    _add_flag(p, _METHOD_FLAGS, "b", method, "the gain, chosen from J when not given", type=float)
    _add_flag(p, _METHOD_FLAGS, "mode", method, choices=[m.value for m in SolveMode])
    _add_flag(p, _METHOD_FLAGS, "y_file", method,
              "file with n expressions in u-variables, one per line")
    _add_flag(p, _METHOD_FLAGS, "y_box", method, "lo:hi per dimension of u, comma separated")
    _add_flag(p, _METHOD_FLAGS, "y_grid", method, type=int)
    _add_flag(p, _METHOD_FLAGS, "iterations", method, type=int)
    _add_flag(p, _METHOD_FLAGS, "tol", method, type=float)

    p = sub.add_parser("verify-bound", help="re-execute a stored bounded solve and check it "
                       "against a new epsilon and alpha, keeping the stored gain")
    p.add_argument("dir")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("builtin", help="print or emit a registered problem")
    p.add_argument("name")
    p.add_argument("--emit", action="store_true")
    p.add_argument("--out", help="read with --emit only; default <name>.sdae")

    p = sub.add_parser("rerun", help="re-execute a solve from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    return ap


class _ProblemLoadError(SdaeError):
    """Wraps any failure while reading a problem file (exit code 2)."""


def _load(path: str) -> SdaeProblem:
    if not os.path.exists(path):
        raise _ProblemLoadError(f"problem file '{path}' not found")
    try:
        return load_problem_file(path)
    except SdaeError as exc:
        raise _ProblemLoadError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    pr = _load(args.file)
    cls = classify(pr)
    print(cls.summary())
    for note in cls.notes:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


def _cmd_check(args) -> int:
    _refuse_unread(args, _CHECK_FLAGS, "contraction" if args.contraction else "ill-posedness",
                   "the {} check")
    _require(args.grid >= 1, f"--grid must be at least 1, got {args.grid}")
    _require(args.pairs >= 1, f"--pairs must be at least 1, got {args.pairs}")
    _require(math.isfinite(args.tol) and args.tol > 0, f"--tol must be positive, got {args.tol:g}")
    pr = _load(args.file)
    box = _parse_box(args.box, pr.n + pr.m if args.contraction else pr.n)
    if args.contraction:
        report = check_contraction(pr, box, grid_per_dim=args.grid,
                                   sample_pairs=args.pairs, norm=args.norm)
        print(report)
        return EXIT_OK
    report = is_ill_posed(pr, box, grid_per_dim=args.grid, tol=args.tol)
    at = ", ".join(f"{c:g}" for c in report.argmax_point)
    print(
        f"{report.verdict.value} (max residual {report.max_residual_norm:.3e} "
        f"at ({at}), {report.probes.shape[0]} probes, tol {report.tol:g})"
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    _require(args.steps >= 1, f"--steps must be at least 1, got {args.steps}")
    pr = _load(args.file)
    if pr.constraint_references_u():
        raise MethodPreconditionError(
            "constraint already references u (index-1 form); reduction applies "
            "to high-index problems"
        )
    current = pr
    for step_no in range(1, args.steps + 1):
        if current.constraint_references_u():
            print(f"step {step_no}: constraint now references u; stopping")
            break
        step = reduce_once(current)
        print(f"step {step_no}: p = {step.reduced.p} rows "
              f"(|h(x0,u0)| = {step.init_residual:.3e})")
        for row in step.constraint_rows:
            print(f"  {to_text(row)}")
        current = step.reduced
    report = None
    if not pr.constraint_references_u():
        report = compute_index(pr)
        if report.index is not None:
            law = "holds" if report.dimension_law_holds else "fails"
            print(f"index: {report.index} (dimension law m = p(1+d)^(J-1) {law})")
        else:
            print(f"index: not determined - {report.diagnosis}")
    return EXIT_OK


def _read_characteristic(args, pr: SdaeProblem) -> CharacteristicSpec:
    if args.epsilon is None:
        raise MethodPreconditionError("--epsilon is required for unit-prob")
    if args.y_file is None:
        raise MethodPreconditionError(
            "--y-file is required for unit-prob (n expressions in u-variables)"
        )
    lines = [
        ln.strip()
        for ln in Path(args.y_file).read_text(encoding="utf-8").splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    return CharacteristicSpec(y=[parse_expr(ln) for ln in lines], epsilon=args.epsilon)


def _solve_boxes(pr: SdaeProblem, args) -> tuple[Box | None, Box | None]:
    """The boxes given: bounded's --box (x, plus u where sigma reads u) and
    unit-prob's --y-box (u); _check_solve_flags refused them for other methods."""
    box = y_box = None
    if args.box:
        box = _parse_box(args.box, pr.n + pr.m if pr.sigma_references_u() else pr.n)
    if args.y_box:
        y_box = _parse_box(args.y_box, pr.m, "--y-box")
    return box, y_box


def _solve_ensemble(pr: SdaeProblem, args, box: Box | None, y_box: Box | None) -> tuple[Ensemble, dict]:
    info: dict = {}
    if args.method == "bounded":
        if args.epsilon is None or args.alpha is None or args.box is None:
            raise MethodPreconditionError(
                "--epsilon, --alpha and --box are required for bounded"
            )
        cfg = BoundedMConfig(
            epsilon=args.epsilon, alpha=args.alpha, box=box,
            grid_per_dim=args.grid, b=args.b,
        )
        ens = run_bounded_ensemble(pr, cfg, args.dt, args.t_end, args.paths,
                                   args.seed, SolveMode(args.mode))
        cfg = ens.meta["config"]
        info.update(
            epsilon=cfg.epsilon,
            b=cfg.b,
            J_raw=cfg.J_raw,
            J_inflated=cfg.J_inflated,
            threshold=gain_threshold(cfg.J_raw, cfg.epsilon, cfg.alpha),
        )
    else:
        if args.method == "index1":
            sde, init = index1_setup(pr)
        elif args.method == "picard":
            sde, init = picard_setup(pr, args.iterations, args.tol)
        else:  # unit-prob
            spec = _read_characteristic(args, pr)
            sde, init = _unit_prob_setup(pr, spec, args.dt, y_box, args.y_grid)
            info["epsilon"] = spec.epsilon
        ens = run_ensemble(sde, init, args.dt, args.t_end, args.paths, args.seed, problem=pr)
    return ens, info


def _check_out_dir(out: str) -> None:
    """Refuse, before any work, an --out that cannot be made a directory: the
    nearest part of it that exists must be a directory this process can write."""
    path = Path(out).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    _require(existing.is_dir(), f"--out {out}: {existing} is not a directory")
    _require(os.access(existing, os.W_OK | os.X_OK), f"--out {out}: {existing} is not writable")


def _cmd_solve(args) -> int:
    _check_solve_flags(args)
    _check_out_dir(args.out)
    pr = _load(args.file)
    box, y_box = _solve_boxes(pr, args)
    ens, info = _solve_ensemble(pr, args, box, y_box)
    out_dir = Path(args.out)  # made only for a run that was not refused
    out_dir.mkdir(parents=True, exist_ok=True)

    canonical = print_problem(pr)
    (out_dir / "problem.sdae").write_text(canonical, encoding="utf-8")
    outputs = ["problem.sdae"]

    epsilon = info.get("epsilon", args.epsilon if args.epsilon else float("inf"))
    saved = ens.paths[: args.save_paths]
    rels = [f"paths/path_{k:05d}.csv" for k in range(len(saved))]
    (out_dir / "paths").mkdir(exist_ok=True)
    report = None  # job 0's, which runs in this process

    def output(i: int) -> None:
        """Job 0 writes the report, job k >= 1 saved path k - 1."""
        nonlocal report
        if i == 0:
            report = violation_stats(pr, ens, epsilon, b=info.get("b"), J=info.get("J_raw"))
            with open(out_dir / "report.csv", "w", encoding="utf-8") as fh:
                write_report_csv(report, fh)
            return
        path = saved[i - 1]
        with open(out_dir / rels[i - 1], "w", encoding="utf-8") as fh:
            write_path_csv(path, constraint_process(pr, path), fh)

    _workers.run(output, len(saved) + 1, _workers.count(len(saved) + 1))
    outputs += ["report.csv", *rels]

    manifest = {
        "tool": "sdae",
        "version": __version__,
        "subcommand": "solve",
        "args": {key: getattr(args, key) for key in _MANIFEST_KEYS},
        "problem_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "base_seed": args.seed,
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    completed = sum(1 for p in ens.paths if p.status.completed)
    print(f"method {args.method}: {len(ens.paths)} path(s), {completed} completed")
    if "b" in info:
        print(
            f"gain b = {info['b']:g} (threshold J/(2 eps^2 alpha) = "
            f"{info['threshold']:g}, J raw = {info['J_raw']:g}, "
            f"inflated = {info['J_inflated']:g})"
        )
    if np.isfinite(epsilon):
        print(f"max empirical P(|lambda| > {epsilon:g}) = {np.nanmax(report.empirical_p):.4f}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _cmd_verify_bound(args) -> int:
    _check_epsilon_alpha(args.epsilon, args.alpha)
    run_dir = Path(args.dir)
    ns = _stored_solve(run_dir / "manifest.json")
    if ns.method != "bounded":
        raise MethodPreconditionError(
            "verify-bound needs a run produced by solve --method bounded"
        )
    _check_solve_flags(ns)
    pr = _load(ns.file)
    ens, _ = _solve_ensemble(pr, ns, *_solve_boxes(pr, ns))
    # the stored b and J with the new target: warns when b is not above its threshold
    cfg = resolve_config(pr, replace(ens.meta["config"], epsilon=args.epsilon, alpha=args.alpha))
    report = verify_bound(ens, cfg)
    with open(run_dir / "verify_report.csv", "w", encoding="utf-8") as fh:
        write_report_csv(report, fh)
    worst = float(np.nanmax(report.empirical_p))
    verdict = "satisfied" if worst <= args.alpha else "VIOLATED"
    print(
        f"P(|lambda(t)| > {args.epsilon:g}) <= {args.alpha:g}: {verdict} "
        f"(max empirical {worst:.4f} over {len(ens.paths)} paths, stored gain b = {cfg.b:g}, "
        f"threshold {gain_threshold(cfg.J_raw, cfg.epsilon, cfg.alpha):.3g})"
    )
    print(f"wrote {run_dir / 'verify_report.csv'}")
    return EXIT_OK


def _cmd_builtin(args) -> int:
    _require(args.emit or args.out is None, "--out is not read by builtin without --emit")
    pr = builtin(args.name)
    text = print_problem(pr)
    if args.emit:
        out = Path(args.out or f"{args.name}.sdae")
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _check_run_inputs(manifest: dict, problem_file: Path) -> None:
    """Refuse a run directory whose tool version or problem differs from the manifest."""
    if manifest.get("version") != __version__:
        raise MethodPreconditionError(
            f"manifest was written by sdae {manifest.get('version')}, this is "
            f"sdae {__version__}; its outputs are not reproducible here"
        )
    digest = hashlib.sha256(print_problem(_load(str(problem_file))).encode()).hexdigest()
    if digest != manifest.get("problem_sha256"):
        raise _ProblemLoadError(
            f"{problem_file} does not match the manifest's problem_sha256 "
            "(the problem was modified after the run)"
        )


def _stored_solve(manifest_path: Path) -> argparse.Namespace:
    """The flags of the solve a manifest records, with its problem file and
    base seed, once its tool version and problem hash are checked and it is
    known to record every solve flag and the base seed."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("subcommand") != "solve":
        raise MethodPreconditionError("manifest does not describe a solve run")
    stored = manifest.get("args")
    if not isinstance(stored, dict):
        raise MethodPreconditionError("manifest records no solve args")
    missing = [key for key in _MANIFEST_KEYS if key not in stored]
    if "base_seed" not in manifest:
        missing.append("base_seed")
    if missing:
        raise MethodPreconditionError(f"manifest does not record {', '.join(missing)}")
    ns = argparse.Namespace(**stored)
    ns.file = str(manifest_path.parent / "problem.sdae")
    _check_run_inputs(manifest, Path(ns.file))
    ns.seed = manifest["base_seed"]
    return ns


def _cmd_rerun(args) -> int:
    ns = _stored_solve(Path(args.manifest))
    ns.out = args.out
    return _cmd_solve(ns)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_DISPATCH = {
    "classify": _cmd_classify,
    "check": _cmd_check,
    "reduce": _cmd_reduce,
    "solve": _cmd_solve,
    "verify-bound": _cmd_verify_bound,
    "builtin": _cmd_builtin,
    "rerun": _cmd_rerun,
}


def _preprocess_argv(argv: list[str]) -> list[str]:
    """Glue values onto flags that may start with '-' (negative box bounds)."""
    out: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _GLUED_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_preprocess_argv(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _DISPATCH[args.subcommand](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROBLEM if isinstance(exc, FileNotFoundError) else EXIT_RUNTIME
    except _ProblemLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROBLEM
    except MethodPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SdaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ProblemFormatError, ExpressionParseError, UnknownBuiltinError)):
            return EXIT_PROBLEM
        if isinstance(exc, DimensionMismatchError):
            return EXIT_PRECONDITION  # solver-level m != p and similar
        return EXIT_RUNTIME


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
