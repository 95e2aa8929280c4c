"""Bounded-probability constraint enforcement via drift stabilisation.

The constraint process lambda(t) = g(x(t)) + int Gamma dW is given the linear
drift -b lambda by replacing the constraint with

    h(x, u) = (Dg) f + 1/2 Tr(sigma' (D2 g) sigma) + b g(x) = 0 ,

so that E|lambda(t)|^2 <= J (1 - e^{-2bt}) / (2b) with
J = sup_U Tr(A A'), A = (Dg) sigma.  Chebyshev then gives
P(|lambda(t)| > eps) <= alpha for any gain above J / (2 eps^2 alpha).

The supremum is a grid estimate with one refinement pass; both the raw grid
value and that value inflated by SUP_INFLATION (1.05) are reported, and the
gain is chosen from the raw value so the stated threshold is reproducible:
b = GAIN_MARGIN (1.1) times the threshold.  Two solve modes
enforce the same h, both on the shared Euler-Maruyama engine: a per-step
warm-started Newton solve (default, robust near singularities), which steps
x with (f, sigma) and projects u onto h(x, u) = 0 through the engine's
``project`` hook, and the exact index-1 reduction of the modified problem.
The Newton residual and D_u h come from one staged kernel: the nodes that
depend on x alone are computed once per step, the rest once per iterate.
With one algebraic variable (m = 1) the update is the quotient h / D_u h and
the singular test reads D_u h itself, with no LAPACK call; m >= 2 solves with
LAPACK.  Every Newton solve here stops at a residual of NEWTON_TOL (1e-10).

For m = 1 each step is one generated function
(``expr.compile_newton_step``): the x-only nodes once, h and D_u h at the
current u, the update u1 = u - h / D_u h, the confirming residual at u1, and
the drift and diffusion at (x, u1), whose nodes are shared with h's.  When
every path converges after that one update, the usual case, the projection
returns it together with the next step's coefficients and the engine skips
its own coefficient call; otherwise the Newton loop runs from u.  Paths are
the same bit for bit either way.

Both modes refuse a gain with b dt >= 2 (MethodPreconditionError): on the
grid the step gives lambda_{k+1} = (1 - b dt) lambda_k + (Dg sigma) dW_k,
whose mean square diverges there.  Below that it rises to J / (b (2 - b dt)),
and both modes warn when that exceeds eps^2 alpha for a gain above the
threshold, naming the largest dt at which the gain meets the target, or
saying that no gain does when J dt > eps^2 alpha.  ``ViolationReport``'s
``bound_curve`` stays the continuous one.
"""

from __future__ import annotations

import enum
import functools
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import expr
from .errors import (
    DimensionMismatchError,
    MethodPreconditionError,
    NewtonDivergenceError,
    SingularReductionError,
)
from .index1 import build_index1_sde
from .index_reduction import ito_drift_rows
from .integrator import (
    NEWTON_MAX_ITER,
    AugmentedSde,
    Ensemble,
    SamplePath,
    _newton_batch,
    constraint_process,
    euler_maruyama,
    n_steps,
    wiener_increments,
)
from .problem import ProblemKind, SdaeProblem, classify
from .stats import ViolationReport, run_ensemble, violation_stats
from .wellposedness import grid_points

__all__ = [
    "SolveMode",
    "BoundedMConfig",
    "SupTraceResult",
    "sup_trace",
    "gain_threshold",
    "choose_b",
    "build_bounded_constraint",
    "resolve_config",
    "solve_bounded",
    "run_bounded_ensemble",
    "verify_bound",
]

SUP_INFLATION = 1.05  # inflation applied to the reported supremum
GAIN_MARGIN = 1.1  # margin applied when choosing b above the threshold
NEWTON_TOL = 1e-10  # residual at which a Newton solve for u stops


class SolveMode(enum.Enum):
    NEWTON_PER_STEP = "newton-per-step"
    LEMMA1_REDUCTION = "lemma1-reduction"


@dataclass
class SupTraceResult:
    raw: float  # grid maximum after refinement, no inflation
    argmax_point: np.ndarray

    @property
    def inflated(self) -> float:  # raw times SUP_INFLATION
        return self.raw * SUP_INFLATION


@dataclass
class BoundedMConfig:
    epsilon: float
    alpha: float
    box: list[tuple[float, float]]
    grid_per_dim: int = 101
    b: float | None = None
    J_raw: float | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def J_inflated(self) -> float | None:  # J_raw times SUP_INFLATION, once J_raw is known
        return None if self.J_raw is None else self.J_raw * SUP_INFLATION


def sup_trace(
    pr: SdaeProblem,
    box: Sequence[tuple[float, float]],
    grid_per_dim: int = 101,
) -> SupTraceResult:
    """Grid estimate of sup Tr(A A') with one 2x refinement around the argmax."""
    if pr.constraint_references_u():
        raise MethodPreconditionError("sup over A = (Dg) sigma needs a u-free constraint")
    box = [tuple(map(float, bb)) for bb in box]
    u_dependent = pr.sigma_references_u()
    want = pr.n + pr.m if u_dependent else pr.n
    if len(box) != want:
        raise ValueError(
            f"box must cover {want} dimensions "
            f"({'x and u' if u_dependent else 'x only'})"
        )
    kernel = expr.compile_kernel(
        pr.labels[:want], {"dg": expr.jacobian(pr.g, pr.x_labels), "sigma": pr.sigma}
    )

    def trace_at(pts: np.ndarray) -> np.ndarray:
        k = kernel(pts)
        A = k["dg"] @ k["sigma"]
        if A.size == 0:
            return np.zeros(pts.shape[0])
        return (A**2).reshape(pts.shape[0], -1).sum(axis=1)

    pts = grid_points(box, grid_per_dim)
    vals = trace_at(pts)
    best = int(np.argmax(vals))
    raw = float(vals[best])
    argmax = pts[best]
    spacing = np.array([(hi - lo) / max(grid_per_dim - 1, 1) for lo, hi in box])
    local_box = [
        (max(lo, c - h), min(hi, c + h))
        for (lo, hi), c, h in zip(box, argmax, spacing)
    ]
    pts2 = grid_points(local_box, grid_per_dim)
    vals2 = trace_at(pts2)
    best2 = int(np.argmax(vals2))
    if vals2[best2] > raw:
        raw = float(vals2[best2])
        argmax = pts2[best2]
    return SupTraceResult(raw=raw, argmax_point=argmax)


def gain_threshold(J: float, epsilon: float, alpha: float) -> float:
    """The critical gain J / (2 eps^2 alpha); any b above it meets the target."""
    if J < 0:
        raise ValueError("J must be nonnegative")
    if epsilon <= 0 or not 0 < alpha <= 1:
        raise ValueError("need epsilon > 0 and alpha in (0, 1]")
    return J / (2.0 * epsilon**2 * alpha)


def choose_b(J: float, epsilon: float, alpha: float) -> float:
    """GAIN_MARGIN times the threshold; floor of 1 when the noise vanishes."""
    threshold = gain_threshold(J, epsilon, alpha)
    if J == 0.0:
        return 1.0  # pure stabilisation is still desirable without noise
    return GAIN_MARGIN * threshold


def build_bounded_constraint(pr: SdaeProblem, b: float) -> SdaeProblem:
    """Modified problem whose constraint forces d(lambda) drift = -b lambda."""
    if classify(pr).kind is not ProblemKind.HIGH_INDEX:
        raise MethodPreconditionError(
            "the stabilised constraint is built from a high-index problem"
        )
    if pr.m != pr.p:
        raise DimensionMismatchError(
            f"the stabilised constraint needs m = p; got m={pr.m}, p={pr.p}"
        )
    rows = ito_drift_rows(pr)
    h = [expr.add(row, expr.mul(expr.const(float(b)), gi)) for row, gi in zip(rows, pr.g)]
    return SdaeProblem(
        n=pr.n, m=pr.m, p=pr.p, d=pr.d,
        f=list(pr.f),
        sigma=[list(r) for r in pr.sigma],
        g=h,
        gamma=[[expr.const(0.0)] * pr.d for _ in range(pr.p)],
        x0=pr.x0.copy(),
        u0_guess=pr.u0_guess.copy(),
        name=f"{pr.name}-stabilised(b={b:g})" if pr.name else f"stabilised(b={b:g})",
    )


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _user_stacklevel() -> int:
    """The ``stacklevel`` that makes a ``warnings.warn`` in the caller of this
    function name the first frame outside sdaekit, however deep the package's
    own calls go (``warnings``' ``skip_file_prefixes`` needs Python 3.12)."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def resolve_config(pr: SdaeProblem, cfg: BoundedMConfig) -> BoundedMConfig:
    """Fill in J (grid supremum) and b (gain) where the caller left them open."""
    out = cfg
    if out.J_raw is None:
        sup = sup_trace(pr, out.box, out.grid_per_dim)
        out = replace(out, J_raw=sup.raw)
    if out.b is None:
        out = replace(out, b=choose_b(out.J_raw, out.epsilon, out.alpha))
    threshold = gain_threshold(out.J_raw, out.epsilon, out.alpha)
    if out.b <= threshold and out.J_raw > 0:
        warnings.warn(
            f"gain b = {out.b:g} is not above the threshold {threshold:g}; the "
            f"probability target P(|lambda| > {out.epsilon:g}) <= {out.alpha:g} "
            "is not guaranteed",
            stacklevel=_user_stacklevel(),
        )
    return out


def _check_step(cfg: BoundedMConfig, dt: float) -> None:
    """Refuse b*dt >= 2: the step's lambda_{k+1} = (1 - b dt) lambda_k + noise
    diverges.  Below that, warn when the grid's mean square J / (b (2 - b dt))
    can exceed eps^2 alpha, unless ``resolve_config`` already warned that b is
    not above the continuous threshold."""
    b = cfg.b
    if b * dt >= 2.0:
        raise MethodPreconditionError(
            f"gain b = {b:g} with dt = {dt:g} gives b*dt = {b * dt:g} >= 2, where the "
            f"Euler-Maruyama step cannot hold the constraint; the largest dt for this "
            f"gain is 2/b = {2.0 / b:g} (exclusive)"
        )
    J, budget = cfg.J_raw, cfg.epsilon**2 * cfg.alpha
    if b <= gain_threshold(J, cfg.epsilon, cfg.alpha) or b * (2.0 - b * dt) >= J / budget:
        return
    if J * dt > budget:
        remedy = f"no gain meets it at this dt, since J*dt = {J * dt:g} > eps^2 alpha"
    else:
        remedy = f"this gain meets it for dt <= {(2.0 - J / (budget * b)) / b:g}"
    warnings.warn(
        f"gain b = {b:g} with dt = {dt:g}: on the grid E|lambda|^2 rises to "
        f"J/(b (2 - b dt)) = {J / (b * (2.0 - b * dt)):g}, above eps^2 alpha = {budget:g}, "
        f"so P(|lambda| > {cfg.epsilon:g}) <= {cfg.alpha:g} is not guaranteed; {remedy}",
        stacklevel=_user_stacklevel(),
    )


# ---------------------------------------------------------------------------
# Newton per step: a projection hook on the shared Euler-Maruyama engine
# ---------------------------------------------------------------------------


def _h_system(h_pr: SdaeProblem):
    """``state -> fn`` with ``fn(u) = (h, D_u h)`` at the state's x columns.

    One staged kernel gives both: the nodes of h and D_u h that depend on x
    alone are computed once per state, at the first call of ``fn``, the rest
    once per Newton iterate.
    """
    prepare, finish = expr.compile_staged(
        h_pr.labels, h_pr.x_labels,
        {"h": h_pr.g, "jac": expr.jacobian(h_pr.g, h_pr.u_labels)},
    )
    n = h_pr.n

    def at(state: np.ndarray):
        staged = []  # (prepared, points) once fn is first called

        def fn(u):
            if not staged:
                staged.extend((prepare(state), np.array(state, dtype=float)))
            prepared, points = staged
            points[:, n:] = u
            k = finish(prepared, points)
            return k["h"], k["jac"]

        return fn

    return at


def _initial_algebraic_value(h_pr: SdaeProblem) -> np.ndarray:
    fn = _h_system(h_pr)(h_pr.init_point()[None])
    with np.errstate(all="ignore"):
        u, ok, singular, _ = _newton_batch(fn, h_pr.u0_guess[None].astype(float), NEWTON_TOL)
    if singular[0]:
        raise SingularReductionError(
            "D_u h is singular at the initial point; the stabilised constraint "
            "cannot be solved for u there"
        )
    if not ok[0]:
        raise NewtonDivergenceError(NEWTON_MAX_ITER, float(np.abs(fn(u)[0]).max()))
    return u[0]


def _newton_sde(pr: SdaeProblem, h_pr: SdaeProblem) -> AugmentedSde:
    """x steps with (f, sigma); u is projected onto h(x, u) = 0 by Newton.

    For m = 1 the projection hands ``_newton_batch`` one generated step
    (``expr.compile_newton_step``) as its fast path: the update, its
    confirming residual and the drift and diffusion at the updated point,
    which the engine then takes for the next step instead of calling
    ``both``.  m >= 2 solves with LAPACK and the engine calls ``both``.
    """
    coefficients = {"drift": pr.f, "diffusion": pr.sigma}
    coeff = expr.compile_kernel(pr.labels, coefficients)
    h_at = _h_system(h_pr)
    n = pr.n

    def both(points):
        k = coeff(points)
        return None, k["drift"], k["diffusion"]

    if pr.m == 1:
        (u_label,) = pr.u_labels
        step = expr.compile_newton_step(
            pr.labels, u_label, h_pr.g[0], expr.differentiate(h_pr.g[0], u_label), coefficients,
        )

        def project(state):
            u, converged, singular, iters, after = _newton_batch(
                h_at(state), state[:, n:], NEWTON_TOL, functools.partial(step, state),
            )
            ahead = None if after is None else (None, after["drift"], after["diffusion"])
            return u, converged, singular, iters, ahead
    else:
        def project(state):
            return _newton_batch(h_at(state), state[:, n:], NEWTON_TOL)

    return AugmentedSde(
        dim=pr.n + pr.m, d=pr.d, labels=pr.labels, both=both, project=project, problem=pr,
    )


def _bounded_setup(
    pr: SdaeProblem, cfg: BoundedMConfig, dt: float, mode: SolveMode
) -> tuple[BoundedMConfig, AugmentedSde, np.ndarray]:
    """The set-up an ensemble and a single path share: the config resolved
    and checked against dt, the SDE enforcing h = 0 in the given mode, and
    its initial state."""
    cfg = resolve_config(pr, cfg)
    _check_step(cfg, dt)
    h_pr = build_bounded_constraint(pr, cfg.b)
    u0 = _initial_algebraic_value(h_pr)
    if mode is SolveMode.LEMMA1_REDUCTION:
        sde = build_index1_sde(replace(h_pr, u0_guess=u0))
    else:
        sde = _newton_sde(pr, h_pr)
    return cfg, sde, np.concatenate([pr.x0, u0])


def run_bounded_ensemble(
    pr: SdaeProblem,
    cfg: BoundedMConfig,
    dt: float,
    T: float,
    paths: int,
    base_seed: int,
    mode: SolveMode = SolveMode.NEWTON_PER_STEP,
    *,
    chunk: int = 256,
) -> Ensemble:
    """Simulate the stabilised system for a whole ensemble (derived seeds),
    in balanced batches of at most ``chunk`` paths (``stats.run_ensemble``)."""
    cfg, sde, init = _bounded_setup(pr, cfg, dt, mode)
    ens = run_ensemble(sde, init, dt, T, paths, base_seed, chunk=chunk, problem=pr)
    ens.meta["config"] = cfg
    return ens


def solve_bounded(
    pr: SdaeProblem,
    cfg: BoundedMConfig,
    dt: float,
    T: float,
    seed: int,
    mode: SolveMode = SolveMode.NEWTON_PER_STEP,
) -> SamplePath:
    """Single stabilised path; the literal seed drives the increments."""
    cfg, sde, init = _bounded_setup(pr, cfg, dt, mode)
    inc = wiener_increments(seed, n_steps(T, dt), pr.d, dt)
    path = euler_maruyama(sde, init, dt, T, inc, seed=seed)
    lam = constraint_process(pr, path)
    path.metadata["max_lambda_norm"] = float(np.linalg.norm(lam, axis=1).max())
    path.metadata["gain"] = cfg.b
    path.metadata["gain_threshold"] = gain_threshold(cfg.J_raw, cfg.epsilon, cfg.alpha)
    return path


def verify_bound(ensemble: Ensemble, cfg: BoundedMConfig) -> ViolationReport:
    """Empirical violation statistics against the stabilisation bound curve."""
    if ensemble.problem is None:
        raise ValueError("ensemble does not carry its source problem")
    if cfg.b is None or cfg.J_raw is None:
        cfg = resolve_config(ensemble.problem, cfg)
    return violation_stats(
        ensemble.problem, ensemble, cfg.epsilon, b=cfg.b, J=cfg.J_raw
    )
