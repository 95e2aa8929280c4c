"""Index reduction for high-index problems and the index itself.

One reduction step replaces the constraint g by the stacked conditions that
its Ito differential vanishes: the drift row

    (D_x g) f + 1/2 Tr(sigma' D2_xx(g) sigma)

followed, for each Wiener component j, by the diffusion row

    (D_x g) sigma_j + Gamma_j.

The constraint grows from p to p(1+d) rows per step, so reaching an index-1
problem after J-1 steps forces m = p(1+d)^(J-1).  When that dimension law
fails (or D_u h stays singular), the computation reports the mismatch rather
than inventing a pseudo-inverse notion of index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _symlin, expr
from .errors import MethodPreconditionError
from .integrator import _newton_batch
from .problem import ProblemKind, SdaeProblem, classify, regular

__all__ = ["ReductionStep", "IndexReport", "ito_drift_rows", "reduce_once", "compute_index"]

MAX_STEPS_DEFAULT = 4


def ito_drift_rows(pr: SdaeProblem) -> list[expr.Expression]:
    """Symbolic (D_x g) f + 1/2 Tr(sigma' D2_xx(g_i) sigma) for each row of g."""
    x_l = pr.x_labels
    rows: list[expr.Expression] = []
    for drift, gi in zip(_symlin.matvec(expr.jacobian(pr.g, x_l), pr.f), pr.g):
        tr = _symlin.quad_trace(pr.sigma, expr.hessian(gi, x_l, x_l), pr.sigma)
        rows.append(expr.add(drift, expr.mul(expr.const(0.5), tr)))
    return rows


@dataclass
class ReductionStep:
    source: SdaeProblem
    constraint_rows: list[expr.Expression]  # p(1+d) stacked rows
    reduced: SdaeProblem
    init_residual: float  # |h(x0, u0)|_inf, reported but not enforced


def reduce_once(pr: SdaeProblem) -> ReductionStep:
    """Apply one differentiation step to a high-index problem."""
    if pr.constraint_references_u():
        raise MethodPreconditionError(
            "constraint already references the algebraic variable; "
            "use the index-1 reduction instead"
        )
    drift_rows = ito_drift_rows(pr)
    x_l = pr.x_labels
    noise_rows: list[expr.Expression] = []
    for j in range(pr.d):
        for i, gi in enumerate(pr.g):
            grad = [expr.differentiate(gi, nm) for nm in x_l]
            acc: expr.Expression = pr.gamma[i][j]
            for k in range(pr.n):
                acc = expr.add(acc, expr.mul(grad[k], pr.sigma[k][j]))
            noise_rows.append(acc)
    h = drift_rows + noise_rows
    p_new = pr.p * (1 + pr.d)
    reduced = SdaeProblem(
        n=pr.n,
        m=pr.m,
        p=p_new,
        d=pr.d,
        f=list(pr.f),
        sigma=[list(row) for row in pr.sigma],
        g=h,
        gamma=[[expr.const(0.0)] * pr.d for _ in range(p_new)],
        x0=pr.x0.copy(),
        u0_guess=pr.u0_guess.copy(),
        name=f"{pr.name}-reduced" if pr.name else "reduced",
    )
    env = reduced.init_env()
    resid = max(abs(expr.evaluate(e, env)) for e in h)
    return ReductionStep(source=pr, constraint_rows=h, reduced=reduced, init_residual=resid)


@dataclass
class IndexReport:
    index: int | None
    exceeded_limit: bool
    steps: list[ReductionStep]
    dimension_law_holds: bool | None
    diagnosis: str
    final: SdaeProblem | None = None
    notes: tuple[str, ...] = ()


def _newton_consistent_u(pr: SdaeProblem) -> tuple[np.ndarray, bool]:
    """Adjust u0 so the (square) constraint holds at the initial state."""
    kernel = expr.compile_kernel(pr.labels, {"g": pr.g, "dug": expr.jacobian(pr.g, pr.u_labels)})
    point = pr.init_point()[None]

    def fn(u):
        point[:, pr.n:] = u
        k = kernel(point)
        return k["g"], k["dug"]

    with np.errstate(all="ignore"):
        u, converged, _, _ = _newton_batch(fn, pr.u0_guess[None], 1e-12)
    return u[0], bool(converged[0])


def compute_index(pr: SdaeProblem, max_steps: int = MAX_STEPS_DEFAULT) -> IndexReport:
    """Count reduction steps until an invertible D_u h appears at the init point."""
    if classify(pr).kind is not ProblemKind.HIGH_INDEX:
        raise MethodPreconditionError(
            "problem is already index 1; the reduction chain applies only to "
            "high-index problems"
        )
    current = pr
    steps: list[ReductionStep] = []
    notes: list[str] = []
    while True:
        if current.constraint_references_u():
            J = len(steps) + 1
            law = current.p == pr.p * (1 + pr.d) ** len(steps)  # p grew by (1+d) per step
            if current.m != current.p:
                return IndexReport(
                    index=None,
                    exceeded_limit=True,
                    steps=steps,
                    dimension_law_holds=False,
                    diagnosis=(
                        f"constraint references u after {len(steps)} step(s) but "
                        f"m = {current.m} != p(1+d)^{len(steps)} = {current.p}; "
                        "the dimension law m = p(1+d)^(J-1) fails"
                    ),
                )
            duh = expr.compile_kernel(
                current.labels, {"duh": expr.jacobian(current.g, current.u_labels)}
            )
            with np.errstate(all="ignore"):
                det = float(np.linalg.det(duh(current.init_point())["duh"]))
            if not regular(det):
                return IndexReport(
                    index=None,
                    exceeded_limit=True,
                    steps=steps,
                    dimension_law_holds=law and current.m == pr.m,
                    diagnosis=(
                        f"D_u h is square but singular at the initial point "
                        f"(det = {det:.3e})"
                    ),
                )
            u_new, ok = _newton_consistent_u(current)
            final = current
            if ok:
                final = replace(current, u0_guess=u_new)
            else:
                notes.append(
                    "consistent initialisation of the reduced constraint failed; "
                    "u0 left unchanged"
                )
            return IndexReport(
                index=J,
                exceeded_limit=False,
                steps=steps,
                dimension_law_holds=pr.m == pr.p * (1 + pr.d) ** (J - 1),
                diagnosis="",
                final=final,
                notes=tuple(notes),
            )
        if len(steps) >= max_steps:
            return IndexReport(
                index=None,
                exceeded_limit=True,
                steps=steps,
                dimension_law_holds=None,
                diagnosis=(
                    f"constraint still ignores u after {max_steps} reduction "
                    "step(s); index exceeds the step limit"
                ),
            )
        steps.append(reduce_once(current))
        current = steps[-1].reduced
