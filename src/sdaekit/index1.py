"""Exact reduction of an index-1 problem to a plain SDE on (x, u).

The algebraic variable is promoted to a state whose drift ``a`` and diffusion
``B`` are chosen so that the Ito differential of the constraint vanishes
identically:

    B = -(D_u g)^{-1} ((D_x g) sigma + Gamma)
    a = -(D_u g)^{-1} ((D_x g) f
          + 1/2 Tr(sigma D2_xx(g) sigma' + B D2_uu(g) B' + 2 sigma D2_xu(g) B'))

For m <= 2 both come from their closed forms: the cofactor inverse of D_u g
gives symbolic entries for a and B, and one generated kernel evaluates f ++ a,
sigma ++ B and the cofactor det(D_u g) per step, its shared subexpressions
computed once.  The step then makes no LAPACK call.  For m >= 3, whose
cofactor expansion grows factorially, each step evaluates the Jacobians and
Hessians and solves for a and B with a batched m-by-m LAPACK solve.  Either
way the runtime guard ``problem.regular(det D_u g)`` stands in for the
"bounded inverse in a neighbourhood" hypothesis.

A Hessian block of a row of g whose entries are all the constant 0 (D2_uu g_i
when g_i is affine in u, D2_xu g_i without x-u products) is structurally zero:
it is left out of the pieces kernel and its trace term is not computed.
That term would be exactly +0.0, because einsum sums from +0.0, and adding
+0.0 to a trace that is never -0.0 changes no bit.  Only where B is +-inf or
nan would the full sum differ (nan, from inf * 0); B then sits in the
diffusion, so the step is non-finite either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _symlin, expr
from .errors import (
    DimensionMismatchError,
    MethodPreconditionError,
    SingularReductionError,
)
from .integrator import (
    AugmentedSde,
    SamplePath,
    _eye,
    constraint_process,
    euler_maruyama,
    guarded_sde,
    n_steps,
    wiener_increments,
)
from .problem import SINGULAR_TOL, ProblemKind, SdaeProblem, classify, regular

__all__ = ["Index1Reduction", "build_index1_reduction", "build_index1_sde", "index1_setup", "solve_index1"]


# the shared Ito correction pattern: sum_{k,l,j} A_{kj} H_{kl} C_{lj}
_TRACE = "...kj,...kl,...lj->..."

# kernel key prefixes of the Hessian blocks of a row, in the order the trace adds them
_BLOCKS = ("hxx", "huu", "hxu")


@dataclass
class Index1Reduction:
    """Evaluators (and small-m symbolic forms) for the reduced SDE on (x, u)."""

    problem: SdaeProblem
    a_symbolic: list[expr.Expression] | None
    b_symbolic: list[list[expr.Expression]] | None

    # kernel built by build_index1_reduction: every coefficient piece at once
    _pieces: Callable = field(repr=False, default=None)
    # per row of g, the kernel keys of its Hessian blocks that are not
    # structurally zero, in _BLOCKS order
    _blocks: list[tuple[str, ...]] = field(repr=False, default_factory=list)
    # points -> {"drift": f ++ a, "diffusion": sigma ++ B, "det": det D_u g};
    # the closed-form kernel for m <= 2, _solved_step otherwise
    _step: Callable = field(repr=False, default=None)

    def _pieces_at(self, points) -> dict[str, np.ndarray]:
        with np.errstate(all="ignore"):
            return self._pieces(points)

    def _step_at(self, points) -> dict[str, np.ndarray]:
        with np.errstate(all="ignore"):
            return self._step(points)

    def _trace(self, k: dict[str, np.ndarray], B: np.ndarray) -> np.ndarray:
        """Per-row Ito traces, shape (..., p); zero for a row without blocks."""
        trace = np.zeros(B.shape[:-2] + (self.problem.p,))
        for i, keys in enumerate(self._blocks):
            if keys:
                trace[..., i] = _ito_trace(k, keys, B)
        return trace

    def _solve(self, k: dict[str, np.ndarray]):
        """(a, B, det D_u g) from the evaluated pieces, by batched LAPACK solves.

        a and B are meaningless where det fails the guard; nothing reads them there.
        """
        dxg, dug, sig, f = k["dxg"], k["dug"], k["sigma"], k["f"]
        with np.errstate(all="ignore"):
            det = np.linalg.det(dug)
            rhs_b = -(dxg @ sig + k["gamma"])
            ok = regular(det)
            safe_dug = np.where(ok[..., None, None], dug, _eye(self.problem.m))
            B = np.linalg.solve(safe_dug, rhs_b)
            trace = self._trace(k, B)
            rhs_a = -((dxg @ f[..., None])[..., 0] + 0.5 * trace)
            a = np.linalg.solve(safe_dug, rhs_a[..., None])[..., 0]
        return a, B, det

    def _solved_step(self, points) -> dict[str, np.ndarray]:
        """The step for m >= 3: the pieces kernel, then :meth:`_solve`."""
        k = self._pieces_at(points)
        a, B, det = self._solve(k)
        return {
            "drift": np.concatenate([k["f"], a], axis=-1),
            "diffusion": np.concatenate([k["sigma"], B], axis=-2),
            "det": det,
        }

    def coefficients(self, points: np.ndarray):
        """Evaluate (a, B, det D_u g) at points of shape (..., n+m).

        a and B are nan wherever the guard fails.
        """
        step = self._step_at(points)
        n, det = self.problem.n, step["det"]
        ok = regular(det)
        a = np.where(ok[..., None], step["drift"][..., n:], np.nan)
        B = np.where(ok[..., None, None], step["diffusion"][..., n:, :], np.nan)
        return a, B, det

    def diffusion_residual(self, points: np.ndarray) -> np.ndarray:
        """(D_x g) sigma + (D_u g) B + Gamma; zero wherever B is defined.

        B comes from :meth:`coefficients`, the Jacobians from the pieces
        kernel, so the identity checks one against the other.
        """
        k = self._pieces_at(points)
        _, B, _ = self.coefficients(points)
        return k["dxg"] @ k["sigma"] + k["dug"] @ B + k["gamma"]

    def drift_residual(self, points: np.ndarray) -> np.ndarray:
        """Drift half of the constraint differential; zero wherever a is defined."""
        k = self._pieces_at(points)
        a, B, _ = self.coefficients(points)
        return (
            0.5 * self._trace(k, B)
            + (k["dxg"] @ k["f"][..., None])[..., 0]
            + (k["dug"] @ a[..., None])[..., 0]
        )

    def sde(self) -> AugmentedSde:
        """The reduced SDE; one step-kernel call gives its guard and coefficients."""
        return guarded_sde(self.problem, self._step)


def _ito_trace(k: dict[str, np.ndarray], keys: tuple[str, ...], B: np.ndarray) -> np.ndarray:
    """Tr(sigma D2_xx g_i sigma' + B D2_uu g_i B' + 2 sigma D2_xu g_i B').

    Only the blocks named in ``keys`` (a non-empty subset of row i's blocks,
    in _BLOCKS order) are summed, left to right as in the full formula.
    """
    sig = k["sigma"]
    outer = {"hxx": (sig, sig), "huu": (B, B), "hxu": (sig, B)}
    total = None
    for key in keys:
        left, right = outer[key[:3]]
        term = np.einsum(_TRACE, left, k[key], right)
        if key.startswith("hxu"):
            term = 2.0 * term
        total = term if total is None else total + term
    return total


def _structurally_zero(block: list[list[expr.Expression]]) -> bool:
    """Every entry is the constant 0, so the block's trace term is exactly +0.0."""
    return all(isinstance(e, expr.Constant) and e.value == 0.0 for row in block for e in row)


def build_index1_reduction(pr: SdaeProblem) -> Index1Reduction:
    cls = classify(pr)
    if cls.kind is not ProblemKind.INDEX1:
        raise MethodPreconditionError(
            "constraint does not reference the algebraic variable (D_u g = 0); "
            "the index-1 reduction does not apply - reduce the index or use an "
            "approximate method"
        )
    if pr.m != pr.p:
        raise DimensionMismatchError(
            f"index-1 reduction needs m = p, got m={pr.m}, p={pr.p}"
        )
    x_l, u_l = pr.x_labels, pr.u_labels
    dxg_sym = expr.jacobian(pr.g, x_l)
    dug_sym = expr.jacobian(pr.g, u_l)

    red = Index1Reduction(problem=pr, a_symbolic=None, b_symbolic=None)
    outputs = {"f": pr.f, "sigma": pr.sigma, "gamma": pr.gamma, "dxg": dxg_sym, "dug": dug_sym}
    for i, gi in enumerate(pr.g):
        keys = []
        for kind, names_a, names_b in zip(_BLOCKS, (x_l, u_l, x_l), (x_l, u_l, u_l)):
            block = expr.hessian(gi, names_a, names_b)
            if not _structurally_zero(block):
                keys.append(f"{kind}{i}")
                outputs[keys[-1]] = block
        red._blocks.append(tuple(keys))
    red._pieces = expr.compile_kernel(pr.labels, outputs)

    if pr.m <= 2:
        inv = _symlin.inverse(dug_sym)
        rhs_b = _symlin.matmul(dxg_sym, pr.sigma)
        rhs_b = [[expr.add(v, gmr) for v, gmr in zip(row, grow)] for row, grow in zip(rhs_b, pr.gamma)]
        red.b_symbolic = [
            [expr.neg(e) for e in row] for row in _symlin.matmul(inv, rhs_b)
        ]
        # drift row needs the symbolic B inside its trace terms
        b_sym = red.b_symbolic
        rhs_a: list[expr.Expression] = []
        for drift, gi in zip(_symlin.matvec(dxg_sym, pr.f), pr.g):
            xx = _symlin.quad_trace(pr.sigma, expr.hessian(gi, x_l, x_l), pr.sigma)
            uu = _symlin.quad_trace(b_sym, expr.hessian(gi, u_l, u_l), b_sym)
            xu = _symlin.quad_trace(pr.sigma, expr.hessian(gi, x_l, u_l), b_sym)
            tr = expr.add(expr.add(xx, uu), expr.mul(expr.const(2.0), xu))
            rhs_a.append(expr.add(drift, expr.mul(expr.const(0.5), tr)))
        red.a_symbolic = [expr.neg(e) for e in _symlin.matvec(inv, rhs_a)]
        red._step = expr.compile_kernel(pr.labels, {
            "drift": [*pr.f, *red.a_symbolic],
            "diffusion": [*pr.sigma, *red.b_symbolic],
            "det": _symlin.det(dug_sym),
        })
    else:
        red._step = red._solved_step
    return red


def build_index1_sde(pr: SdaeProblem) -> AugmentedSde:
    """Validate the reduction at the initial point and return the reduced SDE."""
    red = build_index1_reduction(pr)
    _, _, det = red.coefficients(pr.init_point())
    if not regular(det):
        raise SingularReductionError(
            f"|det D_u g| = {abs(float(det)):.3e} at the initial point "
            f"(guard {SINGULAR_TOL:.1e})"
        )
    return red.sde()


def index1_setup(pr: SdaeProblem) -> tuple[AugmentedSde, np.ndarray]:
    """The reduced SDE and its initial state; refuses an initial point off the constraint."""
    pr.require_consistent_init()
    return build_index1_sde(pr), pr.init_point()


def solve_index1(pr: SdaeProblem, dt: float, T: float, seed: int) -> SamplePath:
    """End-to-end: reduce, integrate, and report the worst constraint violation.

    The violation is max |lambda| for the constraint process
    lambda = g + int Gamma dW that the reduction keeps at zero; it is g
    itself when Gamma = 0.
    """
    sde, init = index1_setup(pr)
    increments = wiener_increments(seed, n_steps(T, dt), pr.d, dt)
    path = euler_maruyama(sde, init, dt, T, increments, seed=seed)
    lam = constraint_process(pr, path)
    path.metadata["max_constraint_violation"] = float(np.abs(lam).max())
    return path
