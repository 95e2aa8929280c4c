"""Constraint-bounded reduction driven by a user-supplied characteristic map.

Given a high-index problem with noiseless constraint and a map y(v) with
sup_v |g(y(v))| < eps, the algebraic variable receives the dynamics

    B   = ((Dg) D_v y)^{-1} (Dg) sigma
    Lam = sigma - (D_v y) B
    chi_i = (d g_i / d x_w) (f_w - 1/2 B_kr (d2 y_w / dv_j dv_k) B_jr
                              - (d Lam_wj / dv_l) B_lj)
            + 1/2 Lam_kj (d2 g_i / dx_k dx_l) Lam_lj
    a   = ((Dg) D_v y)^{-1} chi

which freezes the composed constraint field: the value g(x(t)) equals
g(y(u(t))) and therefore stays inside the eps-band with probability one (up
to discretisation).  All pieces are assembled symbolically (cofactor inverse
for the m-by-m solve) with explicit index summation for the mixed terms, so
identities such as (Dg) Lam = 0 can be checked numerically at any point.

The choice of y is the caller's: only its time-zero shape enters and the
toolkit validates the eps-band on a sampling grid rather than certifying the
supremum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _symlin, expr
from .errors import (
    DimensionMismatchError,
    MethodPreconditionError,
    NewtonDivergenceError,
    SingularJacobianError,
    SpecInvalidError,
)
from .integrator import (
    NEWTON_MAX_ITER,
    AugmentedSde,
    SamplePath,
    _newton_batch,
    euler_maruyama,
    guarded_sde,
    n_steps,
    wiener_increments,
)
from .problem import ProblemKind, SdaeProblem, classify, regular
from .wellposedness import grid_points

__all__ = [
    "CharacteristicSpec",
    "UnitProbReduction",
    "validate_characteristic",
    "build_unit_prob_sde",
    "consistent_init",
    "solve_unit_prob",
    "paper_example_spec",
]

STIFFNESS_BUDGET = 0.1


@dataclass
class CharacteristicSpec:
    """Map y: R^m -> R^n (expressions in u1..um) plus the band half-width."""

    y: list[expr.Expression]
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise SpecInvalidError("epsilon must be positive")

    def composed_constraint(self, pr: SdaeProblem) -> list[expr.Expression]:
        """g evaluated along the characteristic: pure expressions in u."""
        mapping = {f"x{i + 1}": yi for i, yi in enumerate(self.y)}
        return [expr.substitute(gi, mapping) for gi in pr.g]


def paper_example_spec(epsilon: float) -> CharacteristicSpec:
    """The arctan characteristic used with the 'paper-example' builtin."""
    c = epsilon / (4.0 * math.pi)
    return CharacteristicSpec(
        y=[expr.parse(f"-({c!r})*atan(u1)"), expr.parse("0")],
        epsilon=epsilon,
    )


def validate_characteristic(
    pr: SdaeProblem,
    spec: CharacteristicSpec,
    box=None,
    grid_per_dim: int = 101,
) -> None:
    """Grid-check the eps-band and the invertibility of (Dg)(D_v y)."""
    if len(spec.y) != pr.n:
        raise SpecInvalidError(
            f"characteristic has {len(spec.y)} components, state dimension is {pr.n}"
        )
    u_set = set(pr.u_labels)
    for i, yi in enumerate(spec.y):
        extra = expr.free_variables(yi) - u_set
        if extra:
            raise SpecInvalidError(
                f"characteristic component {i + 1} references {sorted(extra)}; "
                f"only {sorted(u_set)} are allowed"
            )
    if box is None:
        box = [(-10.0, 10.0)] * pr.m
    composed = _composed_kernel(pr, spec)
    pts = grid_points(list(box), grid_per_dim)
    with np.errstate(all="ignore"):
        vals = composed(pts)["z"]
        det = float(np.linalg.det(composed(pr.u0_guess)["jac"]))
    norms = np.abs(vals).max(axis=1)
    if not np.isfinite(norms).all():
        worst = pts[int(np.argmax(~np.isfinite(norms)))]
        raise SpecInvalidError(f"g(y(v)) is not finite at v = {worst}")
    if norms.max() >= spec.epsilon:
        worst = pts[int(np.argmax(norms))]
        raise SpecInvalidError(
            f"|g(y(v))| = {norms.max():.6g} >= epsilon = {spec.epsilon:g} "
            f"at v = {worst}; tighten y or enlarge epsilon"
        )
    if not regular(det):
        raise SpecInvalidError(
            f"(Dg)(D_v y) is singular at the initial v (det = {det:.3e})"
        )


def _composed_kernel(pr: SdaeProblem, spec: CharacteristicSpec) -> Callable:
    """z = g(y(v)) and its Jacobian Dg(y(v)) . D_v y(v), as one kernel over v."""
    z = spec.composed_constraint(pr)
    return expr.compile_kernel(pr.u_labels, {"z": z, "jac": expr.jacobian(z, pr.u_labels)})


@dataclass
class UnitProbReduction:
    """Symbolic coefficient fields of the reduced SDE on (x, u)."""

    problem: SdaeProblem
    spec: CharacteristicSpec
    b_symbolic: list[list[expr.Expression]]  # m x d
    lambda_symbolic: list[list[expr.Expression]]  # n x d
    chi_symbolic: list[expr.Expression]  # m
    a_symbolic: list[expr.Expression]  # m
    gain_det: expr.Expression  # det((Dg) D_v y)

    # kernels built by build_unit_prob_sde: the step's drift (f; a),
    # diffusion (sigma; B) and guard gain_det, and the pieces the identity
    # checks assemble numerically
    _step: Callable = field(repr=False, default=None)
    _pieces: Callable = field(repr=False, default=None)

    def _pieces_at(self, points) -> dict[str, np.ndarray]:
        with np.errstate(all="ignore"):
            return self._pieces(points)

    def b_values(self, points) -> np.ndarray:
        return self._pieces_at(points)["B"]

    def a_values(self, points) -> np.ndarray:
        return self._pieces_at(points)["a"]

    def lambda_values(self, points) -> np.ndarray:
        return self._pieces_at(points)["lam"]

    def noise_residual(self, points) -> np.ndarray:
        """(Dg) Lambda, identically zero by construction of B."""
        k = self._pieces_at(points)
        with np.errstate(all="ignore"):
            return k["dxg"] @ k["lam"]

    def frozen_drift_residual(self, points) -> np.ndarray:
        """Drift of the composed constraint field; zero once a is substituted.

        Assembled numerically from the independent pieces (not from chi) so it
        cross-checks the symbolic assembly: (Dg)F + 1/2 Tr(Lam' D2g Lam) with
        F_w = f_w - (D_v y a)_w - 1/2 B(d2 y)B|_w - (dLam/dv B)_w.
        """
        pr = self.problem
        k = self._pieces_at(points)
        B, lam = k["B"], k["lam"]
        with np.errstate(all="ignore"):
            F = k["f"] - (k["dvy"] @ k["a"][..., None])[..., 0]
            for w in range(pr.n):
                F[..., w] -= 0.5 * np.einsum("...kj,...kl,...lj->...", B, k["hy"][..., w, :, :], B)
                # dlam[w, l, j] = dLam_wj/dv_l
                F[..., w] -= np.einsum("...lj,...lj->...", k["dlam"][..., w, :, :], B)
            out = (k["dxg"] @ F[..., None])[..., 0]
            for i in range(pr.p):
                out[..., i] += 0.5 * np.einsum("...kj,...kl,...lj->...", lam, k["hg"][..., i, :, :], lam)
        return out

    def sde(self) -> AugmentedSde:
        """The reduced SDE; one step-kernel call gives its guard and coefficients."""
        return guarded_sde(self.problem, self._step)


def build_unit_prob_sde(
    pr: SdaeProblem,
    spec: CharacteristicSpec,
    *,
    box=None,
    grid_per_dim: int = 101,
) -> UnitProbReduction:
    """Validate the characteristic on its grid and assemble the reduced SDE."""
    if classify(pr).kind is not ProblemKind.HIGH_INDEX:
        raise MethodPreconditionError(
            "the characteristic construction applies to high-index problems; "
            "index-1 problems already have an exact reduction"
        )
    if not pr.gamma_is_zero():
        raise MethodPreconditionError(
            "constraint noise must be zero; suspend() the problem first to "
            "absorb Gamma into extra states"
        )
    if pr.m != pr.p:
        raise DimensionMismatchError(
            f"the m-by-m solve needs m = p; got m={pr.m}, p={pr.p}"
        )
    validate_characteristic(pr, spec, box=box, grid_per_dim=grid_per_dim)

    x_l, u_l = pr.x_labels, pr.u_labels
    dg = expr.jacobian(pr.g, x_l)  # p x n
    dvy = expr.jacobian(spec.y, u_l)  # n x m
    gain = _symlin.matmul(dg, dvy)  # m x m
    gain_det = _symlin.det(gain)
    inv_gain = _symlin.inverse(gain)

    b_sym = _symlin.matmul(inv_gain, _symlin.matmul(dg, pr.sigma))  # m x d
    lam_sym = _symlin.matsub(pr.sigma, _symlin.matmul(dvy, b_sym))  # n x d

    chi_sym: list[expr.Expression] = []
    hy = [expr.hessian(yw, u_l, u_l) for yw in spec.y]
    hg = [expr.hessian(gi, x_l, x_l) for gi in pr.g]
    # dlam[w][l][j] = dLam_wj / dv_l
    dlam = [
        [[expr.differentiate(lam_sym[w][j], ul) for j in range(pr.d)] for ul in u_l]
        for w in range(pr.n)
    ]
    s_terms: list[expr.Expression] = []
    for w in range(pr.n):
        tr = _symlin.quad_trace(b_sym, hy[w], b_sym)
        s = expr.sub(pr.f[w], expr.mul(expr.const(0.5), tr))
        for j in range(pr.d):
            for l in range(pr.m):
                s = expr.sub(s, expr.mul(dlam[w][l][j], b_sym[l][j]))
        s_terms.append(s)
    for acc, hgi in zip(_symlin.matvec(dg, s_terms), hg):
        tr = _symlin.quad_trace(lam_sym, hgi, lam_sym)
        chi_sym.append(expr.add(acc, expr.mul(expr.const(0.5), tr)))
    a_sym = _symlin.matvec(inv_gain, chi_sym)

    red = UnitProbReduction(
        problem=pr,
        spec=spec,
        b_symbolic=b_sym,
        lambda_symbolic=lam_sym,
        chi_symbolic=chi_sym,
        a_symbolic=a_sym,
        gain_det=gain_det,
    )
    labels = pr.labels
    red._step = expr.compile_kernel(
        labels,
        {"drift": list(pr.f) + a_sym, "diffusion": list(pr.sigma) + b_sym, "det": gain_det},
    )
    red._pieces = expr.compile_kernel(
        labels,
        {
            "f": pr.f, "a": a_sym, "B": b_sym, "lam": lam_sym, "dxg": dg, "dvy": dvy,
            "hy": hy, "dlam": dlam, "hg": hg,
        },
    )
    return red


def consistent_init(
    spec: CharacteristicSpec,
    pr: SdaeProblem,
    u_guess: np.ndarray | None = None,
) -> np.ndarray:
    """Newton-solve g(y(v)) = 0 for the initial algebraic value."""
    composed = _composed_kernel(pr, spec)
    v = np.array(pr.u0_guess if u_guess is None else u_guess, dtype=float).reshape(-1)
    if v.shape != (pr.m,):
        raise DimensionMismatchError(f"u_guess must have length {pr.m}")

    def fn(u):
        k = composed(u)
        return k["z"], k["jac"]

    u, converged, singular, _ = _newton_batch(fn, v[None], 1e-12)
    if converged[0]:
        return u[0]
    with np.errstate(all="ignore"):
        k = composed(u[0])
        det = np.linalg.det(k["jac"])
    if singular[0] and not regular(det):
        raise SingularJacobianError(
            f"(Dg)(D_v y) singular during initialisation (det = {det:.3e})"
        )
    raise NewtonDivergenceError(NEWTON_MAX_ITER, float(np.abs(k["z"]).max()))


def _unit_prob_setup(
    pr: SdaeProblem,
    spec: CharacteristicSpec,
    dt: float,
    box=None,
    grid_per_dim: int = 101,
) -> tuple[AugmentedSde, np.ndarray]:
    """The reduced SDE and its consistent initial state; warns when x0 is off
    the characteristic and when |B|^2 dt at the initial state exceeds STIFFNESS_BUDGET.

    The warnings name the caller of solve_unit_prob or of the CLI's ensemble
    solve, the two callers of this function.
    """
    red = build_unit_prob_sde(pr, spec, box=box, grid_per_dim=grid_per_dim)
    u0 = consistent_init(spec, pr)
    env = dict(zip(pr.u_labels, u0.tolist()))
    y0 = np.array([expr.evaluate(yi, env) for yi in spec.y])
    if np.abs(y0 - pr.x0).max() > 1e-8:
        warnings.warn(
            f"x0 = {pr.x0} does not lie on the characteristic (y(u0) = {y0}); "
            "the frozen-band identity g(x(t)) = g(y(u(t))) will only hold "
            "approximately",
            stacklevel=3,
        )
    init = np.concatenate([pr.x0, u0])
    b0 = red.b_values(init)
    stiffness = float(np.sum(b0**2)) * dt
    if stiffness > STIFFNESS_BUDGET:
        warnings.warn(
            f"|B|^2 dt = {stiffness:.3g} exceeds {STIFFNESS_BUDGET}; the explicit "
            f"scheme will be noisy - consider dt <= {STIFFNESS_BUDGET / np.sum(b0**2):.2e}",
            stacklevel=3,
        )
    return red.sde(), init


def solve_unit_prob(
    pr: SdaeProblem,
    spec: CharacteristicSpec,
    dt: float,
    T: float,
    seed: int,
) -> SamplePath:
    """Set up the reduced SDE (see _unit_prob_setup) and integrate one path."""
    sde, init = _unit_prob_setup(pr, spec, dt)
    increments = wiener_increments(seed, n_steps(T, dt), pr.d, dt)
    path = euler_maruyama(sde, init, dt, T, increments, seed=seed)
    g_vals = pr.constraint_kernel(pr.labels)(path.states)["g"]
    g_norm = np.abs(g_vals).max(axis=1)
    path.metadata["sup_constraint_norm"] = float(g_norm.max())
    path.metadata["fraction_inside_band"] = float(np.mean(g_norm < spec.epsilon))
    return path
