"""Geometric necessary condition for solvability of uncontrollable-noise problems.

A high-index problem whose diffusion ignores the algebraic variable can only
have a solution if the noise stays tangent to the (suspended) constraint
manifold.  That tangency reduces to the residual matrix

    R(x) = D_x g(x) . sigma(x) + Gamma(x)

being identically zero.  Sampling R over a box yields a semi-decision: a
nonzero residual certifies ill-posedness, a zero residual at the samples is
only evidence, which the verdict name makes explicit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import InapplicableError
from .problem import SdaeProblem, Verdict

__all__ = ["TangencyReport", "suspend", "tangency_residual", "is_ill_posed"]

DEFAULT_TOL = 1e-8


@dataclass
class TangencyReport:
    residuals: np.ndarray  # (probes, p, d)
    probes: np.ndarray  # (probes, n)
    max_residual_norm: float
    argmax_point: np.ndarray
    verdict: Verdict
    tol: float


def suspend(pr: SdaeProblem) -> SdaeProblem:
    """Rewrite a noisy constraint as a noiseless one on an enlarged state.

    Adjoins z = integral of Gamma dW as p extra states with zero drift and
    Gamma as their diffusion rows; the constraint becomes g(x, u) + z with
    z(0) = 0.  Solutions of the suspended problem project onto solutions of
    the original one.
    """
    z_labels = [f"x{pr.n + i + 1}" for i in range(pr.p)]
    zero = expr.const(0.0)
    f_new = list(pr.f) + [zero] * pr.p
    sigma_new = [list(row) for row in pr.sigma] + [list(row) for row in pr.gamma]
    g_new = [expr.add(gi, expr.var(z)) for gi, z in zip(pr.g, z_labels)]
    gamma_new = [[zero] * pr.d for _ in range(pr.p)]
    return SdaeProblem(
        n=pr.n + pr.p,
        m=pr.m,
        p=pr.p,
        d=pr.d,
        f=f_new,
        sigma=sigma_new,
        g=g_new,
        gamma=gamma_new,
        x0=np.concatenate([pr.x0, np.zeros(pr.p)]),
        u0_guess=pr.u0_guess.copy(),
        name=f"{pr.name}-suspended" if pr.name else "suspended",
    )


def _require_unsdae(pr: SdaeProblem) -> None:
    if pr.constraint_references_u() or pr.sigma_references_u():
        raise InapplicableError(
            "tangency residual is defined only for uncontrollable-noise "
            "problems (g, Gamma and sigma all free of u); for other classes "
            "the condition involves the unknown algebraic diffusion"
        )


def _residuals(pr: SdaeProblem, points: np.ndarray) -> np.ndarray:
    """R at points whose columns are the leading labels (x, or x and u)."""
    k = expr.compile_kernel(
        pr.labels[: points.shape[-1]],
        {"dxg": expr.jacobian(pr.g, pr.x_labels), "sigma": pr.sigma, "gamma": pr.gamma},
    )(points)
    return k["dxg"] @ k["sigma"] + k["gamma"]


def tangency_residual(pr: SdaeProblem, point: np.ndarray) -> np.ndarray:
    """Residual matrix R = (D_x g) sigma + Gamma at one point, shape (p, d)."""
    _require_unsdae(pr)
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.shape[0] not in (pr.n, pr.n + pr.m):
        raise ValueError(f"point must have dimension {pr.n} or {pr.n + pr.m}")
    return _residuals(pr, point)


def grid_points(box, grid_per_dim: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, grid_per_dim) for lo, hi in box]
    if not axes:
        return np.zeros((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def is_ill_posed(
    pr: SdaeProblem,
    box,
    grid_per_dim: int = 21,
    tol: float = DEFAULT_TOL,
) -> TangencyReport:
    """Sample the tangency residual over a box (plus the initial point)."""
    _require_unsdae(pr)
    box = list(box)
    if len(box) != pr.n:
        raise ValueError(f"box must cover the {pr.n} state dimensions")
    probes = np.vstack([pr.x0[None], grid_points(box, grid_per_dim)])
    P = probes.shape[0]
    residuals = _residuals(pr, probes)
    if residuals.size == 0:  # d = 0: no noise directions, nothing to violate
        norms = np.zeros(P)
    else:
        norms = np.abs(residuals).reshape(P, -1).max(axis=1)
    worst = int(np.argmax(norms))
    max_norm = float(norms[worst])
    verdict = Verdict.ILL_POSED if max_norm > tol else Verdict.NOT_ILL_POSED_AT_SAMPLES
    return TangencyReport(
        residuals=residuals,
        probes=probes,
        max_residual_norm=max_norm,
        argmax_point=probes[worst],
        verdict=verdict,
        tol=tol,
    )
