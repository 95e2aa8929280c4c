"""Contraction check and a discretised fixed-point solver.

Existence and uniqueness of a local solution is guaranteed when the map

    phi(x, u)_t = ( x0 + int f dt + int sigma dW,
                    u_t - g(x_t, u_t) - int Gamma dW )

contracts, which holds when M = sup |D(0, u - g(x, u))| < 1 over a box and
the horizon stays below

    a < (-4d(n k_s^2 + m k_G^2)
         + sqrt(16 d^2 (n k_s^2 + m k_G^2)^2 + 4 k_f^2 (1 - M^2))) / (4 k_f^2).

Lipschitz constants are estimated from random point pairs, so the reported
horizon is an estimate, not a certificate.  The solver iterates the
discretised phi with noise increments frozen across sweeps; its fixed point
coincides with the explicit fixed-step recursion of the reduced dynamics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr
from .errors import DimensionMismatchError, NonConvergenceError
from .integrator import PathStatus, SamplePath, StatusKind, n_steps, wiener_increments
from .problem import SdaeProblem
from .wellposedness import grid_points

__all__ = ["ContractionReport", "check_contraction", "picard_solve"]


@dataclass
class ContractionReport:
    M: float
    kf: float
    k_sigma: float
    k_gamma: float
    horizon: float
    satisfied: bool
    box: list[tuple[float, float]]
    grid_per_dim: int
    sample_pairs: int
    norm: str  # 'spectral' or 'rowsum'

    def __str__(self) -> str:
        state = "satisfied" if self.satisfied else "not satisfied"
        return (
            f"M = {self.M:.6g}, kf = {self.kf:.4g}, k_sigma = {self.k_sigma:.4g}, "
            f"k_gamma = {self.k_gamma:.4g}, horizon = {self.horizon:.6g} ({state}; "
            "Lipschitz constants are sampled estimates, not certified bounds)"
        )


def _lipschitz_estimate(va, vb, pts_a, pts_b) -> float:
    """Largest |v(a) - v(b)| / |a - b| over the pairs, from values at both ends."""
    num = np.linalg.norm((va - vb).reshape(va.shape[0], -1), axis=1)
    den = np.linalg.norm(pts_a - pts_b, axis=1)
    mask = den > 0
    return float(np.max(num[mask] / den[mask])) if mask.any() else 0.0


def horizon_bound(M: float, kf: float, k_sigma: float, k_gamma: float,
                  n: int, m: int, d: int) -> float:
    """Largest admissible horizon for the contraction estimate."""
    if M >= 1.0:
        return 0.0
    K = d * (n * k_sigma**2 + m * k_gamma**2)
    if kf > 0.0:
        return (-4.0 * K + np.sqrt(16.0 * K**2 + 4.0 * kf**2 * (1.0 - M**2))) / (4.0 * kf**2)
    if K > 0.0:
        return (1.0 - M**2) / (8.0 * K)
    return float("inf")


def check_contraction(
    pr: SdaeProblem,
    box: Sequence[tuple[float, float]],
    grid_per_dim: int = 11,
    sample_pairs: int = 10_000,
    seed: int = 0,
    norm: str = "spectral",
) -> ContractionReport:
    """Estimate M, the Lipschitz constants, and the admissible horizon."""
    if pr.m != pr.p:
        raise DimensionMismatchError(
            f"the contraction condition is stated for m = p; got m={pr.m}, p={pr.p}"
        )
    box = list(box)
    if len(box) != pr.n + pr.m:
        raise ValueError(f"box must cover all {pr.n + pr.m} (x, u) dimensions")
    if norm not in ("spectral", "rowsum"):
        raise ValueError("norm must be 'spectral' or 'rowsum'")

    jac = expr.compile_kernel(
        pr.labels,
        {"dxg": expr.jacobian(pr.g, pr.x_labels), "dug": expr.jacobian(pr.g, pr.u_labels)},
    )(grid_points(box, grid_per_dim))
    lower = np.concatenate([-jac["dxg"], np.eye(pr.m)[None] - jac["dug"]], axis=2)
    if norm == "spectral":
        # top n rows of Dh are zero; the spectral norm equals that of the lower block
        M = float(np.linalg.svd(lower, compute_uv=False)[:, 0].max())
    else:
        M = float(np.abs(lower).sum(axis=2).max())

    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts_a = rng.uniform(lo, hi, size=(sample_pairs, pr.n + pr.m))
    pts_b = rng.uniform(lo, hi, size=(sample_pairs, pr.n + pr.m))
    coeff = expr.compile_kernel(pr.labels, {"f": pr.f, "sigma": pr.sigma, "gamma": pr.gamma})
    va, vb = coeff(pts_a), coeff(pts_b)
    kf, k_sigma, k_gamma = (
        _lipschitz_estimate(va[key], vb[key], pts_a, pts_b) for key in ("f", "sigma", "gamma")
    )

    a = horizon_bound(M, kf, k_sigma, k_gamma, pr.n, pr.m, pr.d)
    return ContractionReport(
        M=M, kf=kf, k_sigma=k_sigma, k_gamma=k_gamma,
        horizon=float(a), satisfied=bool(M < 1.0 and a > 0.0),
        box=box, grid_per_dim=grid_per_dim, sample_pairs=sample_pairs, norm=norm,
    )


def picard_solve(
    pr: SdaeProblem,
    dt: float,
    T: float,
    iterations: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
    box: Sequence[tuple[float, float]] | None = None,
    contraction: ContractionReport | None = None,
) -> SamplePath:
    """Iterate the discretised fixed-point map to a trajectory on (x, u).

    Noise increments are generated once from the seed and frozen across
    sweeps, so the fixed point is deterministic.  If a contraction report is
    supplied and not satisfied (or T exceeds its horizon) a warning is
    emitted and the iteration is attempted anyway.
    """
    if pr.m != pr.p:
        raise DimensionMismatchError(
            f"the fixed-point map is stated for m = p; got m={pr.m}, p={pr.p}"
        )
    pr.require_consistent_init()
    if contraction is not None:
        if not contraction.satisfied:
            warnings.warn(
                "contraction condition not satisfied; attempting the iteration anyway",
                stacklevel=2,
            )
        elif T > contraction.horizon:
            warnings.warn(
                f"T = {T:g} exceeds the estimated horizon {contraction.horizon:g}; "
                "the iteration may not contract over the whole interval",
                stacklevel=2,
            )

    steps = n_steps(T, dt)
    dW = wiener_increments(seed, steps, pr.d, dt)
    kernel = expr.compile_kernel(
        pr.labels, {"f": pr.f, "sigma": pr.sigma, "g": pr.g, "gamma": pr.gamma}
    )
    noisy = not pr.gamma_is_zero()

    K = steps + 1
    x = np.tile(pr.x0, (K, 1))
    u = np.tile(pr.u0_guess, (K, 1))
    deltas: list[float] = []
    converged = False
    used = 0
    with np.errstate(all="ignore"):
        for it in range(iterations):
            k = kernel(np.concatenate([x, u], axis=1))
            x_new = np.empty_like(x)
            x_new[0] = pr.x0
            drift_terms = k["f"][:-1] * dt
            noise_terms = np.einsum("knd,kd->kn", k["sigma"][:-1], dW)
            np.cumsum(drift_terms + noise_terms, axis=0, out=x_new[1:])
            x_new[1:] += pr.x0
            u_new = u - k["g"]
            if noisy:  # left-point Gamma
                acc = np.zeros((K, pr.p))
                np.cumsum(np.einsum("kpd,kd->kp", k["gamma"][:-1], dW), axis=0, out=acc[1:])
                u_new = u_new - acc
            if not (np.isfinite(x_new).all() and np.isfinite(u_new).all()):
                raise NonConvergenceError(it + 1, float("inf"))
            delta = max(np.abs(x_new - x).max(), np.abs(u_new - u).max())
            deltas.append(float(delta))
            x, u = x_new, u_new
            used = it + 1
            if delta < tol:
                converged = True
                break
    if not converged:
        raise NonConvergenceError(used, deltas[-1] if deltas else float("inf"))

    states = np.concatenate([x, u], axis=1)
    status = PathStatus(StatusKind.COMPLETED)
    last = steps
    if box is not None:
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        outside = ((states < lo) | (states > hi)).any(axis=1)
        exits = np.nonzero(outside)[0]
        if exits.size:
            last = int(exits[0])
            status = PathStatus(StatusKind.REGION_EXIT, last)
    path = SamplePath(
        dt=dt,
        t_grid=np.arange(last + 1, dtype=float) * dt,
        states=states[: last + 1],
        dW=dW[:last],
        seed=seed,
        status=status,
        labels=pr.labels,
        metadata={"iterations": used, "deltas": deltas, "converged": converged},
    )
    return path
