"""Seeded noise generation and fixed-step Euler-Maruyama integration.

Reproducibility contract: all normal variates come from a counter-based
64-bit generator (splitmix-style mixing, inverse-CDF transform), so a path is
a pure function of its seed and an ensemble of its base seed, independent of
evaluation order or batching.  The step loop is vectorised across paths; a
single path is just a batch of one, so both produce bit-identical states.

Every method runs on one engine, ``_em_batch``.  Each step makes one call
``both(x) -> (ok, drift, diffusion)``, so a reduction's singular guard comes
from the same evaluation as its coefficients.  Methods that keep part of the
state on a constraint (bounded Newton) add a ``project`` hook that fills
those columns after the step.

Every algebraic solve in the package runs on one batched Newton loop,
``_newton_batch``, whose ``(u, converged, singular, iters)`` result is the
``project`` hook's contract: the per-step projection of bounded Newton and
the one-point consistent initial values (bounded, the index reduction and
Algorithm 1's characteristic) all call it, the last on a batch of one.

Paths that leave the coefficient domain, trip a reduction's singular guard or
fail their projection are truncated and returned with a status instead of
raising: Monte Carlo statistics must be able to count failures.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np
from scipy.special import ndtri

from . import expr
from .problem import SdaeProblem

__all__ = [
    "AugmentedSde",
    "SamplePath",
    "Ensemble",
    "StatusKind",
    "PathStatus",
    "derive_seed",
    "wiener_increments",
    "n_steps",
    "euler_maruyama",
    "constraint_process",
    "write_path_csv",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser over uint64 arrays (multiplication wraps mod 2^64)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed(base_seed: int, k: int) -> int:
    """Per-path seed stream: splitmix of the base seed and the path index."""
    return int(_mix64(np.uint64((base_seed + (k + 1) * _GOLDEN) & _MASK64)))


def wiener_increments(seed: int, steps: int, d: int, dt: float) -> np.ndarray:
    """I.i.d. normal(0, dt) increments, shape (steps, d), fixed by the seed."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if d == 0:
        return np.zeros((steps, 0))
    idx = np.arange(1, steps * d + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix64(np.uint64(seed & _MASK64) + idx * np.uint64(_GOLDEN))
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return (ndtri(u) * math.sqrt(dt)).reshape(steps, d)


def n_steps(T: float, dt: float) -> int:
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):
        raise ValueError("T and dt must be positive and finite")
    return int(math.ceil(T / dt - 1e-9))


class StatusKind(enum.Enum):
    COMPLETED = "completed"
    DOMAIN_ERROR = "domain-error"
    SINGULAR_REDUCTION = "singular-reduction"


@dataclass(frozen=True)
class PathStatus:
    kind: StatusKind
    step: int | None = None

    def __str__(self) -> str:
        if self.kind is StatusKind.COMPLETED:
            return self.kind.value
        return f"{self.kind.value}@{self.step}"

    @property
    def completed(self) -> bool:
        return self.kind is StatusKind.COMPLETED


@dataclass
class AugmentedSde:
    """A plain SDE produced by a reduction; every callable is batched.

    The engine makes one call per step, ``both(points) -> (ok, drift,
    diffusion)``: points of shape (P, dim) give a drift of shape (P, k) and
    a diffusion of shape (P, k, d) for the leading k <= dim columns, and
    ``ok`` is a boolean mask of the points where the reduction is regular,
    or None when it has no guard.  A path whose mask is false ends with
    SingularReduction before the step.  A hand-written SDE may give
    ``drift``, ``diffusion`` and an optional ``guard`` instead; the engine
    then assembles the same triple from them.

    ``project`` (optional) fills the remaining dim - k columns after each
    step: ``project(state) -> (u, converged, singular, iters)``, where
    ``state`` holds the stepped columns and the previous values of the
    others.  A singular path ends singular-reduction and an unconverged one
    domain-error at that step; ``iters`` is summed per path into
    ``metadata["newton_iterations"]``.
    """

    dim: int
    d: int
    labels: tuple[str, ...]
    drift: Callable[[np.ndarray], np.ndarray] | None = None
    diffusion: Callable[[np.ndarray], np.ndarray] | None = None
    guard: Callable[[np.ndarray], np.ndarray] | None = None
    both: Callable[[np.ndarray], tuple[np.ndarray | None, np.ndarray, np.ndarray]] | None = None
    problem: SdaeProblem | None = None
    project: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None


@dataclass
class SamplePath:
    """One realisation on a uniform grid; possibly truncated with a status."""

    dt: float
    t_grid: np.ndarray  # (k+1,), t_grid[i] = i*dt
    states: np.ndarray  # (k+1, dim)
    dW: np.ndarray  # (k, d) increments actually consumed
    seed: int | None
    status: PathStatus
    labels: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.states.shape[0]

    def column(self, label: str) -> np.ndarray:
        return self.states[:, self.labels.index(label)]


@dataclass
class Ensemble:
    """Paths sharing dt, horizon and generator, with per-path derived seeds."""

    paths: list[SamplePath]
    dt: float
    T: float
    base_seed: int
    problem: SdaeProblem | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.paths)


# ---------------------------------------------------------------------------
# The batched fixed-step engine
# ---------------------------------------------------------------------------

_KIND_ORDER = (
    StatusKind.COMPLETED,
    StatusKind.DOMAIN_ERROR,
    StatusKind.SINGULAR_REDUCTION,
)


def _step_fn(sde: AugmentedSde):
    """The SDE's per-step call ``points -> (ok, drift, diffusion)``."""
    if sde.both is not None:
        return sde.both
    drift, diffusion, guard = sde.drift, sde.diffusion, sde.guard
    if drift is None or diffusion is None:
        raise ValueError("an AugmentedSde needs both, or drift and diffusion")

    def both(points):
        ok = None if guard is None else np.asarray(guard(points), dtype=bool)
        return ok, drift(points), diffusion(points)

    return both


@functools.lru_cache(maxsize=None)
def _eye(m: int) -> np.ndarray:
    """Read-only identity, shared by every Newton solve of size m."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _newton_batch(fn, u0, tol, max_iter, det_tol):
    """Solve res(u) = 0 row-wise, ``fn(u) -> (res, D_u res)``.

    Returns (u, converged, singular, iters).  A path converges when its
    residual is finite and at most ``tol``.  The residual after the last of
    the ``max_iter`` updates is not evaluated, so every convergence is
    confirmed by a residual.  A path is singular where det(D_u res) is not
    finite or at most ``det_tol`` in size, or where its update is not finite;
    its u then keeps its last value.  For m = 1 the 1x1 entry a stands in
    for the determinant and the update is res / a, without LAPACK: its
    one-column 1x1 solve gives the same quotient bit for bit, while its 1x1
    det is sign * exp(log|a|), which may differ from a in the last bits.
    """
    u = u0.copy()
    P, m = u.shape
    converged = np.zeros(P, dtype=bool)
    singular = np.zeros(P, dtype=bool)
    iters = np.zeros(P, dtype=np.int64)
    scalar = m == 1
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            res, jac = fn(u)
            resn = np.abs(res).max(axis=1)
            pending = ~converged & ~singular
            finite = np.isfinite(resn)
            converged |= pending & finite & (resn <= tol)
            pending = ~converged & ~singular
            if not pending.any():
                break
            det = jac[:, 0, 0] if scalar else np.linalg.det(jac)
            bad = pending & (~np.isfinite(det) | (np.abs(det) <= det_tol))
            singular |= bad
            pending &= ~bad
            if not pending.any():
                break
            if scalar:
                delta = res / det[:, None]
            else:
                safe = np.where(pending[:, None, None], jac, _eye(m))
                delta = np.linalg.solve(safe, res[:, :, None])[:, :, 0]
            bad_step = pending & ~np.isfinite(delta).all(axis=1)
            singular |= bad_step
            pending &= ~bad_step
            u = np.where(pending[:, None], u - delta, u)
            iters += pending
    return u, converged, singular, iters


def _em_batch(
    sde: AugmentedSde,
    init: np.ndarray,
    dt: float,
    steps: int,
    dW: np.ndarray,
):
    """Advance a batch of paths; returns (states, stop_index, kind_code, iters).

    ``iters`` holds the per-path sum of the projection's iterations, or is
    None without a ``project`` hook.  The state is updated in place, in
    preallocated buffers, with the same float operations in the same order
    as X + f dt + sum_j sigma_j dW_j.
    """
    P, N = init.shape
    step = _step_fn(sde)
    project = sde.project
    states = np.empty((P, steps + 1, N))
    states[:, 0] = init
    stop = np.full(P, steps, dtype=np.int64)
    kind = np.zeros(P, dtype=np.int8)
    alive = np.ones(P, dtype=bool)
    iters = None if project is None else np.zeros(P, dtype=np.int64)
    x = init.astype(float)

    def end(mask, code, k):
        if mask.any():
            kind[mask] = code
            stop[mask] = k
            alive[mask] = False

    singular = _KIND_ORDER.index(StatusKind.SINGULAR_REDUCTION)
    domain = _KIND_ORDER.index(StatusKind.DOMAIN_ERROR)
    x_next = noise = None
    with np.errstate(all="ignore"):
        for k in range(steps):
            if not alive.any():
                break
            ok, a, b = step(x)
            if ok is not None:
                end(alive & ~ok, singular, k)
                if not alive.any():
                    break
            if x_next is None:  # the stepped columns are known from the first drift
                n = a.shape[-1]
                x_next, noise = np.empty((P, n)), np.empty((P, n))
                stepped = x[:, :n]
            np.multiply(a, dt, out=x_next)
            np.add(stepped, x_next, out=x_next)
            for j in range(sde.d):
                np.multiply(b[:, :, j], dW[:, k, j, None], out=noise)
                x_next += noise
            end(alive & ~np.isfinite(x_next).all(axis=1), domain, k)
            np.copyto(stepped, x_next, where=alive[:, None])
            if project is not None:
                u, converged, sing, it = project(x)
                np.add(iters, it, out=iters, where=alive)
                end(alive & sing, singular, k)
                end(alive & ~converged, domain, k)
                np.copyto(x[:, n:], u, where=alive[:, None])
            states[:, k + 1] = x
    return states, stop, kind, iters


def _initial_state(sde: AugmentedSde, init) -> np.ndarray:
    """``init`` as a flat float vector; refuses one whose length is not sde.dim."""
    init = np.asarray(init, dtype=float).reshape(-1)
    if init.shape != (sde.dim,):
        raise ValueError(f"initial condition must have dimension {sde.dim}, got {init.size}")
    return init


def _extract_path(
    sde: AugmentedSde,
    states: np.ndarray,
    stop: int,
    kind_code: int,
    dt: float,
    dW: np.ndarray,
    seed: int | None,
    steps: int,
    iters: int | None = None,
) -> SamplePath:
    kind = _KIND_ORDER[kind_code]
    last = stop if kind is not StatusKind.COMPLETED else steps
    status = PathStatus(kind, None if kind is StatusKind.COMPLETED else int(stop))
    return SamplePath(
        dt=dt,
        t_grid=np.arange(last + 1, dtype=float) * dt,
        states=states[: last + 1].copy(),
        dW=dW[:last].copy(),
        seed=seed,
        status=status,
        labels=sde.labels,
        metadata={} if iters is None else {"newton_iterations": int(iters)},
    )


def euler_maruyama(
    sde: AugmentedSde,
    init: np.ndarray,
    dt: float,
    T: float,
    increments: np.ndarray,
    *,
    seed: int | None = None,
) -> SamplePath:
    """Fixed-step explicit scheme X_{k+1} = X_k + f dt + sigma dW_k."""
    steps = n_steps(T, dt)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 2 or increments.shape[1] != sde.d:
        raise ValueError(f"increments must have shape (>= {steps}, {sde.d})")
    if increments.shape[0] < steps:
        raise ValueError(
            f"need at least ceil(T/dt) = {steps} increment rows, got {increments.shape[0]}"
        )
    init = _initial_state(sde, init)
    dW = increments[:steps][None]
    states, stop, kind, iters = _em_batch(sde, init[None], dt, steps, dW)
    return _extract_path(
        sde, states[0], int(stop[0]), int(kind[0]), dt, dW[0], seed, steps,
        None if iters is None else iters[0],
    )


# ---------------------------------------------------------------------------
# Constraint process lambda(t) = g(x(t)) + sum of Gamma dW (left-point sums)
# ---------------------------------------------------------------------------


def constraint_process(pr: SdaeProblem, path: SamplePath) -> np.ndarray:
    """Per-grid-point constraint process, shape (len(path), p)."""
    return _g_and_lambda(pr, path)[1]


def _g_and_lambda(pr: SdaeProblem, path: SamplePath) -> tuple[np.ndarray, np.ndarray]:
    """(g, lambda) along the path from one evaluation of the constraint kernel;
    lambda is g itself when Gamma is zero."""
    idx = {lab: i for i, lab in enumerate(path.labels)}
    needed = set()
    for e in pr.g:
        needed |= expr.free_variables(e)
    for row in pr.gamma:
        for e in row:
            needed |= expr.free_variables(e)
    missing = [nm for nm in needed if nm not in idx]
    if missing:
        raise ValueError(f"path does not expose coordinates {missing}")
    k = pr.constraint_kernel(path.labels)(path.states)
    g_vals = k["g"]
    K = len(path) - 1
    if pr.gamma_is_zero() or K == 0 or pr.d == 0:
        return g_vals, g_vals
    terms = np.einsum("kpd,kd->kp", k["gamma"][:K], path.dW[:K])  # left-point Gamma
    acc = np.zeros((K + 1, pr.p))
    np.cumsum(terms, axis=0, out=acc[1:])
    return g_vals, g_vals + acc


_CSV_BLOCK_ROWS = 2048  # rows formatted per write: bounds the temporary text


def _write_rows(fh: TextIO, row_fmt: str, table: np.ndarray) -> None:
    """Write ``table`` row by row with a %-format; blocks keep one call per block."""
    for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        block = table[start : start + _CSV_BLOCK_ROWS]
        fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_path_csv(path: SamplePath, lam: np.ndarray, fh: TextIO) -> None:
    """Path CSV: one row per grid point, 17 significant digits."""
    p = lam.shape[1]
    header = ["t", *path.labels, *[f"lambda{i + 1}" for i in range(p)], "status"]
    fh.write(",".join(header) + "\n")
    table = np.column_stack([path.t_grid, path.states, lam])
    status = str(path.status).replace("%", "%%")
    _write_rows(fh, ",".join(["%.17g"] * table.shape[1] + [status]) + "\n", table)
