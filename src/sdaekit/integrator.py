"""Seeded noise generation and fixed-step Euler-Maruyama integration.

Reproducibility contract: all normal variates come from a counter-based
64-bit generator (splitmix-style mixing, inverse-CDF transform), so a path is
a pure function of its seed and an ensemble of its base seed, independent of
evaluation order or batching.  The step loop is vectorised across paths; a
single path is just a batch of one, so both produce bit-identical states.

Paths that leave the coefficient domain or trip a reduction's singular guard
are truncated and returned with a status instead of raising: Monte Carlo
statistics must be able to count failures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TextIO

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
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if d == 0:
        return np.zeros((steps, 0))
    idx = np.arange(1, steps * d + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix64(np.uint64(seed & _MASK64) + idx * np.uint64(_GOLDEN))
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return (ndtri(u) * math.sqrt(dt)).reshape(steps, d)


def n_steps(T: float, dt: float) -> int:
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    return int(math.ceil(T / dt - 1e-9))


class StatusKind(enum.Enum):
    COMPLETED = "completed"
    DOMAIN_ERROR = "domain-error"
    SINGULAR_REDUCTION = "singular-reduction"
    REGION_EXIT = "region-exit"


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
    """A plain SDE produced by a reduction; drift and diffusion are batched.

    ``drift`` maps points of shape (..., dim) to (..., dim); ``diffusion``
    to (..., dim, d).  ``guard`` (optional) returns a boolean mask of points
    where the reduction's evaluators are regular; an integrator stops a path
    with SingularReduction where the mask is false.  ``both``, when present,
    returns (drift, diffusion) in one evaluation to avoid duplicated work.
    """

    dim: int
    d: int
    labels: tuple[str, ...]
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    origin: str = ""
    guard: Callable[[np.ndarray], np.ndarray] | None = None
    both: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    problem: SdaeProblem | None = None


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
    sde: AugmentedSde | None = None
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
    StatusKind.REGION_EXIT,
)


def _em_batch(
    sde: AugmentedSde,
    init: np.ndarray,
    dt: float,
    steps: int,
    dW: np.ndarray,
    box: Sequence[tuple[float, float]] | None = None,
):
    """Advance a batch of paths; returns (states, stop_index, kind_code)."""
    P, N = init.shape
    states = np.empty((P, steps + 1, N))
    states[:, 0] = init
    stop = np.full(P, steps, dtype=np.int64)
    kind = np.zeros(P, dtype=np.int8)
    alive = np.ones(P, dtype=bool)
    x = init.astype(float).copy()
    if box is not None:
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
    with np.errstate(all="ignore"):
        for k in range(steps):
            if not alive.any():
                break
            if sde.guard is not None:
                ok = np.asarray(sde.guard(x), dtype=bool)
                tripped = alive & ~ok
                if tripped.any():
                    kind[tripped] = _KIND_ORDER.index(StatusKind.SINGULAR_REDUCTION)
                    stop[tripped] = k
                    alive &= ~tripped
                    if not alive.any():
                        break
            if sde.both is not None:
                a, b = sde.both(x)
            else:
                a, b = sde.drift(x), sde.diffusion(x)
            x_next = x + a * dt
            for j in range(sde.d):
                x_next = x_next + b[:, :, j] * dW[:, k, j][:, None]
            bad = alive & ~np.isfinite(x_next).all(axis=1)
            if bad.any():
                kind[bad] = _KIND_ORDER.index(StatusKind.DOMAIN_ERROR)
                stop[bad] = k
                alive &= ~bad
            x = np.where(alive[:, None], x_next, x)
            states[:, k + 1] = x
            if box is not None:
                outside = alive & ((x < lo) | (x > hi)).any(axis=1)
                if outside.any():
                    kind[outside] = _KIND_ORDER.index(StatusKind.REGION_EXIT)
                    stop[outside] = k + 1
                    alive &= ~outside
    return states, stop, kind


def _extract_path(
    sde: AugmentedSde,
    states: np.ndarray,
    stop: int,
    kind_code: int,
    dt: float,
    dW: np.ndarray,
    seed: int | None,
    steps: int,
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
    )


def euler_maruyama(
    sde: AugmentedSde,
    init: np.ndarray,
    dt: float,
    T: float,
    increments: np.ndarray,
    *,
    seed: int | None = None,
    box: Sequence[tuple[float, float]] | None = None,
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
    init = np.asarray(init, dtype=float).reshape(-1)
    if init.shape != (sde.dim,):
        raise ValueError(f"initial condition must have dimension {sde.dim}")
    dW = increments[:steps][None]
    states, stop, kind = _em_batch(sde, init[None], dt, steps, dW, box)
    return _extract_path(sde, states[0], int(stop[0]), int(kind[0]), dt, dW[0], seed, steps)


# ---------------------------------------------------------------------------
# Constraint process lambda(t) = g(x(t)) + sum of Gamma dW (left-point sums)
# ---------------------------------------------------------------------------


def constraint_process(pr: SdaeProblem, path: SamplePath) -> np.ndarray:
    """Per-grid-point constraint process, shape (len(path), p)."""
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
        return g_vals
    terms = np.einsum("kpd,kd->kp", k["gamma"][:K], path.dW[:K])  # left-point Gamma
    acc = np.zeros((K + 1, pr.p))
    np.cumsum(terms, axis=0, out=acc[1:])
    return g_vals + acc


def write_path_csv(path: SamplePath, lam: np.ndarray, fh: TextIO) -> None:
    """Path CSV: one row per grid point, 17 significant digits."""
    p = lam.shape[1]
    header = ["t", *path.labels, *[f"lambda{i + 1}" for i in range(p)], "status"]
    fh.write(",".join(header) + "\n")
    status = str(path.status)
    for k in range(len(path)):
        cells = [f"{path.t_grid[k]:.17g}"]
        cells += [f"{v:.17g}" for v in path.states[k]]
        cells += [f"{v:.17g}" for v in lam[k]]
        cells.append(status)
        fh.write(",".join(cells) + "\n")
