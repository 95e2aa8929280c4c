"""Seeded noise generation and fixed-step Euler-Maruyama integration.

Reproducibility contract: all normal variates come from a counter-based
64-bit generator, so a path is a pure function of its seed and an ensemble of
its base seed, independent of evaluation order or batching.  Counter i of a
seed is mixed by SplitMix64; its top 52 bits k give the uniform
u = (k + 1/2)·2^-52, exact and strictly inside (0, 1) on a grid symmetric
about 1/2.  Wichura's AS241 inverse normal CDF maps u to one normal, and the
transform is odd bit for bit: Z(1 - u) = -Z(u).  The step loop is vectorised
across paths; a single path is just a batch of one, so both produce
bit-identical states.

Every method runs on one engine, ``_em_batch``.  Each step makes one call
``both(x) -> (ok, drift, diffusion)``, so a reduction's singular guard comes
from the same evaluation as its coefficients (``guarded_sde`` builds it for
the closed-form reductions).  Methods that keep part of the state on a
constraint (bounded Newton) add a ``project`` hook that fills those columns
after the step.  Picard's fixed-point sweeps are not steps: its SDE's
``integrate`` hook takes the whole batch in place of the step loop.  The
engine fills a batch's buffers in place (``_Chunk``, one byte buffer per
batch), and a path is a view of its row.
``stats.run_ensemble`` runs its batches in forked worker processes when it
has two or more paths and several CPUs; a worker's batch buffers are a
shared mapping that it writes and the caller reads, so nothing is copied
back.  An SDE's callables must therefore be pure functions of their
arguments: whatever they change in a worker is lost when the worker exits.

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

from . import _workers, expr
from .problem import SdaeProblem, regular

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
    "guarded_sde",
    "constraint_process",
    "write_path_csv",
]

NEWTON_MAX_ITER = 50  # updates a Newton solve makes before it gives up
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


# Wichura, "Algorithm AS241: The percentage points of the normal
# distribution", Appl. Statist. 37(3), 477-484 (1988).  The coefficients are
# those of CPython's statistics._normal_dist_inv_cdf; each tuple lists a
# numerator or denominator polynomial from its highest power down.
_AS241_CENTRAL = (  # in r = 0.180625 - q^2, for |q| <= 0.425
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_TAIL = (  # in r - 1.6, r = sqrt(-log(min(u, 1 - u))) <= 5
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444169341e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR = (  # in r - 5, for r > 5, i.e. min(u, 1 - u) < 1.4e-11
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614852e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _horner(coeffs: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    acc = coeffs[0] * r
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    acc += coeffs[-1]
    return acc


def _uniforms(z: np.ndarray) -> np.ndarray:
    """(k + 1/2)·2^-52 for the top 52 bits k of each uint64: exact, in (0, 1)."""
    return ((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile of u in (0, 1) by AS241, elementwise.

    The same float operations as the scalar algorithm: the central rational
    runs on every entry, then the entries with |u - 1/2| > 0.425 (about 15%)
    are recomputed in the tail.  Central values equal the scalar ones bit for
    bit; tail values may differ by the rounding of np.log against libm's log.
    """
    q = u - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    num = _horner(_AS241_CENTRAL[0], r)
    num *= q
    num /= _horner(_AS241_CENTRAL[1], r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        ut = u[tail]
        r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
        far = r > 5.0
        rt = r - 1.6
        x = _horner(_AS241_TAIL[0], rt) / _horner(_AS241_TAIL[1], rt)
        if far.any():
            rf = r[far] - 5.0
            x[far] = _horner(_AS241_FAR[0], rf) / _horner(_AS241_FAR[1], rf)
        num[tail] = np.copysign(x, q[tail])
    return num


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
    out = _ndtri(_uniforms(z))
    out *= math.sqrt(dt)
    return out.reshape(steps, d)


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

    ``integrate(dt, states, dW)`` (optional) replaces the step loop: it fills
    a batch's states (P, steps + 1, dim) from row 0 in place, and every path
    completes or it raises.  Picard's sweeps run this way.
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
    integrate: Callable[[float, np.ndarray, np.ndarray], object] | None = None


@dataclass
class SamplePath:
    """One realisation on a uniform grid; possibly truncated with a status.

    On a path from the engine (``euler_maruyama``, ``run_ensemble``, Picard's
    ensembles included), ``states`` and ``dW`` are views into the engine's
    chunk buffers, one row per path, so no two paths overlap; ``t_grid`` is a
    read-only prefix of one grid shared by every path of the run.  Keeping
    one path alive keeps its chunk's buffers alive.
    """

    dt: float
    t_grid: np.ndarray  # (k+1,), t_grid[i] = i*dt; shared and read-only
    states: np.ndarray  # (k+1, dim), a view of the path's row of its chunk
    dW: np.ndarray  # (k, d) increments actually consumed, a view like states
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
    """Paths sharing dt, horizon and generator, with per-path derived seeds.

    The ensemble holds each chunk's state and noise buffers once: its paths
    are views into them (see ``SamplePath``) and share one read-only time
    grid.  A path kept after the ensemble is dropped keeps its whole chunk.
    """

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


def guarded_sde(problem: SdaeProblem, step: Callable) -> AugmentedSde:
    """The reduced SDE on (x, u) whose guard is ``regular`` of the det its step gives.

    ``step(points) -> {"drift", "diffusion", "det"}``, det being that of the
    matrix the reduction inverts.  ``both`` sets no numpy error state; the
    engine's step loop ignores floating-point errors.
    """

    def both(points):
        k = step(points)
        return regular(k["det"]), k["drift"], k["diffusion"]

    return AugmentedSde(dim=problem.n + problem.m, d=problem.d, labels=problem.labels,
                        both=both, problem=problem)


@functools.lru_cache(maxsize=None)
def _eye(m: int) -> np.ndarray:
    """Read-only identity, shared by every Newton solve of size m."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _newton_batch(fn, u0, tol):
    """Solve res(u) = 0 row-wise, ``fn(u) -> (res, D_u res)``.

    Returns (u, converged, singular, iters).  A path converges when its
    residual is at most ``tol``, which is false for a nan or inf residual.
    The residual after the last of the NEWTON_MAX_ITER updates is not
    evaluated, so every convergence is confirmed by a residual.  A path is
    singular where det(D_u res) fails ``problem.regular`` or where its update
    is not finite; its u then keeps its last value.  For m = 1 the 1x1 entry
    a stands in for the determinant and the update is res / a, without
    LAPACK: its one-column 1x1 solve gives the same quotient bit for bit,
    while its 1x1 det is sign * exp(log|a|), which may differ from a in the
    last bits.

    Every test is a count.  The convergence, guard and finiteness masks are
    built only when their count shows a row that leaves the pending set, and
    the update is masked only once some row has left it; until then it is
    the plain ``u -= delta``, the same float operation on every row.

    It sets no numpy error state: the engine's step loop already ignores
    floating-point errors, and each one-point caller does so itself.
    """
    u = u0.copy()
    P, m = u.shape
    converged = np.zeros(P, dtype=bool)
    singular = np.zeros(P, dtype=bool)
    iters = np.zeros(P, dtype=np.int64)
    pending = np.ones(P, dtype=bool)
    n_pending = P
    scalar = m == 1
    for _ in range(NEWTON_MAX_ITER):
        res, jac = fn(u)
        resn = np.abs(res[:, 0]) if scalar else np.abs(res).max(axis=1)
        done = resn <= tol
        if np.count_nonzero(done):
            converged |= pending & done
            pending = ~converged & ~singular
            n_pending = np.count_nonzero(pending)
        if not n_pending:
            break
        det = jac[:, 0, 0] if scalar else np.linalg.det(jac)
        ok = regular(det)
        if np.count_nonzero(ok) < P:
            bad = pending & ~ok
            singular |= bad
            pending &= ~bad
            n_pending = np.count_nonzero(pending)
            if not n_pending:
                break
        if scalar:
            delta = res / det[:, None]
        else:
            safe = jac if n_pending == P else np.where(pending[:, None, None], jac, _eye(m))
            delta = np.linalg.solve(safe, res[:, :, None])[:, :, 0]
        finite = np.isfinite(delta)
        if np.count_nonzero(finite) < finite.size:
            bad_step = pending & ~finite.all(axis=1)
            singular |= bad_step
            pending &= ~bad_step
            n_pending = np.count_nonzero(pending)
        if n_pending == P:
            u -= delta
            iters += 1
        else:
            u = np.where(pending[:, None], u - delta, u)
            iters += pending
    return u, converged, singular, iters


@dataclass
class _Chunk:
    """One batch's engine buffers, views into one byte buffer.

    The caller writes the initial points into ``states[:, 0]`` and the
    increments into ``dW``; ``_em_batch`` fills the rest in place.
    """

    states: np.ndarray  # (P, steps + 1, dim)
    dW: np.ndarray  # (P, steps, d)
    stop: np.ndarray  # (P,) int64: the step a path ended at, steps if it completed
    kind: np.ndarray  # (P,) int8: index into _KIND_ORDER
    iters: np.ndarray | None  # (P,) int64 projection iterations, None without ``project``


def _chunk_buffers(sde: AugmentedSde, P: int, steps: int, shared: bool = False) -> _Chunk:
    """The buffers of a P-path batch, carved from one uint8 array: an
    ordinary one, or (``shared``) a mapping that a forked worker writes into."""
    shapes = [((P, steps + 1, sde.dim), np.float64), ((P, steps, sde.d), np.float64),
              ((P,), np.int64), ((P,), np.int64), ((P,), np.int8)]  # int8 last: 8-aligned offsets
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in shapes]
    nbytes = sum(sizes)
    buf = _workers.shared(nbytes) if shared else np.empty(nbytes, dtype=np.uint8)
    views, offset = [], 0
    for (shape, dtype), size in zip(shapes, sizes):
        views.append(buf[offset : offset + size].view(dtype).reshape(shape))
        offset += size
    states, dW, stop, iters, kind = views
    return _Chunk(states=states, dW=dW, stop=stop, kind=kind,
                  iters=None if sde.project is None else iters)


def _em_batch(sde: AugmentedSde, dt: float, buf: _Chunk) -> None:
    """Advance a batch of paths from ``buf.states[:, 0]`` with ``buf.dW``,
    filling ``buf`` in place: the states, and each path's stop step, status
    code and (with a ``project`` hook) summed projection iterations.  An SDE
    with an ``integrate`` hook gets the whole batch instead.

    The state is updated with the same float operations in the same order
    as X + f dt + sum_j sigma_j dW_j.  Every test is a count.  The guard,
    finiteness and projection masks are built only when their count shows a
    failure, and the state and iteration updates are masked only once some
    path has ended; until then they are the plain forms, which give every
    row the same values.
    """
    states, dW, stop, kind, iters = buf.states, buf.dW, buf.stop, buf.kind, buf.iters
    P, steps = dW.shape[:2]
    stop.fill(steps)
    kind.fill(0)
    if iters is not None:
        iters.fill(0)
    if sde.integrate is not None:
        sde.integrate(dt, states, dW)
        return
    step = _step_fn(sde)
    project = sde.project
    alive = np.ones(P, dtype=bool)
    n_alive = P
    x = states[:, 0].copy()

    def end(mask, code, k):
        nonlocal n_alive
        n = np.count_nonzero(mask)
        if n:
            kind[mask] = code
            stop[mask] = k
            alive[mask] = False
            n_alive -= n

    singular = _KIND_ORDER.index(StatusKind.SINGULAR_REDUCTION)
    domain = _KIND_ORDER.index(StatusKind.DOMAIN_ERROR)
    x_next = noise = None
    with np.errstate(all="ignore"):
        for k in range(steps):
            if not n_alive:
                break
            ok, a, b = step(x)
            if ok is not None and np.count_nonzero(ok) < P:
                end(alive & ~ok, singular, k)
                if not n_alive:
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
            finite = np.isfinite(x_next)
            if np.count_nonzero(finite) < finite.size:
                end(alive & ~finite.all(axis=1), domain, k)
            if n_alive == P:
                np.copyto(stepped, x_next)
            else:
                np.copyto(stepped, x_next, where=alive[:, None])
            if project is not None:
                u, converged, sing, it = project(x)
                if n_alive == P:
                    iters += it
                else:
                    np.add(iters, it, out=iters, where=alive)
                if np.count_nonzero(sing):
                    end(alive & sing, singular, k)
                if np.count_nonzero(converged) < P:
                    end(alive & ~converged, domain, k)
                if n_alive == P:
                    np.copyto(x[:, n:], u)
                else:
                    np.copyto(x[:, n:], u, where=alive[:, None])
            states[:, k + 1] = x


def _initial_state(sde: AugmentedSde, init) -> np.ndarray:
    """``init`` as a flat float vector; refuses one whose length is not sde.dim."""
    init = np.asarray(init, dtype=float).reshape(-1)
    if init.shape != (sde.dim,):
        raise ValueError(f"initial condition must have dimension {sde.dim}, got {init.size}")
    return init


def _time_grid(steps: int, dt: float) -> np.ndarray:
    """Read-only grid t[i] = i*dt, i = 0..steps; every path of a run slices it."""
    t_grid = np.arange(steps + 1, dtype=float) * dt
    t_grid.flags.writeable = False
    return t_grid


def _extract_path(
    sde: AugmentedSde, buf: _Chunk, k: int, dt: float, t_grid: np.ndarray, seed: int | None
) -> SamplePath:
    """Path k of a batch as views: its own row of ``buf.states`` and
    ``buf.dW`` and a prefix of the shared ``t_grid`` (of steps + 1 points)."""
    steps = t_grid.shape[0] - 1
    kind = _KIND_ORDER[buf.kind[k]]
    stop = int(buf.stop[k])
    last = stop if kind is not StatusKind.COMPLETED else steps
    status = PathStatus(kind, None if kind is StatusKind.COMPLETED else stop)
    return SamplePath(
        dt=dt,
        t_grid=t_grid[: last + 1],
        states=buf.states[k, : last + 1],
        dW=buf.dW[k, :last],
        seed=seed,
        status=status,
        labels=sde.labels,
        metadata={} if buf.iters is None else {"newton_iterations": int(buf.iters[k])},
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
    buf = _chunk_buffers(sde, 1, steps)
    buf.states[0, 0] = init
    buf.dW[0] = increments[:steps]  # a copy: the path must not alias the caller's array
    _em_batch(sde, dt, buf)
    return _extract_path(sde, buf, 0, dt, _time_grid(steps, dt), seed)


# ---------------------------------------------------------------------------
# Constraint process lambda(t) = g(x(t)) + sum of Gamma dW (left-point sums)
# ---------------------------------------------------------------------------


def constraint_process(pr: SdaeProblem, path: SamplePath) -> np.ndarray:
    """Per-grid-point constraint process, shape (len(path), p)."""
    return _g_and_lambda(pr, path)[1]


def _constraint_kernel(pr: SdaeProblem, labels: tuple[str, ...]):
    """``pr.constraint_kernel(labels)``; refuses labels that miss a coordinate
    g or Gamma reads."""
    needed = set()
    for e in pr.g:
        needed |= expr.free_variables(e)
    for row in pr.gamma:
        for e in row:
            needed |= expr.free_variables(e)
    missing = [nm for nm in needed if nm not in labels]
    if missing:
        raise ValueError(f"path does not expose coordinates {missing}")
    return pr.constraint_kernel(labels)


def _g_and_lambda(pr: SdaeProblem, path: SamplePath) -> tuple[np.ndarray, np.ndarray]:
    """(g, lambda) along the path from one evaluation of the constraint kernel;
    lambda is g itself when Gamma is zero."""
    k = _constraint_kernel(pr, path.labels)(path.states)
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
