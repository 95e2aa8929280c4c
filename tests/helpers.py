"""Shared independent oracles for the test suite.

These deliberately avoid the library's own fast paths: derivatives are
cross-checked by central finite differences, matrix norms by dense SVD, and
roots by bisection, so a test never validates an implementation against
itself.  The Newton loop is checked against a frozen copy of its earlier,
mask-per-iterate form.
"""

from __future__ import annotations

import mmap
import os
from unittest import mock

import numpy as np

from sdaekit import integrator
from sdaekit.expr import Expression, evaluate, free_variables
from sdaekit.integrator import _eye
from sdaekit.problem import regular


def central_fd(e: Expression, name: str, point: dict[str, float], rel_step: float = 1e-6) -> float:
    """Central finite-difference derivative of e at the given point, with the
    step rel_step * max(1, |point[name]|)."""
    h = rel_step * max(1.0, abs(point.get(name, 0.0)))
    hi = dict(point)
    lo = dict(point)
    hi[name] = point.get(name, 0.0) + h
    lo[name] = point.get(name, 0.0) - h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * h)


def random_points(e_or_names, count: int, lo: float, hi: float, seed: int) -> list[dict[str, float]]:
    """Deterministic random binding dicts over [lo, hi] per variable."""
    if isinstance(e_or_names, (list, tuple, set, frozenset)):
        names = sorted(e_or_names)
    else:
        names = sorted(free_variables(e_or_names))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(count, max(len(names), 1)))
    return [{nm: float(pts[k, i]) for i, nm in enumerate(names)} for k in range(count)]


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    assert flo * fhi <= 0.0, "no sign change for bisection oracle"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if abs(fm) < tol or hi - lo < tol:
            return mid
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value via dense SVD."""
    return float(np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)[0])


def usable_cpus(n: int):
    """Context manager under which ensembles see n usable CPUs, so they run
    in at most n processes."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)))


def in_shared_mapping(a: np.ndarray) -> bool:
    """Whether ``a`` views a forked worker's shared mapping."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(getattr(a, "obj", a), mmap.mmap)  # numpy may hold a memoryview


def newton_batch_reference(fn, u0, tol):
    """``integrator._newton_batch`` as it was before its bookkeeping became
    counts: the reference its rewrite must equal bit for bit.

    Solve res(u) = 0 row-wise, ``fn(u) -> (res, D_u res)``.

    Returns (u, converged, singular, iters).  A path converges when its
    residual is finite and at most ``tol``.  The residual after the last of
    the NEWTON_MAX_ITER updates is not evaluated, so every convergence is
    confirmed by a residual.  A path is singular where det(D_u res) fails
    ``problem.regular`` or where its update is not finite; its u then keeps
    its last value.  For m = 1 the 1x1 entry a stands in
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
        for _ in range(integrator.NEWTON_MAX_ITER):
            res, jac = fn(u)
            resn = np.abs(res).max(axis=1)
            pending = ~converged & ~singular
            finite = np.isfinite(resn)
            converged |= pending & finite & (resn <= tol)
            pending = ~converged & ~singular
            if not pending.any():
                break
            det = jac[:, 0, 0] if scalar else np.linalg.det(jac)
            bad = pending & ~regular(det)
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
