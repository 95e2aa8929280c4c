"""Ensemble generation and constraint statistics.

Paths are advanced in lockstep across the batch (one numpy step loop), while
each path's increments come from its own derived seed, so ensembles are
bit-for-bit reproducible and independent of chunking or thread counts.
Per-time statistics sum over paths in sorted order, which makes every report
invariant under path permutation at the bit level.  ``violation_stats`` holds
one (paths, times) array of |lambda|^2 and one per constraint component of g,
and per-time alive and violation counts as exact integer vectors.  Each
array is sorted in place along the path axis, its NaNs (times after a path's
truncation) are set to 0 and its columns summed; the |lambda|^2 array is then
squared in place and summed again, since squaring keeps the order of
non-negative values.  The sums therefore see the same values in the same
order as a sorted copy would, bit for bit.

Truncated paths contribute while alive; the alive count is reported per time
so confidence intervals stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .integrator import (
    AugmentedSde,
    Ensemble,
    SamplePath,
    _em_batch,
    _extract_path,
    _g_and_lambda,
    _initial_state,
    _time_grid,
    _write_rows,
    derive_seed,
    n_steps,
    wiener_increments,
)
from .problem import SdaeProblem

__all__ = ["ViolationReport", "run_ensemble", "violation_stats", "write_report_csv"]

_Z95 = 1.959963984540054


def run_ensemble(
    sde: AugmentedSde,
    init: np.ndarray,
    dt: float,
    T: float,
    paths: int,
    base_seed: int,
    *,
    chunk: int = 256,
    problem: SdaeProblem | None = None,
) -> Ensemble:
    """Simulate `paths` trajectories with per-path seeds derived from base_seed."""
    if paths < 1:
        raise ValueError("paths must be >= 1")
    steps = n_steps(T, dt)
    init = _initial_state(sde, init)
    t_grid = _time_grid(steps, dt)
    out: list[SamplePath] = []
    for start in range(0, paths, chunk):
        count = min(chunk, paths - start)
        seeds = [derive_seed(base_seed, start + k) for k in range(count)]
        dW = np.empty((count, steps, sde.d))
        for k, s in enumerate(seeds):
            dW[k] = wiener_increments(s, steps, sde.d, dt)
        init_batch = np.tile(init, (count, 1))
        states, stop, kind, iters = _em_batch(sde, init_batch, dt, steps, dW)
        for k in range(count):
            out.append(
                _extract_path(
                    sde, states[k], int(stop[k]), int(kind[k]), dt, t_grid, dW[k], seeds[k],
                    None if iters is None else iters[k],
                )
            )
    return Ensemble(
        paths=out,
        dt=dt,
        T=T,
        base_seed=base_seed,
        problem=problem if problem is not None else sde.problem,
    )


@dataclass
class ViolationReport:
    """Per-time constraint statistics over an ensemble."""

    t_grid: np.ndarray
    alive: np.ndarray  # paths contributing at each time
    empirical_p: np.ndarray  # P(|lambda(t)| > epsilon) among alive paths
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray
    mean_sq_lambda: np.ndarray
    se_mean_sq: np.ndarray
    mean_g: np.ndarray  # (K+1, p)
    bound_curve: np.ndarray | None  # J(1 - e^{-2bt}) / (2b) when b, J known
    epsilon: float
    completed_paths: int
    truncated_paths: int


def _sorted_sum(matrix: np.ndarray) -> np.ndarray:
    """Column sums, NaN as 0, that are bitwise invariant under row permutation.

    Sorts ``matrix`` in place along axis 0 (NaN last) and zeroes its NaNs, so
    it sums the very array ``np.nansum(np.sort(matrix, axis=0), axis=0)``
    would, without the two copies.
    """
    matrix.sort(axis=0)
    np.copyto(matrix, 0.0, where=np.isnan(matrix))
    return matrix.sum(axis=0)


def violation_stats(
    pr: SdaeProblem,
    ens: Ensemble,
    epsilon: float,
    *,
    b: float | None = None,
    J: float | None = None,
) -> ViolationReport:
    """Empirical violation probability, mean-square constraint, mean constraint."""
    if not ens.paths:
        raise ValueError("ensemble is empty")
    K = max(len(path) for path in ens.paths) - 1
    P = len(ens.paths)
    lam_sq = np.full((P, K + 1), np.nan)
    g_vals = np.full((pr.p, P, K + 1), np.nan)  # one C-contiguous block per component
    alive = np.zeros(K + 1, dtype=np.int64)
    counts = np.zeros(K + 1, dtype=np.int64)
    for i, path in enumerate(ens.paths):
        g, lam = _g_and_lambda(pr, path)
        k = len(path)
        norms = np.linalg.norm(lam, axis=1)
        lam_sq[i, :k] = norms**2
        counts[:k] += norms > epsilon
        alive[:k] += 1
        g_vals[:, i, :k] = g.T
    with np.errstate(invalid="ignore", divide="ignore"):
        phat = counts / alive
        denom = 1.0 + _Z95**2 / alive
        center = (phat + _Z95**2 / (2 * alive)) / denom
        half = (
            _Z95
            * np.sqrt(phat * (1 - phat) / alive + _Z95**2 / (4 * alive**2))
            / denom
        )
        mean_sq = _sorted_sum(lam_sq) / alive
        # squaring keeps the sorted order of non-negatives and the zeroed NaNs
        sq_of_sq = np.square(lam_sq, out=lam_sq).sum(axis=0) / alive
        var_sq = np.maximum(sq_of_sq - mean_sq**2, 0.0)
        se = np.sqrt(var_sq / np.maximum(alive, 1))
        mean_g = np.stack([_sorted_sum(g_vals[j]) / alive for j in range(pr.p)], axis=1)
    t_grid = np.arange(K + 1, dtype=float) * ens.dt
    bound = None
    if b is not None and J is not None:
        bound = J * (1.0 - np.exp(-2.0 * b * t_grid)) / (2.0 * b)
    completed = sum(1 for path in ens.paths if path.status.completed)
    # the Wilson interval contains phat by construction; clamp away 1-ulp wobble
    lo = np.minimum(np.maximum(center - half, 0.0), phat)
    hi = np.maximum(np.minimum(center + half, 1.0), phat)
    return ViolationReport(
        t_grid=t_grid,
        alive=alive,
        empirical_p=phat,
        wilson_lo=lo,
        wilson_hi=hi,
        mean_sq_lambda=mean_sq,
        se_mean_sq=se,
        mean_g=mean_g,
        bound_curve=bound,
        epsilon=epsilon,
        completed_paths=completed,
        truncated_paths=P - completed,
    )


def write_report_csv(report: ViolationReport, fh: TextIO) -> None:
    p = report.mean_g.shape[1]
    header = (
        "t,alive,P_viol,P_lo,P_hi,mean_sq_lambda,bound_curve,"
        + ",".join(f"meanG_{j + 1}" for j in range(p))
    )
    fh.write(header + "\n")
    K = report.t_grid.shape[0]
    bound = report.bound_curve if report.bound_curve is not None else np.full(K, np.nan)
    table = np.column_stack(
        [
            report.t_grid, report.alive, report.empirical_p, report.wilson_lo,
            report.wilson_hi, report.mean_sq_lambda, bound, report.mean_g,
        ]
    )
    # the alive count is an integer column; %d prints its float copy exactly
    _write_rows(fh, ",".join(["%.17g", "%d"] + ["%.17g"] * (5 + p)) + "\n", table)
