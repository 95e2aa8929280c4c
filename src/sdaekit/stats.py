"""Ensemble generation and constraint statistics.

Paths are advanced in lockstep across the batch (one numpy step loop), while
each path's increments come from its own derived seed, so ensembles are
bit-for-bit reproducible and independent of chunking or process counts.
``run_ensemble`` cuts the paths into contiguous balanced batches of at most
``chunk`` paths and spreads them over W = min(paths, usable CPUs) processes,
itself included: it forks W - 1 workers (``_workers``) and batch i runs in
process i % W, drawing its own noise and writing its paths into that batch's
buffers.  The batch count is a multiple of W unless every batch is one path,
so the processes carry near-equal shares.  A worker's batch lives in an
anonymous shared mapping, the caller's own batches in ordinary arrays, and
every path is a view of its batch.  Nothing is forked with one path, one
usable CPU, no ``os.fork`` or another Python thread alive.  The SDE's
callables must be pure: what they change in a worker (caches, counters,
timers, warnings registries) is lost, and a worker's exception is re-raised
in the caller with its type once every worker is reaped.

``violation_stats`` walks the time grid in blocks of ``_BLOCK`` grid times,
so its scratch is (paths, block), never (paths, grid): one array of
|lambda| and one per component of g, reused from block to block, besides
per-time vectors; the alive counts come once from the path lengths.  In a
block the paths still alive are evaluated in groups, one kernel call per
group, and each path carries its left-point sum of Gamma dW into the next
block.  Times after a path's end are NaN.  Each array is sorted in place
along the path axis, its NaNs are set to 0 and its columns summed; |lambda|
is squared first and squared again for the sum of fourth powers, since
squaring keeps the order of non-negative values.  The sums therefore add the
same values in the same order as sorting a whole-grid copy would, bit for
bit, and every report is invariant under path permutation.

That order rests on numpy summing axis 0 of a C-contiguous (paths, times)
array row after row.  It sums a (paths, 1) array or a transposed (times,
paths) view pairwise instead, so the scratch is path-major and a width-1
remainder joins the block before it.  The block is 1000 wide, not 1024:
with a power-of-two row stride the sort along the path axis ran about three
times slower.  Two other layouts lost: one kernel call on every path's
stacked (paths, block, N) rows held kernel temporaries past the memory
budget and ran slower, and a time-major scratch sorted faster
but its scattered per-path writes cost more than that.

Truncated paths contribute while alive; the alive count is reported per time
so confidence intervals stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import _workers
from .integrator import (
    AugmentedSde,
    Ensemble,
    SamplePath,
    _chunk_buffers,
    _constraint_kernel,
    _em_batch,
    _extract_path,
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


def _batch_edges(paths: int, chunk: int, workers: int) -> list[int]:
    """Edges 0 = e_0 < ... < e_n = paths of n balanced batches: batch i holds
    paths [e_i, e_{i+1}) with e_i = floor(i paths / n).

    n = min(paths, W ceil(ceil(paths / chunk) / W)) for W = ``workers``, so
    no batch holds more than ``chunk`` paths, sizes differ by at most 1, and
    n is a multiple of W unless every batch is one path: then the processes'
    batch counts differ by at most 1.
    """
    chunks = -(-paths // chunk)
    n = min(paths, workers * -(-chunks // workers))
    return [i * paths // n for i in range(n + 1)]


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
    """Simulate `paths` trajectories with per-path seeds derived from base_seed.

    Paths run in contiguous balanced batches of at most ``chunk`` paths, one
    engine batch each, spread over W = min(paths, usable CPUs) processes, this
    one included (``_batch_edges``): batch i runs in process i % W, and each
    process gets as many batches as the others whenever W divides their
    number.  A forked worker's batches live in anonymous shared mappings, this
    process's own in ordinary arrays, and each path is a view of its batch.
    W is 1 with one path, one usable CPU, no ``os.fork``, or another Python
    thread alive.  The paths are the same bit for bit at any batching and any
    W, provided the SDE's callables are pure: what they change in a worker is
    lost.  A worker's exception is re-raised here with its type, after every
    worker is reaped.
    """
    if paths < 1 or chunk < 1:
        raise ValueError("paths and chunk must be >= 1")
    steps = n_steps(T, dt)
    init = _initial_state(sde, init)
    t_grid = _time_grid(steps, dt)
    seeds = [derive_seed(base_seed, k) for k in range(paths)]
    workers = _workers.count(paths)
    edges = _batch_edges(paths, chunk, workers)
    bufs = [
        _chunk_buffers(sde, hi - lo, steps, shared=i % workers != 0)
        for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
    ]

    def run_batch(i: int) -> None:
        buf = bufs[i]
        for k, dW in enumerate(buf.dW):
            dW[:] = wiener_increments(seeds[edges[i] + k], steps, sde.d, dt)
        buf.states[:, 0] = init
        _em_batch(sde, dt, buf)

    _workers.run(run_batch, len(bufs), workers)
    out = [
        _extract_path(sde, buf, k, dt, t_grid, seeds[lo + k])
        for lo, buf in zip(edges, bufs)
        for k in range(len(buf.dW))
    ]
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


_BLOCK = 1000  # grid times per statistics block: bounds the (paths, block) scratch
_GROUPS = 32  # kernel calls per block: one group's temporaries stay a small share of the scratch


def _sorted_sum(matrix: np.ndarray) -> np.ndarray:
    """Column sums, NaN as 0, that are bitwise invariant under row permutation.

    Sorts ``matrix`` in place along axis 0 (NaN last) and zeroes its NaNs, so
    it sums the very array ``np.nansum(np.sort(matrix, axis=0), axis=0)``
    would, without the two copies.  ``matrix`` must be path-major, (paths,
    times) and C-contiguous, at least two times wide unless the whole grid is
    one time: numpy then adds its rows one after another.  A (paths, 1) array
    or a transposed (times, paths) view is summed pairwise instead.
    """
    matrix.sort(axis=0)
    np.copyto(matrix, 0.0, where=np.isnan(matrix))
    return matrix.sum(axis=0)


def _block_edges(times: int) -> list[int]:
    """Edges 0 < ... < times of blocks ``_BLOCK`` wide, the last one up to
    ``_BLOCK`` + 1: a width-1 remainder joins the block before it, since its
    (paths, 1) scratch would be summed pairwise."""
    edges = list(range(0, times, _BLOCK)) + [times]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def _copy_padded(dst: np.ndarray, rows: np.ndarray) -> None:
    """``rows`` into the leading rows of ``dst``, NaN in the rest: a path's
    rows of a block, which lacks those past the path's end."""
    dst[: len(rows)] = rows
    if len(rows) < len(dst):
        dst[len(rows) :] = np.nan


def _row_norms(v: np.ndarray, out: np.ndarray) -> None:
    """``np.linalg.norm(v, axis=-1)`` into ``out``, bit for bit.

    With fewer than 8 components numpy adds the squares one after another, so
    a sum over the components, one numpy call each, gives the same bits
    without numpy's inner-loop call per row.  From 8 components on numpy sums
    pairwise, and ``norm`` itself is used.
    """
    p = v.shape[-1]
    if p >= 8:
        out[...] = np.linalg.norm(v, axis=-1)
        return
    np.square(v[..., 0], out=out)
    for j in range(1, p):
        out += np.square(v[..., j])
    np.sqrt(out, out=out)


def _block_sums(
    pr: SdaeProblem,
    paths: list[SamplePath],
    lengths: np.ndarray,
    alive: np.ndarray,
    epsilon: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per time: the count of |lambda| > epsilon and the sorted sums of
    |lambda|^2, |lambda|^4 and each component of g, over the alive paths.

    The grid is walked block by block.  ``lam`` (paths, block) holds |lambda|
    and ``gv`` (p, paths, block) the components of g, NaN after a path's
    end; both are reused from block to block.  ``paths`` run longest first,
    so the alive[lo] paths alive at time lo lead.  They are evaluated in
    groups of about paths/_GROUPS: a group's rows of the block go through
    one kernel call, and the left-point sum of Gamma dW is carried across
    blocks per path.
    """
    labels = paths[0].labels
    if any(path.labels != labels for path in paths):
        raise ValueError("the paths of an ensemble must share their coordinate labels")
    kernel = _constraint_kernel(pr, labels)
    noisy = not pr.gamma_is_zero() and pr.d > 0
    P, N, p, d = len(paths), len(labels), pr.p, pr.d
    counts = np.empty(len(alive), dtype=np.int64)
    sum_sq = np.empty(len(alive))
    sum_4th = np.empty(len(alive))
    sum_g = np.empty((len(alive), p))
    edges = _block_edges(len(alive))
    width = max(hi - lo for lo, hi in zip(edges, edges[1:]))
    G = -(-P // _GROUPS)
    # flat buffers, so that every block's views of them are C-contiguous
    lam_buf = np.empty(P * width)
    g_buf = np.empty(p * P * width)
    pts_buf = np.empty(G * width * N)
    if noisy:
        dw_buf = np.empty(G * width * d)
        acc_buf = np.empty(G * (width + 1) * p)
        carry = np.zeros((P, p))
    for lo, hi in zip(edges, edges[1:]):
        w, n = hi - lo, alive[lo]
        lam = lam_buf[: P * w].reshape(P, w)
        gv = g_buf[: p * P * w].reshape(p, P, w)
        for s in range(0, n, G):
            group = paths[s : min(s + G, n)]
            c = len(group)
            pts = pts_buf[: c * w * N].reshape(c, w, N)
            dw = dw_buf[: c * w * d].reshape(c, w, d) if noisy else None
            for r, path in enumerate(group):
                _copy_padded(pts[r], path.states[lo:hi])
                if noisy:
                    _copy_padded(dw[r], path.dW[lo:hi])
            k = kernel(pts)
            g = lam_g = k["g"]
            if noisy:
                # row 0 is the sum before lo; cumsum adds one term at a time
                acc = acc_buf[: c * (w + 1) * p].reshape(c, w + 1, p)
                acc[:, 0] = carry[s : s + c]
                acc[:, 1:] = np.einsum("gkpd,gkd->gkp", k["gamma"], dw)
                np.cumsum(acc, axis=1, out=acc)
                carry[s : s + c] = acc[:, w]
                lam_g = g + acc[:, :w]
            _row_norms(lam_g, lam[s : s + c])
            gv[:, s : s + c] = g.transpose(2, 0, 1)
        lam[n:] = np.nan
        gv[:, n:] = np.nan
        # a path that ends inside the block: its padded rows are masked by its
        # length, since a constant g is finite even on NaN points
        for i in range(alive[hi - 1], n):
            lam[i, lengths[i] - lo :] = np.nan
            gv[:, i, lengths[i] - lo :] = np.nan
        counts[lo:hi] = np.count_nonzero(lam > epsilon, axis=0)
        # squaring keeps the sorted order of non-negatives and the zeroed NaNs
        sum_sq[lo:hi] = _sorted_sum(np.square(lam, out=lam))
        sum_4th[lo:hi] = np.square(lam, out=lam).sum(axis=0)
        for j in range(p):
            sum_g[lo:hi, j] = _sorted_sum(gv[j])
    return counts, sum_sq, sum_4th, sum_g


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
    paths = sorted(ens.paths, key=len, reverse=True)
    lengths = np.array([len(path) for path in paths])
    P, K = len(paths), int(lengths[0]) - 1
    # alive[t] counts the paths longer than t
    alive = np.bincount(lengths, minlength=K + 2)[:0:-1].cumsum()[::-1]
    counts, sum_sq, sum_4th, sum_g = _block_sums(pr, paths, lengths, alive, epsilon)
    with np.errstate(invalid="ignore", divide="ignore"):
        phat = counts / alive
        denom = 1.0 + _Z95**2 / alive
        center = (phat + _Z95**2 / (2 * alive)) / denom
        half = (
            _Z95
            * np.sqrt(phat * (1 - phat) / alive + _Z95**2 / (4 * alive**2))
            / denom
        )
        mean_sq = sum_sq / alive
        var_sq = np.maximum(sum_4th / alive - mean_sq**2, 0.0)
        se = np.sqrt(var_sq / np.maximum(alive, 1))
        mean_g = sum_g / alive[:, None]
    t_grid = np.arange(K + 1, dtype=float) * ens.dt
    bound = None
    if b is not None and J is not None:
        bound = J * (1.0 - np.exp(-2.0 * b * t_grid)) / (2.0 * b)
    completed = sum(1 for path in paths if path.status.completed)
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
