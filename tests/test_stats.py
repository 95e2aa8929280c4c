"""Ensemble determinism, exchangeability, and the violation report."""

import dataclasses
import functools
import io
import random
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import in_shared_mapping, usable_cpus
from sdaekit import stats
from sdaekit.bounded import BoundedMConfig, run_bounded_ensemble, verify_bound
from sdaekit.expr import parse
from sdaekit.index1 import index1_setup
from sdaekit.integrator import (
    AugmentedSde,
    Ensemble,
    PathStatus,
    SamplePath,
    StatusKind,
    _g_and_lambda,
    derive_seed,
)
from sdaekit.problem import SdaeProblem, builtin
from sdaekit.stats import (
    _Z95,
    ViolationReport,
    run_ensemble,
    violation_stats,
    write_report_csv,
)
from sdaekit.unit_prob import build_unit_prob_sde, consistent_init, paper_example_spec
from test_acceptance import index1_test_problems
from test_integrator import index1_sqrt_problem


def drifting_sde(rate=0.0, noise=1.0, labels=("x1",)):
    def drift(x):
        return np.full_like(x, rate)

    def diffusion(x):
        return np.full(x.shape[:-1] + (1, 1), noise)

    return AugmentedSde(dim=1, d=1, labels=labels, drift=drift, diffusion=diffusion)


def pin_problem():
    return SdaeProblem(
        n=1, m=1, p=1, d=1,
        f=[parse("0")], sigma=[[parse("1")]],
        g=[parse("x1")], gamma=[[parse("0")]],
        x0=[0.0], u0_guess=[0.0],
    )


class TestRunEnsemble:
    def test_deterministic(self):
        sde = drifting_sde()
        e1 = run_ensemble(sde, [0.0], 0.01, 0.5, 8, base_seed=4)
        e2 = run_ensemble(sde, [0.0], 0.01, 0.5, 8, base_seed=4)
        for a, b in zip(e1.paths, e2.paths):
            assert a.states.tobytes() == b.states.tobytes()

    def test_chunking_invariant(self):
        sde = drifting_sde()
        e1 = run_ensemble(sde, [0.0], 0.01, 0.5, 10, base_seed=4, chunk=3)
        e2 = run_ensemble(sde, [0.0], 0.01, 0.5, 10, base_seed=4, chunk=256)
        for a, b in zip(e1.paths, e2.paths):
            assert a.states.tobytes() == b.states.tobytes()

    def test_per_path_seeds(self):
        sde = drifting_sde()
        ens = run_ensemble(sde, [0.0], 0.01, 0.2, 5, base_seed=9)
        assert [p.seed for p in ens.paths] == [derive_seed(9, k) for k in range(5)]
        assert len({p.states.tobytes() for p in ens.paths}) == 5

    def test_constant_dynamics(self):
        sde = drifting_sde(rate=0.0, noise=0.0)
        ens = run_ensemble(sde, [1.5], 0.1, 1.0, 3, base_seed=0)
        for p in ens.paths:
            np.testing.assert_array_equal(p.states, 1.5)


    @pytest.mark.parametrize("init", [[0.0, 0.0, 0.0], [0.0]], ids=["3", "1"])
    def test_initial_state_length_rejected(self, init):
        # linear-index1 reduces to a 2-dimensional SDE on (x1, u1)
        sde, _ = index1_setup(builtin("linear-index1"))
        with pytest.raises(ValueError, match="must have dimension 2, got"):
            run_ensemble(sde, init, 0.01, 0.1, 2, base_seed=0)


class TestEnsembleViews:
    """Paths are views into their chunk's buffers and share one time grid."""

    def test_paths_are_disjoint_rows_of_their_chunk(self):
        ens = run_ensemble(drifting_sde(), [0.0], 0.01, 0.5, 6, base_seed=4, chunk=3)
        chunks = [ens.paths[:3], ens.paths[3:]]
        for chunk, other in (chunks, chunks[::-1]):
            for attr in ("states", "dW"):
                buffer = getattr(chunk[0], attr).base
                assert all(np.shares_memory(getattr(p, attr), buffer) for p in chunk)
                assert not any(np.shares_memory(getattr(p, attr), buffer) for p in other)
        for i, a in enumerate(ens.paths):
            for b in ens.paths[i + 1:]:
                assert not np.shares_memory(a.states, b.states)
                assert not np.shares_memory(a.dW, b.dW)

    def test_writing_one_path_leaves_the_next(self):
        ens = run_ensemble(drifting_sde(), [0.0], 0.01, 0.5, 3, base_seed=4)
        kept = ens.paths[1].states.copy()
        ens.paths[0].states[:] = 99.0
        assert ens.paths[1].states.tobytes() == kept.tobytes()

    def test_one_read_only_time_grid(self):
        sde = drifting_sde(rate=1.0, noise=0.3)
        sde.guard = lambda x: x[:, 0] < 0.45  # paths of several lengths
        ens = run_ensemble(sde, [0.0], 0.1, 1.0, 8, base_seed=2, chunk=3)
        assert len({len(p) for p in ens.paths}) > 1
        grid = ens.paths[0].t_grid
        for p in ens.paths:
            assert not p.t_grid.flags.writeable
            assert p.t_grid.base is grid.base
            np.testing.assert_array_equal(p.t_grid, np.arange(len(p)) * 0.1)
        with pytest.raises(ValueError):
            grid[0] = 1.0


def test_memory_budget():
    """No per-path copies while integrating; statistics within (p + 2) arrays.

    In one process, so that tracemalloc sees every chunk: a forked worker's
    chunk is a shared mapping it does not trace (see the next test)."""
    pr = builtin("paper-example")
    cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(-2, 2), (-5, 5)], b=11.0, J_raw=4.0)
    verify_bound(run_bounded_ensemble(pr, cfg, 1e-3, 0.01, 2, 0, chunk=16), cfg)  # warm caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with usable_cpus(1):
            ens = run_bounded_ensemble(pr, cfg, 1e-3, 1.0, 64, 5, chunk=16)
        held, peak = tracemalloc.get_traced_memory()
        assert peak - base <= 1.05 * (held - base)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        verify_bound(ens, cfg)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    K = max(len(p) for p in ens.paths) - 1
    assert extra <= (pr.p + 2) * len(ens.paths) * (K + 1) * 8


def test_forked_chunks_make_no_copies():
    """With two processes, chunks 1 and 3 run in a worker: their paths view
    the worker's shared mapping, chunks 0 and 2 are this process's own, and
    at no time does this process hold a worker chunk's worth of copies."""
    pr = builtin("paper-example")
    cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(-2, 2), (-5, 5)], b=11.0, J_raw=4.0)
    with usable_cpus(2):
        run_bounded_ensemble(pr, cfg, 1e-3, 0.01, 4, 0, chunk=2)  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ens = run_bounded_ensemble(pr, cfg, 1e-3, 1.0, 64, 5, chunk=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    chunks = [ens.paths[i : i + 16] for i in range(0, 64, 16)]
    raws = [chunk[0].states.base for chunk in chunks]
    for i, (chunk, raw) in enumerate(zip(chunks, raws)):
        assert all(p.states.base is raw and p.dW.base is raw for p in chunk)
        assert in_shared_mapping(raw) == (i % 2 == 1)
    own = raws[0].nbytes + raws[2].nbytes
    assert peak - base < own + min(raws[1].nbytes, raws[3].nbytes)


def test_stats_memory_does_not_grow_with_the_grid():
    """Over eight blocks, verify_bound holds a (paths, block) scratch per
    array and per-time vectors, never a (paths, times) array."""
    pr = builtin("paper-example")
    cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(-2, 2), (-5, 5)], b=11.0, J_raw=4.0)
    verify_bound(run_bounded_ensemble(pr, cfg, 1e-3, 0.01, 2, 0, chunk=16), cfg)  # warm caches
    ens = run_bounded_ensemble(pr, cfg, 1e-3, 8.0, 64, 5, chunk=64)
    K = max(len(p) for p in ens.paths) - 1
    assert len(stats._block_edges(K + 1)) - 1 >= 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verify_bound(ens, cfg)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert extra <= (pr.p + 2) * len(ens.paths) * stats._BLOCK * 8 + 16 * (K + 1) * 8


class TestViolationStats:
    def test_zero_lambda(self):
        pr = pin_problem()
        sde = drifting_sde(noise=0.0)
        ens = run_ensemble(sde, [0.0], 0.1, 1.0, 4, base_seed=1, problem=pr)
        rep = violation_stats(pr, ens, epsilon=0.5)
        assert np.all(rep.empirical_p == 0.0)
        assert np.all(rep.mean_g == 0.0)
        assert rep.completed_paths == 4 and rep.truncated_paths == 0

    def test_single_violation_time(self):
        pr = pin_problem()
        sde = drifting_sde(rate=1.0, noise=0.0)  # x = t: crosses eps at t > 0.5
        ens = run_ensemble(sde, [0.0], 0.25, 1.0, 1, base_seed=1, problem=pr)
        rep = violation_stats(pr, ens, epsilon=0.6)
        np.testing.assert_array_equal(rep.empirical_p, [0, 0, 0, 1, 1])

    def test_exchangeability_bitwise(self):
        pr = builtin("paper-example")
        cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(-2, 2), (-5, 5)], b=11.0, J_raw=4.0)
        ens = run_bounded_ensemble(pr, cfg, 1e-3, 0.3, 50, 13)
        rep1 = violation_stats(pr, ens, 0.5)
        shuffled = list(ens.paths)
        random.Random(0).shuffle(shuffled)
        ens2 = Ensemble(paths=shuffled, dt=ens.dt, T=ens.T, base_seed=ens.base_seed,
                        problem=pr)
        rep2 = violation_stats(pr, ens2, 0.5)
        assert rep1.mean_sq_lambda.tobytes() == rep2.mean_sq_lambda.tobytes()
        assert rep1.mean_g.tobytes() == rep2.mean_g.tobytes()
        assert rep1.empirical_p.tobytes() == rep2.empirical_p.tobytes()

    def test_wilson_interval_brackets_estimate(self):
        pr = pin_problem()
        ens = run_ensemble(drifting_sde(), [0.0], 0.01, 1.0, 100, base_seed=7, problem=pr)
        rep = violation_stats(pr, ens, epsilon=0.05)
        inside = (rep.wilson_lo <= rep.empirical_p) & (rep.empirical_p <= rep.wilson_hi)
        assert inside.all()
        assert np.all(rep.wilson_lo >= 0) and np.all(rep.wilson_hi <= 1)

    def test_alive_counts_with_truncation(self):
        pr = pin_problem()
        sde = drifting_sde(rate=1.0, noise=0.3)
        sde.guard = lambda x: x[:, 0] < 0.45  # paths trip at different times
        ens = run_ensemble(sde, [0.0], 0.1, 1.0, 8, base_seed=2, problem=pr)
        rep = violation_stats(pr, ens, epsilon=10.0)
        assert rep.truncated_paths == 8
        lens = sorted(len(p) for p in ens.paths)
        assert lens[0] < lens[-1]  # staggered truncation
        assert rep.alive[0] == 8 and rep.alive[-1] < 8
        assert np.all(np.diff(rep.alive) <= 0)

    def test_mean_g_converges_with_paths(self):
        pr = builtin("paper-example")
        cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(-2, 2), (-5, 5)], b=11.0, J_raw=4.0)
        big = run_bounded_ensemble(pr, cfg, 1e-3, 0.5, 1000, 21)
        small = Ensemble(paths=big.paths[:500], dt=big.dt, T=big.T,
                         base_seed=big.base_seed, problem=pr)
        rep_big = violation_stats(pr, big, 0.5)
        rep_small = violation_stats(pr, small, 0.5)
        gap = np.abs(rep_big.mean_g - rep_small.mean_g).max()
        pooled_se = np.sqrt(np.nanmax(rep_big.mean_sq_lambda) / 500)
        assert gap <= 3.0 * pooled_se

    def test_empty_ensemble_rejected(self):
        pr = pin_problem()
        with pytest.raises(ValueError, match="empty"):
            violation_stats(pr, Ensemble(paths=[], dt=0.1, T=1.0, base_seed=0), 0.5)


def test_report_csv_shape():
    pr = pin_problem()
    ens = run_ensemble(drifting_sde(), [0.0], 0.1, 0.5, 10, base_seed=3, problem=pr)
    rep = violation_stats(pr, ens, epsilon=0.3, b=2.0, J=1.0)
    buf = io.StringIO()
    write_report_csv(rep, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,alive,P_viol,P_lo,P_hi,mean_sq_lambda,bound_curve,meanG_1"
    assert len(lines) == 7  # header + 6 grid points
    cells = lines[-1].split(",")
    assert float(cells[6]) == pytest.approx(1.0 * (1 - np.exp(-2 * 2.0 * 0.5)) / 4.0)


def _per_cell_report_csv(report, fh):
    """The per-cell formatter write_report_csv replaced, kept as the byte reference."""
    p = report.mean_g.shape[1]
    header = (
        "t,alive,P_viol,P_lo,P_hi,mean_sq_lambda,bound_curve,"
        + ",".join(f"meanG_{j + 1}" for j in range(p))
    )
    fh.write(header + "\n")
    for k in range(report.t_grid.shape[0]):
        bound = report.bound_curve[k] if report.bound_curve is not None else float("nan")
        cells = [
            f"{report.t_grid[k]:.17g}",
            str(int(report.alive[k])),
            f"{report.empirical_p[k]:.17g}",
            f"{report.wilson_lo[k]:.17g}",
            f"{report.wilson_hi[k]:.17g}",
            f"{report.mean_sq_lambda[k]:.17g}",
            f"{bound:.17g}",
        ]
        cells += [f"{v:.17g}" for v in report.mean_g[k]]
        fh.write(",".join(cells) + "\n")


@pytest.mark.parametrize("with_bound", [True, False])
def test_report_csv_bytes_match_per_cell_formatter(with_bound):
    pr = pin_problem()
    sde = drifting_sde(rate=1.0, noise=0.3)
    sde.guard = lambda x: x[:, 0] < 0.45  # staggered truncation
    ens = run_ensemble(sde, [0.0], 0.01, 1.0, 8, base_seed=2, problem=pr)
    kw = {"b": 2.0, "J": 1.0} if with_bound else {}
    rep = violation_stats(pr, ens, epsilon=0.3, **kw)
    rep.mean_g[0, 0] = -0.0
    rep.mean_sq_lambda[1] = 1e-300
    rep.wilson_hi[2] = np.inf
    rep.empirical_p[3] = np.nan
    want, got = io.StringIO(), io.StringIO()
    _per_cell_report_csv(rep, want)
    write_report_csv(rep, got)
    assert got.getvalue() == want.getvalue()


def _reference_violation_stats(pr, ens, epsilon, *, b=None, J=None):
    """violation_stats before its in-place sorted sums, kept as the bitwise
    reference: per-path masks and np.nansum over sorted copies."""
    K = max(len(path) for path in ens.paths) - 1
    P = len(ens.paths)
    lam_sq = np.full((P, K + 1), np.nan)
    viol = np.zeros((P, K + 1), dtype=np.int64)
    alive_mask = np.zeros((P, K + 1), dtype=bool)
    g_vals = np.full((P, K + 1, pr.p), np.nan)
    for i, path in enumerate(ens.paths):
        g, lam = _g_and_lambda(pr, path)
        k = len(path)
        norms = np.linalg.norm(lam, axis=1)
        lam_sq[i, :k] = norms**2
        viol[i, :k] = norms > epsilon
        alive_mask[i, :k] = True
        g_vals[i, :k] = g
    alive = alive_mask.sum(axis=0)
    counts = viol.sum(axis=0)

    def sorted_nansum(matrix):
        return np.nansum(np.sort(matrix, axis=0), axis=0)

    with np.errstate(invalid="ignore", divide="ignore"):
        phat = counts / alive
        denom = 1.0 + _Z95**2 / alive
        center = (phat + _Z95**2 / (2 * alive)) / denom
        half = (
            _Z95
            * np.sqrt(phat * (1 - phat) / alive + _Z95**2 / (4 * alive**2))
            / denom
        )
        mean_sq = sorted_nansum(lam_sq) / alive
        sq_of_sq = sorted_nansum(lam_sq**2) / alive
        var_sq = np.maximum(sq_of_sq - mean_sq**2, 0.0)
        se = np.sqrt(var_sq / np.maximum(alive, 1))
        mean_g = np.stack(
            [sorted_nansum(g_vals[:, :, j]) / alive for j in range(pr.p)], axis=1
        )
    t_grid = np.arange(K + 1, dtype=float) * ens.dt
    bound = None
    if b is not None and J is not None:
        bound = J * (1.0 - np.exp(-2.0 * b * t_grid)) / (2.0 * b)
    completed = sum(1 for path in ens.paths if path.status.completed)
    return ViolationReport(
        t_grid=t_grid,
        alive=alive,
        empirical_p=phat,
        wilson_lo=np.minimum(np.maximum(center - half, 0.0), phat),
        wilson_hi=np.maximum(np.minimum(center + half, 1.0), phat),
        mean_sq_lambda=mean_sq,
        se_mean_sq=se,
        mean_g=mean_g,
        bound_curve=bound,
        epsilon=epsilon,
        completed_paths=completed,
        truncated_paths=P - completed,
    )


_EDGE_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0])


@st.composite
def hand_built_ensembles(draw):
    """Paths of mixed lengths whose states are g itself (g_i = x_i), with
    nan, +-inf and signed zeros; lambda adds 0.5 * cumsum(dW) when noisy."""
    p = draw(st.sampled_from([1, 2]))
    noisy = draw(st.booleans())
    steps = draw(st.integers(1, 6))
    labels = tuple(f"x{i + 1}" for i in range(p))
    pr = SdaeProblem(
        n=p, m=1, p=p, d=1,
        f=[parse("0")] * p, sigma=[[parse("1")]] * p,
        g=[parse(x) for x in labels], gamma=[[parse("0.5" if noisy else "0")]] * p,
        x0=[0.0] * p, u0_guess=[0.0],
    )
    value = st.one_of(_EDGE_VALUES, st.floats(-4.0, 4.0))
    paths = []
    for k in draw(st.lists(st.integers(1, steps + 1), min_size=1, max_size=10)):
        states = np.array(draw(st.lists(value, min_size=k * p, max_size=k * p)))
        dW = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k - 1, max_size=k - 1)))
        status = (
            PathStatus(StatusKind.COMPLETED) if k == steps + 1
            else PathStatus(StatusKind.DOMAIN_ERROR, k - 1)
        )
        paths.append(SamplePath(
            dt=0.1, t_grid=np.arange(k) * 0.1, states=states.reshape(k, p),
            dW=dW.reshape(k - 1, 1), seed=None, status=status, labels=labels,
        ))
    return pr, Ensemble(paths=paths, dt=0.1, T=steps * 0.1, base_seed=0, problem=pr)


def _assert_bitwise_equal(got: ViolationReport, want: ViolationReport) -> None:
    for f in dataclasses.fields(ViolationReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


@settings(max_examples=300, deadline=None, database=None)
@given(case=hand_built_ensembles(), epsilon=st.sampled_from([0.0, 0.5, np.inf]), data=st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_violation_stats_matches_reference_bitwise(case, epsilon, data):
    pr, ens = case
    got = violation_stats(pr, ens, epsilon, b=2.0, J=1.0)
    _assert_bitwise_equal(got, _reference_violation_stats(pr, ens, epsilon, b=2.0, J=1.0))
    order = data.draw(st.permutations(range(len(ens.paths))))
    shuffled = Ensemble(paths=[ens.paths[i] for i in order], dt=ens.dt, T=ens.T,
                        base_seed=0, problem=pr)
    _assert_bitwise_equal(violation_stats(pr, shuffled, epsilon, b=2.0, J=1.0), got)


@pytest.mark.parametrize(("block", "groups"), [(2, 32), (3, 3)])
@settings(max_examples=300, deadline=None, database=None)
@given(case=hand_built_ensembles(), epsilon=st.sampled_from([0.0, 0.5, np.inf]), data=st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blocked_violation_stats_match_reference_bitwise(block, groups, case, epsilon, data):
    """The reference check, permutation half included, with blocks of 2 or 3
    grid times (a width-1 remainder joins its neighbour) and with one path
    or several per kernel call."""
    with patch.object(stats, "_BLOCK", block), patch.object(stats, "_GROUPS", groups):
        test_violation_stats_matches_reference_bitwise.hypothesis.inner_test(case, epsilon, data)


@functools.cache
def method_ensemble(name):
    """(problem, ensemble, epsilon) of a method's ensemble: index-1 on the
    noisy 2x2 problem (1501 grid times, two blocks), index-1 with paths
    ended by a singular reduction, and unit-prob on criterion 4's set-up,
    some of whose paths end on its guard."""
    if name == "unit-prob":
        pr = builtin("paper-example")
        spec = paper_example_spec(0.25)
        init = np.concatenate([pr.x0, consistent_init(spec, pr)])
        sde = build_unit_prob_sde(pr, spec).sde()
        return pr, run_ensemble(sde, init, 1e-5, 0.035, 20, 2024, problem=pr), 0.25
    if name == "index1":
        pr, dt, T, epsilon = list(index1_test_problems())[2], 1e-3, 1.5, 0.05
    else:
        pr, dt, T, epsilon = index1_sqrt_problem(), 1e-3, 0.3, 1e-15
    sde, init = index1_setup(pr)
    return pr, run_ensemble(sde, init, dt, T, 16, 3, problem=pr), epsilon


def test_method_ensembles_hold_truncated_paths():
    assert all(p.status.completed for p in method_ensemble("index1")[1].paths)
    for name in ("index1-ending", "unit-prob"):
        assert not all(p.status.completed for p in method_ensemble(name)[1].paths)


@pytest.mark.parametrize("groups", [32, 3])
@pytest.mark.parametrize("name", ["index1", "index1-ending", "unit-prob"])
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_method_ensemble_stats_invariant_under_path_permutation(name, groups, data):
    pr, ens, epsilon = method_ensemble(name)
    order = data.draw(st.permutations(range(len(ens.paths))))
    shuffled = Ensemble(paths=[ens.paths[i] for i in order], dt=ens.dt, T=ens.T,
                        base_seed=ens.base_seed, problem=pr)
    with patch.object(stats, "_GROUPS", groups):
        got = violation_stats(pr, shuffled, epsilon)
    _assert_bitwise_equal(got, violation_stats(pr, ens, epsilon))


def test_block_edges_match_reference_bitwise():
    """K + 1 = 2 _BLOCK + 1 grid times, 20 noisy paths, one of them ending
    inside the second block; g has a constant component, finite on the
    NaN-padded rows past that path's end."""
    rng = np.random.default_rng(7)
    times = 2 * stats._BLOCK + 1
    assert stats._block_edges(times) == [0, stats._BLOCK, times]
    labels = ("x1", "x2")
    pr = SdaeProblem(
        n=2, m=1, p=2, d=2,
        f=[parse("0")] * 2, sigma=[[parse("1"), parse("0")], [parse("0"), parse("1")]],
        g=[parse("x1*x2 - 0.5*x1^2"), parse("1")],
        gamma=[[parse("0.3"), parse("0.1*x2")], [parse("0"), parse("0.2")]],
        x0=[0.0, 0.0], u0_guess=[0.0],
    )
    paths = []
    for i in range(20):
        k = stats._BLOCK + 37 if i == 11 else times
        status = (
            PathStatus(StatusKind.COMPLETED) if k == times
            else PathStatus(StatusKind.DOMAIN_ERROR, k - 1)
        )
        paths.append(SamplePath(
            dt=0.01, t_grid=np.arange(k) * 0.01, states=rng.standard_normal((k, 2)),
            dW=0.1 * rng.standard_normal((k - 1, 2)), seed=None, status=status, labels=labels,
        ))
    ens = Ensemble(paths=paths, dt=0.01, T=(times - 1) * 0.01, base_seed=0, problem=pr)
    got = violation_stats(pr, ens, 1.0, b=2.0, J=1.0)
    assert got.alive[stats._BLOCK + 36] == 20 and got.alive[stats._BLOCK + 37] == 19
    _assert_bitwise_equal(got, _reference_violation_stats(pr, ens, 1.0, b=2.0, J=1.0))


@pytest.mark.parametrize("p", range(1, 10))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_norms_match_linalg_norm_bitwise(p):
    """Below 8 components the sum of squares over components is numpy's own,
    bit for bit: comparable magnitudes (where the order of the additions
    shows), huge and tiny ones, signed zeros, inf and nan rows, and strided
    views as well as a contiguous block."""
    rng = np.random.default_rng(p)
    scale = 10.0 ** np.concatenate([rng.integers(-2, 3, size=(3, 200, p)),
                                    rng.integers(-200, 200, size=(3, 200, p))])
    v = rng.standard_normal((6, 200, p)) * scale
    v[0, 0] = np.inf
    v[0, 1] = np.nan
    v[0, 2, 0] = -np.inf
    v[0, 3, -1] = np.nan
    v[0, 4] = -0.0
    v[0, 5, 0] = np.inf
    v[0, 5, -1] = np.nan
    for block in (v, v[::2, 1::3], np.ascontiguousarray(v.transpose(2, 0, 1)).transpose(1, 2, 0)):
        out = np.empty(block.shape[:-1])
        stats._row_norms(block, out)
        assert out.tobytes() == np.linalg.norm(block, axis=-1).tobytes()
