"""Ensemble determinism, exchangeability, and the violation report."""

import io
import random

import numpy as np
import pytest

from sdaekit.bounded import BoundedMConfig, run_bounded_ensemble
from sdaekit.expr import parse
from sdaekit.index1 import index1_setup
from sdaekit.integrator import AugmentedSde, Ensemble, derive_seed
from sdaekit.problem import SdaeProblem, builtin
from sdaekit.stats import run_ensemble, violation_stats, write_report_csv


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
