"""One-step reduction rows, index computation, and the dimension law."""

import warnings

import numpy as np
import pytest

from helpers import random_points
from sdaekit.errors import MethodPreconditionError, SingularReductionError
from sdaekit.expr import evaluate, parse
from sdaekit.index1 import build_index1_sde, solve_index1
from sdaekit.index_reduction import compute_index, ito_drift_rows, reduce_once
from sdaekit.integrator import wiener_increments
from sdaekit.problem import SdaeProblem, builtin


class TestReduceOnce:
    def test_paper_example_rows(self):
        pr = builtin("paper-example")
        step = reduce_once(pr)
        assert len(step.constraint_rows) == 3  # p(1+d) = 1*3
        drift_row, noise1, noise2 = step.constraint_rows
        # hand-assembled references
        ref_drift = parse(
            "(2 - 3*x1^2)*(x1 + x1^2 + u1) - 2*cos(4*x2) - 0.12*x1"
        )
        ref_noise1 = parse("0.2*(2 - 3*x1^2)")
        for pt in random_points({"x1", "x2", "u1"}, 50, -2, 2, seed=23):
            assert evaluate(drift_row, pt) == pytest.approx(evaluate(ref_drift, pt), rel=1e-12, abs=1e-12)
            assert evaluate(noise1, pt) == pytest.approx(evaluate(ref_noise1, pt), rel=1e-12)
            assert evaluate(noise2, pt) == 0.0
        assert step.reduced.p == 3
        assert step.reduced.gamma_is_zero()
        assert step.init_residual == pytest.approx(2.0)  # drift row at origin is -2cos(0)

    def test_linear_constraint_constant_sigma(self):
        # g = c*x, sigma constant, Gamma = 0: rows are c*f and c*sigma_j
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("x1 + u1")], sigma=[[parse("0.7")]],
            g=[parse("3*x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        step = reduce_once(pr)
        for pt in random_points({"x1", "u1"}, 20, -2, 2, seed=29):
            assert evaluate(step.constraint_rows[0], pt) == pytest.approx(
                3 * (pt["x1"] + pt["u1"]), rel=1e-13, abs=1e-13
            )
            assert evaluate(step.constraint_rows[1], pt) == pytest.approx(3 * 0.7)

    def test_d_zero_classical_dae_step(self):
        pr = SdaeProblem(
            n=1, m=1, p=1, d=0,
            f=[parse("u1")], sigma=[[]],
            g=[parse("x1^2")], gamma=[[]],
            x0=[0.0], u0_guess=[0.0],
        )
        step = reduce_once(pr)
        assert len(step.constraint_rows) == 1  # p' = p when d = 0
        for pt in random_points({"x1", "u1"}, 20, -2, 2, seed=31):
            assert evaluate(step.constraint_rows[0], pt) == pytest.approx(
                2 * pt["x1"] * pt["u1"], rel=1e-13, abs=1e-13
            )

    def test_index1_input_rejected(self):
        with pytest.raises(MethodPreconditionError):
            reduce_once(builtin("linear-index1"))

    def test_row_count_law(self):
        pr = builtin("paper-example")
        step = reduce_once(pr)
        assert len(step.constraint_rows) == pr.p * (1 + pr.d)


class TestComputeIndex:
    def test_index2_demo(self):
        report = compute_index(builtin("index2-demo"))
        assert report.index == 2
        assert report.dimension_law_holds
        assert not report.exceeded_limit
        # h = [u1, u2] with identity Jacobian
        h = report.steps[0].constraint_rows
        for pt in random_points({"x1", "u1", "u2"}, 10, -1, 1, seed=37):
            assert evaluate(h[0], pt) == pt["u1"]
            assert evaluate(h[1], pt) == pt["u2"]

    def test_paper_example_dimension_mismatch(self):
        report = compute_index(builtin("paper-example"))
        assert report.exceeded_limit
        assert report.index is None
        assert "m = 1" in report.diagnosis and "3" in report.diagnosis
        assert report.dimension_law_holds is False
        assert len(report.steps) == 1

    def test_index1_rejected(self):
        with pytest.raises(MethodPreconditionError):
            compute_index(builtin("linear-index1"))

    def test_step_limit(self):
        # g depends on x only and the drift keeps it u-free for 2 steps; cap at 1
        pr = SdaeProblem(
            n=2, m=1, p=1, d=0,
            f=[parse("x2"), parse("u1")], sigma=[[], []],
            g=[parse("x1")], gamma=[[]],
            x0=[0.0, 0.0], u0_guess=[0.0],
        )
        report = compute_index(pr, max_steps=1)
        assert report.exceeded_limit
        assert "limit" in report.diagnosis

    def test_non_finite_det_is_singular(self):
        # h = (sqrt(u1), u2): D_u h has the entry 1/(2 sqrt(u1)) = inf at u1 = 0
        pr = SdaeProblem(
            n=1, m=2, p=1, d=1,
            f=[parse("sqrt(u1)")], sigma=[[parse("u2")]],
            g=[parse("x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0, 0.0],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_index(pr)
        assert report.index is None and report.exceeded_limit
        assert "singular at the initial point (det = nan)" in report.diagnosis
        # the index-1 solver refuses the same reduced problem
        with pytest.raises(SingularReductionError):
            build_index1_sde(report.steps[0].reduced)

    def test_index3_chain_with_d_zero(self):
        # classical DAE chain x1' = x2, x2' = u: index 3 constraint g = x1
        pr = SdaeProblem(
            n=2, m=1, p=1, d=0,
            f=[parse("x2"), parse("u1")], sigma=[[], []],
            g=[parse("x1")], gamma=[[]],
            x0=[0.0, 0.0], u0_guess=[0.0],
        )
        report = compute_index(pr)
        assert report.index == 3
        assert report.dimension_law_holds  # m = p(1+0)^2 = 1
        assert len(report.steps) == 2


class TestSolutionPreservation:
    def test_index2_demo_reduced_solves_original_constraint(self):
        report = compute_index(builtin("index2-demo"))
        reduced = report.final
        dt = 1e-4
        from sdaekit.index1 import build_index1_sde
        from sdaekit.stats import run_ensemble

        sde = build_index1_sde(reduced)
        ens = run_ensemble(sde, reduced.init_point(), dt, 1.0, 10, base_seed=0)
        for path in ens.paths:
            assert path.status.completed
            assert np.abs(path.column("x1")).max() <= 3.0 * np.sqrt(dt)

    def test_drift_row_matches_empirical_ito_drift(self):
        # E[dg/dt] at a fixed point vs the symbolic drift row, 3-sigma statistical
        pr = builtin("paper-example")
        rows = ito_drift_rows(pr)
        point = {"x1": 0.5, "x2": 0.3, "u1": 0.2}
        drift_ref = evaluate(rows[0], point)
        dt = 1e-4
        K = 200_000
        dW = wiener_increments(99, K, 2, dt)
        x1 = point["x1"] + (point["x1"] + point["x1"] ** 2 + point["u1"]) * dt + 0.2 * dW[:, 0]
        x2 = point["x2"] + 1.0 * dt
        g0 = 2 * point["x1"] - point["x1"] ** 3 - 0.5 * np.sin(4 * point["x2"])
        g1 = 2 * x1 - x1**3 - 0.5 * np.sin(4 * x2)
        samples = (g1 - g0) / dt
        se = samples.std(ddof=1) / np.sqrt(K)
        assert abs(samples.mean() - drift_ref) <= 3.0 * se + 1e-2
