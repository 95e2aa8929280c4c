"""Gain selection, the stabilised constraint, both solve modes, and the bound."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import bisect_root, random_points
from sdaekit import integrator
from sdaekit.bounded import (
    _newton_batch,
    BoundedMConfig,
    SolveMode,
    build_bounded_constraint,
    choose_b,
    gain_threshold,
    resolve_config,
    run_bounded_ensemble,
    solve_bounded,
    sup_trace,
    verify_bound,
)
from sdaekit.errors import DimensionMismatchError, MethodPreconditionError
from sdaekit.expr import evaluate, parse
from sdaekit.index_reduction import reduce_once
from sdaekit.integrator import derive_seed
from sdaekit.problem import SINGULAR_TOL, SdaeProblem, builtin

BOX = [(-2.0, 2.0), (-5.0, 5.0)]


class TestSupTrace:
    def test_paper_example_supremum(self):
        res = sup_trace(builtin("paper-example"), BOX, grid_per_dim=101)
        assert res.raw == pytest.approx(4.0, abs=0.01)
        assert res.inflated == pytest.approx(4.2, rel=1e-12)
        assert abs(res.argmax_point[0]) == pytest.approx(2.0)

    def test_constant_noise_row(self):
        res = sup_trace(builtin("cooling"), [(0.0, 2.0)], grid_per_dim=11)
        assert res.raw == pytest.approx(0.25)  # (Dg sigma)^2 = 0.5^2

    def test_zero_noise(self):
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("u1")], sigma=[[parse("0")]],
            g=[parse("x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        assert sup_trace(pr, [(-1, 1)], 11).raw == 0.0

    def test_monotone_under_refinement(self):
        pr = builtin("paper-example")
        coarse = sup_trace(pr, BOX, grid_per_dim=51).raw
        fine = sup_trace(pr, BOX, grid_per_dim=101).raw
        assert fine >= coarse * 0.995

    def test_u_dependent_sigma_needs_joint_box(self):
        pr = builtin("index2-demo")
        with pytest.raises(ValueError, match="3 dimensions"):
            sup_trace(pr, [(-1, 1)], 11)
        res = sup_trace(pr, [(-1, 1), (-2, 2), (-2, 2)], 11)
        assert res.raw == pytest.approx(4.0)  # (1 * u2)^2 at u2 = +-2


class TestChooseB:
    def test_paper_numbers(self):
        assert gain_threshold(4.0, 0.5, 0.8) == 10.0
        assert choose_b(4.0, 0.5, 0.8) == pytest.approx(11.0, rel=1e-15)

    def test_zero_noise_floor(self):
        assert choose_b(0.0, 0.5, 0.8) == 1.0

    def test_alpha_limit_monotone(self):
        b3 = choose_b(4.0, 0.5, 1e-3)
        b2 = choose_b(4.0, 0.5, 1e-2)
        assert b3 / b2 == pytest.approx(10.0, rel=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gain_threshold(-1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            gain_threshold(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            gain_threshold(1.0, 0.5, 1.5)


class TestBuildConstraint:
    def test_paper_example_h(self):
        pr = builtin("paper-example")
        h_pr = build_bounded_constraint(pr, 11.0)
        ref = parse(
            "-2*cos(4*x2) + (2 - 3*x1^2)*(x1 + x1^2 + u1) - 0.12*x1"
            " + 11*(2*x1 - x1^3 - 0.5*sin(4*x2))"
        )
        for pt in random_points({"x1", "x2", "u1"}, 50, -2, 2, seed=41):
            assert evaluate(h_pr.g[0], pt) == pytest.approx(
                evaluate(ref, pt), rel=1e-12, abs=1e-12
            )

    def test_b_zero_equals_reduction_drift_row(self):
        pr = builtin("paper-example")
        h_pr = build_bounded_constraint(pr, 0.0)
        drift_row = reduce_once(pr).constraint_rows[0]
        for pt in random_points({"x1", "x2", "u1"}, 30, -2, 2, seed=43):
            assert evaluate(h_pr.g[0], pt) == evaluate(drift_row, pt)

    def test_linear_g_no_hessian_term(self):
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("x1 + u1")], sigma=[[parse("0.7")]],
            g=[parse("3*x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        h_pr = build_bounded_constraint(pr, 2.0)
        for pt in random_points({"x1", "u1"}, 20, -2, 2, seed=47):
            assert evaluate(h_pr.g[0], pt) == pytest.approx(
                3 * (pt["x1"] + pt["u1"]) + 2 * 3 * pt["x1"], rel=1e-13, abs=1e-13
            )

    def test_index1_input_rejected(self):
        with pytest.raises(MethodPreconditionError):
            build_bounded_constraint(builtin("linear-index1"), 1.0)


@pytest.fixture(scope="module")
def paper_cfg():
    return BoundedMConfig(epsilon=0.5, alpha=0.8, box=BOX, b=11.0, J_raw=4.0)


class TestSolveBounded:
    def test_initial_algebraic_value_matches_closed_form(self, paper_cfg):
        pr = builtin("paper-example")
        path = solve_bounded(pr, paper_cfg, 1e-3, 0.01, seed=1)
        # closed form u = (2cos(4x2) - 11g + 0.12x1 - (2-3x1^2)(x1+x1^2))/(2-3x1^2)
        assert path.states[0, 2] == pytest.approx(1.0, abs=1e-10)
        # oracle: bisection on h(0, 0, u)
        h = build_bounded_constraint(pr, 11.0).g[0]
        root = bisect_root(lambda u: evaluate(h, {"x1": 0.0, "x2": 0.0, "u1": u}), 0.0, 2.0)
        assert path.states[0, 2] == pytest.approx(root, abs=1e-8)

    def test_modes_agree_exactly_on_linear_problem(self):
        # cooling's stabilised constraint is linear with constant noise, so the
        # explicit recursion preserves h exactly and both modes coincide
        pr = builtin("cooling")
        cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(0.0, 2.0)])
        a = solve_bounded(pr, cfg, 1e-3, 1.0, seed=7, mode=SolveMode.NEWTON_PER_STEP)
        b = solve_bounded(pr, cfg, 1e-3, 1.0, seed=7, mode=SolveMode.LEMMA1_REDUCTION)
        assert np.abs(a.states - b.states).max() <= 1e-8

    def test_modes_agree_at_discretisation_level_nonlinear(self, paper_cfg):
        pr = builtin("paper-example")
        dt = 1e-4
        a = solve_bounded(pr, paper_cfg, dt, 0.2, seed=5, mode=SolveMode.NEWTON_PER_STEP)
        b = solve_bounded(pr, paper_cfg, dt, 0.2, seed=5, mode=SolveMode.LEMMA1_REDUCTION)
        assert np.abs(a.states - b.states).max() <= 5.0 * np.sqrt(dt)

    def test_lambda_drift_is_minus_b_lambda(self, paper_cfg):
        # with u from h = 0, the drift half of d(lambda) equals -b lambda: the
        # stabilised drift row evaluates to -b g wherever h holds
        pr = builtin("paper-example")
        h_pr = build_bounded_constraint(pr, 11.0)
        drift_row = reduce_once(pr).constraint_rows[0]
        rng = np.random.default_rng(51)
        for _ in range(100):
            x1, x2 = rng.uniform(-0.6, 0.6), rng.uniform(-5, 5)
            if abs(2 - 3 * x1**2) < 1e-3:
                continue
            h_expr = h_pr.g[0]
            u = bisect_root(
                lambda uu: evaluate(h_expr, {"x1": x1, "x2": x2, "u1": uu}), -300.0, 300.0
            )
            pt = {"x1": x1, "x2": x2, "u1": u}
            g_val = evaluate(pr.g[0], {"x1": x1, "x2": x2})
            assert evaluate(drift_row, pt) == pytest.approx(-11.0 * g_val, abs=1e-6)

    def test_warns_when_gain_below_threshold(self):
        pr = builtin("paper-example")
        cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=BOX, b=5.0, J_raw=4.0)
        with pytest.warns(UserWarning, match="threshold"):
            resolve_config(pr, cfg)

    def test_resolve_fills_J_and_b(self):
        pr = builtin("paper-example")
        cfg = resolve_config(pr, BoundedMConfig(epsilon=0.5, alpha=0.8, box=BOX))
        assert cfg.J_raw == pytest.approx(4.0, abs=0.01)
        assert cfg.b == pytest.approx(11.0, rel=0.01)

    def test_m_not_p_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_bounded_constraint(builtin("index2-demo"), 1.0)


class TestVerifyBound:
    def test_bound_holds_desk_scale(self, paper_cfg):
        pr = builtin("paper-example")
        ens = run_bounded_ensemble(pr, paper_cfg, 1e-3, 1.0, 200, 42)
        rep = verify_bound(ens, paper_cfg)
        assert np.nanmax(rep.empirical_p) <= 0.8
        ok = rep.mean_sq_lambda <= rep.bound_curve + 3.0 * rep.se_mean_sq + 1e-12
        assert ok.all()
        assert rep.completed_paths + rep.truncated_paths == 200

    def test_huge_gain_pins_mean_square(self):
        pr = builtin("paper-example")
        cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=BOX, b=1e4, J_raw=4.0)
        ens = run_bounded_ensemble(pr, cfg, 1e-5, 0.05, 200, 11)
        rep = verify_bound(ens, cfg)
        limit = 4.0 / (2.0 * 1e4)
        assert np.nanmax(rep.mean_sq_lambda) <= limit + 3.0 * np.nanmax(rep.se_mean_sq)

    def test_zero_noise_exact_constraint(self):
        # noiseless, consistent start: lambda stays identically zero
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("-x1 + u1")], sigma=[[parse("0")]],
            g=[parse("x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        cfg = BoundedMConfig(epsilon=0.1, alpha=0.5, box=[(-1, 1)])
        ens = run_bounded_ensemble(pr, cfg, 1e-3, 0.5, 20, 3)
        rep = verify_bound(ens, cfg)
        assert np.nanmax(rep.empirical_p) == 0.0
        assert np.nanmax(np.abs(rep.mean_g)) <= 1e-10


class TestStepRefusal:
    """b dt >= 2 makes the step's lambda_{k+1} = (1 - b dt) lambda_k + noise diverge."""

    CFG = BoundedMConfig(epsilon=0.5, alpha=0.8, box=BOX, b=4.0, J_raw=0.1)

    @pytest.mark.parametrize("mode", list(SolveMode), ids=lambda m: m.value)
    def test_gain_times_dt_of_2_refused(self, mode):
        pr = builtin("paper-example")
        msg = r"b = 4 with dt = 0\.5 gives b\*dt = 2 >= 2.*2/b = 0\.5"
        with pytest.raises(MethodPreconditionError, match=msg):
            run_bounded_ensemble(pr, self.CFG, 0.5, 1.0, 2, 1, mode)
        with pytest.raises(MethodPreconditionError, match=msg):
            solve_bounded(pr, self.CFG, 0.5, 1.0, 1, mode)

    @pytest.mark.parametrize("mode", list(SolveMode), ids=lambda m: m.value)
    def test_gain_times_dt_below_2_runs(self, mode):
        pr = builtin("paper-example")
        assert len(run_bounded_ensemble(pr, self.CFG, 0.45, 0.9, 2, 1, mode)) == 2
        assert len(solve_bounded(pr, self.CFG, 0.45, 0.9, 1, mode).t_grid) >= 1


def fold_problem():
    """h = u^3 - u + 0.3 + 2 x is nonlinear in u: Newton takes several steps,
    and paths that reach the fold of the cubic stop converging."""
    return SdaeProblem(
        n=1, m=1, p=1, d=1,
        f=[parse("u1^3 - u1 + 0.3")], sigma=[[parse("1")]],
        g=[parse("x1")], gamma=[[parse("0")]],
        x0=[0.0], u0_guess=[1.0],
    )


FOLD_CFG = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(-1.0, 1.0)], b=2.0, J_raw=0.5)


def _same_paths(a, b):
    assert str(a.status) == str(b.status)
    assert a.seed == b.seed
    assert a.metadata["newton_iterations"] == b.metadata["newton_iterations"]
    for name in ("states", "dW", "t_grid"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


class TestNewtonEngineProperties:
    def test_chunk_size_invariance_bitwise(self):
        pr = fold_problem()
        e3 = run_bounded_ensemble(pr, FOLD_CFG, 0.01, 1.0, 10, 5, chunk=3)
        e10 = run_bounded_ensemble(pr, FOLD_CFG, 0.01, 1.0, 10, 5, chunk=10)
        statuses = {str(p.status).split("@")[0] for p in e3.paths}
        assert statuses == {"completed", "domain-error"}  # both outcomes exercised
        assert len({p.metadata["newton_iterations"] for p in e3.paths}) > 2
        for a, b in zip(e3.paths, e10.paths, strict=True):
            _same_paths(a, b)

    def test_single_path_equals_ensemble_path_bitwise(self):
        pr = fold_problem()
        ens = run_bounded_ensemble(pr, FOLD_CFG, 0.01, 1.0, 6, 9, chunk=4)
        for k in (0, 3, 5):
            single = solve_bounded(pr, FOLD_CFG, 0.01, 1.0, seed=derive_seed(9, k))
            _same_paths(single, ens.paths[k])

    def test_every_bounded_path_records_newton_iterations(self, paper_cfg):
        pr = builtin("paper-example")
        ens = run_bounded_ensemble(pr, paper_cfg, 1e-3, 0.02, 3, 1)
        # h is affine in u here: one update per step, then a confirming residual
        assert [p.metadata["newton_iterations"] for p in ens.paths] == [20, 20, 20]


def newton_batch_lapack(fn, u0, tol, max_iter, det_tol):
    """The Newton loop with LAPACK det and solve for every m, as _newton_batch
    runs it for m >= 2: the reference for its m = 1 branch."""
    u = u0.copy()
    P, m = u.shape
    converged = np.zeros(P, dtype=bool)
    singular = np.zeros(P, dtype=bool)
    iters = np.zeros(P, dtype=np.int64)
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
            det = np.linalg.det(jac)
            bad = pending & (~np.isfinite(det) | (np.abs(det) <= det_tol))
            singular |= bad
            pending &= ~bad
            if not pending.any():
                break
            safe = np.where(pending[:, None, None], jac, np.eye(m))
            delta = np.linalg.solve(safe, res[:, :, None])[:, :, 0]
            bad_step = pending & ~np.isfinite(delta).all(axis=1)
            singular |= bad_step
            pending &= ~bad_step
            u = np.where(pending[:, None], u - delta, u)
            iters += pending
    return u, converged, singular, iters


def _signed(magnitudes):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(lambda t: t[0] * t[1])


# 0, +-inf and nan; |v| on both sides of SINGULAR_TOL, but outside the relative
# 1e-13 band where LAPACK's 1x1 det = sign * exp(log|a|) and a may round apart
_newton_values = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    _signed(st.floats(-4.0, 4.0).map(lambda e: SINGULAR_TOL * 10.0**e)),
    st.floats(-1e300, 1e300),
).filter(lambda v: not np.isfinite(v) or abs(abs(v) / SINGULAR_TOL - 1.0) > 1e-13)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_scalar_newton_branch_equals_lapack_branch_bitwise(data):
    P = data.draw(st.integers(1, 6))
    m = data.draw(st.sampled_from([1, 1, 1, 2]))  # m = 2 runs LAPACK in both
    max_iter = data.draw(st.integers(1, 4))
    res_seq = data.draw(arrays(np.float64, (max_iter, P, m), elements=_newton_values))
    jac_seq = data.draw(arrays(np.float64, (max_iter, P, m, m), elements=_newton_values))
    u0 = data.draw(arrays(np.float64, (P, m), elements=_newton_values))
    tol = data.draw(st.sampled_from([1e-10, 1e-6]))

    def replay():  # call i of fn returns the i-th drawn (res, jac) batch
        calls = iter(zip(res_seq, jac_seq))
        return lambda u: next(calls)

    with patch.object(integrator, "NEWTON_MAX_ITER", max_iter):
        got = _newton_batch(replay(), u0, tol)
    want = newton_batch_lapack(replay(), u0, tol, max_iter, SINGULAR_TOL)
    assert got[0].tobytes() == want[0].tobytes()
    for a, b in zip(got[1:], want[1:], strict=True):
        assert np.array_equal(a, b)
