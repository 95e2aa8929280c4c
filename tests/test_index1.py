"""Index-1 reduction: annihilation identities and exact discrete cancellation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import random_points
from sdaekit.errors import (
    DimensionMismatchError,
    MethodPreconditionError,
    SingularReductionError,
)
from sdaekit.expr import compile_kernel, evaluate, hessian, parse
from sdaekit.index1 import build_index1_reduction, build_index1_sde, solve_index1
from sdaekit.integrator import _eye, constraint_process, euler_maruyama, wiener_increments
from sdaekit.problem import SINGULAR_TOL, SdaeProblem, builtin
from sdaekit.stats import run_ensemble


def pinned_u_problem():
    # constraint pins u to 0; D_x g = 0, D_u g = 1
    return SdaeProblem(
        n=1, m=1, p=1, d=1,
        f=[parse("-x1")], sigma=[[parse("0.1")]],
        g=[parse("u1")], gamma=[[parse("0")]],
        x0=[0.5], u0_guess=[0.0],
    )


def mixed_2d_problem():
    # m = p = 2 exercises the batched linear-solve path
    return SdaeProblem(
        n=2, m=2, p=2, d=2,
        f=[parse("x2 + u1"), parse("-x1 + u2")],
        sigma=[[parse("0.2"), parse("0")], [parse("0.1"), parse("0.3")]],
        g=[parse("u1 + 0.1*u2 - x1 - 0.05*x2^2"), parse("u2 - 0.2*x2 + 0.3*sin(x1)")],
        gamma=[[parse("0.05"), parse("0")], [parse("0"), parse("0.1")]],
        x0=[0.0, 0.0], u0_guess=[0.0, 0.0],
    )


def contraction_example():
    return SdaeProblem(
        n=1, m=1, p=1, d=1,
        f=[parse("x1")], sigma=[[parse("0.1")]],
        g=[parse("0.25*x1 + 0.5*u1")], gamma=[[parse("0")]],
        x0=[0.0], u0_guess=[0.0],
    )


def curved_u_problem():
    # g has u^2 and x*u terms, so the B D2_uu g B' and sigma D2_xu g B' traces
    # are non-zero; the first row is affine in x and the second has no x*u
    # term, so their D2_xx and D2_xu blocks are skipped
    return SdaeProblem(
        n=2, m=2, p=2, d=2,
        f=[parse("x2 + u1"), parse("-x1 + u2*x2")],
        sigma=[[parse("0.2 + 0.1*x2"), parse("0")], [parse("0.1*u1"), parse("0.3")]],
        g=[parse("u1 + 0.1*u1^2 + 0.2*x1*u2 - x1"), parse("u2 + 0.05*u2^2 - 0.3*sin(x2)")],
        gamma=[[parse("0.05"), parse("0")], [parse("0"), parse("0.1")]],
        x0=[0.0, 0.0], u0_guess=[0.0, 0.0],
        name="curved-u",
    )


def mixed_3d_problem():
    # m = 3 is past the closed form, so its steps use the batched solve; its
    # rows carry D2_xx, D2_uu and D2_xu blocks between them
    return SdaeProblem(
        n=2, m=3, p=3, d=2,
        f=[parse("x2 + u1 - u3"), parse("-x1 + u2")],
        sigma=[[parse("0.2"), parse("0.1*x1")], [parse("0.1"), parse("0.3")]],
        g=[
            parse("u1 + 0.1*u2 - x1 - 0.05*x2^2"),
            parse("u2 + 0.1*u3^2 - 0.2*x2 + 0.3*sin(x1)"),
            parse("u3 - 0.1*u1 + 0.1*x1*u2 - 0.3*x2"),
        ],
        gamma=[[parse("0.05"), parse("0")], [parse("0"), parse("0.1")], [parse("0.02"), parse("0")]],
        x0=[0.0, 0.0], u0_guess=[0.0, 0.0, 0.0],
        name="mixed-3d",
    )


INDEX1_PROBLEMS = [
    builtin("linear-index1"),
    pinned_u_problem(),
    mixed_2d_problem(),
    contraction_example(),
    curved_u_problem(),
    mixed_3d_problem(),
]


class TestSymbolicForms:
    def test_linear_index1_coefficients(self):
        red = build_index1_reduction(builtin("linear-index1"))
        # D_x g = -1, D_u g = 1 => B = 0.3, a = u
        assert evaluate(red.b_symbolic[0][0], {"x1": 0.3, "u1": -0.7}) == pytest.approx(0.3)
        for pt in random_points({"x1", "u1"}, 20, -2, 2, seed=4):
            assert evaluate(red.a_symbolic[0], pt) == pytest.approx(pt["u1"], rel=1e-12)

    def test_pinned_u_gives_zero_dynamics(self):
        red = build_index1_reduction(pinned_u_problem())
        for pt in random_points({"x1", "u1"}, 20, -2, 2, seed=5):
            assert evaluate(red.b_symbolic[0][0], pt) == 0.0
            assert evaluate(red.a_symbolic[0], pt) == 0.0

    def test_curved_u_matches_symbolic_forms(self):
        # the symbolic a and B carry every trace term, each written out by hand
        pr = curved_u_problem()
        red = build_index1_reduction(pr)
        pts = np.random.default_rng(6).uniform(-1, 1, size=(50, pr.n + pr.m))
        a, B, _ = red.coefficients(pts)
        for row, pt in enumerate(pts):
            env = dict(zip(pr.labels, pt))
            for i in range(pr.m):
                want = evaluate(red.a_symbolic[i], env)
                assert a[row, i] == pytest.approx(want, rel=1e-12, abs=1e-14)
                for j in range(pr.d):
                    want = evaluate(red.b_symbolic[i][j], env)
                    assert B[row, i, j] == pytest.approx(want, rel=1e-12, abs=1e-14)


_TRACE = "...kj,...kl,...lj->..."


def full_trace_reference(pr, points, B):
    """Tr(sigma D2_xx g_i sigma' + B D2_uu g_i B' + 2 sigma D2_xu g_i B') over
    every Hessian block, zero or not: six einsum calls for two rows."""
    x_l, u_l = pr.x_labels, pr.u_labels
    k = compile_kernel(pr.labels, {
        "sigma": pr.sigma,
        "hxx": [hessian(gi, x_l, x_l) for gi in pr.g],
        "huu": [hessian(gi, u_l, u_l) for gi in pr.g],
        "hxu": [hessian(gi, x_l, u_l) for gi in pr.g],
    })(points)
    sig = k["sigma"]
    out = np.empty(points.shape[:-1] + (pr.p,))
    for i in range(pr.p):
        out[..., i] = (
            np.einsum(_TRACE, sig, k["hxx"][..., i, :, :], sig)
            + np.einsum(_TRACE, B, k["huu"][..., i, :, :], B)
            + 2.0 * np.einsum(_TRACE, sig, k["hxu"][..., i, :, :], B)
        )
    return out


@st.composite
def mixed_block_problems(draw, ms=st.integers(1, 2)):
    """Index-1 problems whose rows each have a random subset of non-zero
    D2_xx, D2_uu and D2_xu blocks; D_u g stays near the identity on [-1, 1]."""
    n, m, d = draw(st.integers(1, 2)), draw(ms), draw(st.integers(1, 2))
    xs = [f"x{i + 1}" for i in range(n)]
    us = [f"u{i + 1}" for i in range(m)]
    coef = st.sampled_from(["0.1", "-0.1", "0.05", "-0.07"])
    g = []
    for i in range(m):
        text = f"u{i + 1} - 0.3*{draw(st.sampled_from(xs))}"
        if draw(st.booleans()):
            xx = draw(st.sampled_from([f"{a}*{b}" for a in xs for b in xs] + [f"sin({a})" for a in xs]))
            text += f" + ({draw(coef)})*{xx}"
        if draw(st.booleans()):
            uu = draw(st.sampled_from([f"{a}*{b}" for a in us for b in us] + [f"{a}^3" for a in us]))
            text += f" + ({draw(coef)})*{uu}"
        if draw(st.booleans()):
            text += f" + ({draw(coef)})*{draw(st.sampled_from(xs))}*{draw(st.sampled_from(us))}"
        g.append(parse(text))
    entry = st.sampled_from(["0", "0.2", "-0.3", "0.1*x1", "-0.2*u1", "0.1*cos(x1)"])
    return SdaeProblem(
        n=n, m=m, p=m, d=d,
        f=[parse(draw(st.sampled_from(["1", *xs, *us]))) for _ in range(n)],
        sigma=[[parse(draw(entry)) for _ in range(d)] for _ in range(n)],
        g=g,
        gamma=[[parse(draw(st.sampled_from(["0", "0.05"]))) for _ in range(d)] for _ in range(m)],
        x0=[0.0] * n, u0_guess=[0.0] * m,
    )


class TestStructuralZeroBlocks:
    def test_zero_blocks_left_out_of_the_kernel(self):
        assert build_index1_reduction(mixed_2d_problem())._blocks == [("hxx0",), ("hxx1",)]
        assert build_index1_reduction(pinned_u_problem())._blocks == [()]
        assert build_index1_reduction(curved_u_problem())._blocks == [
            ("huu0", "hxu0"), ("hxx1", "huu1")
        ]
        k = build_index1_reduction(mixed_2d_problem())._pieces(np.zeros((3, 4)))
        assert sorted(k) == ["dug", "dxg", "f", "gamma", "hxx0", "hxx1", "sigma"]

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_skipped_trace_equals_full_trace_bitwise(self, data):
        pr = data.draw(mixed_block_problems())
        red = build_index1_reduction(pr)
        pts = data.draw(arrays(np.float64, (5, pr.n + pr.m), elements=st.floats(-1, 1)))
        k = red._pieces_at(pts)
        _, B, _ = red._solve(k)
        assert np.isfinite(B).all()
        assert red._trace(k, B).tobytes() == full_trace_reference(pr, pts, B).tobytes()

    @settings(max_examples=30, deadline=None, database=None)
    @given(data=st.data())
    def test_skipped_trace_equals_full_trace_bitwise_m3(self, data):
        pr = data.draw(mixed_block_problems(ms=st.just(3)))
        red = build_index1_reduction(pr)
        pts = data.draw(arrays(np.float64, (5, pr.n + pr.m), elements=st.floats(-1, 1)))
        k = red._pieces_at(pts)
        _, B, _ = red._solve(k)
        assert np.isfinite(B).all()
        assert red._trace(k, B).tobytes() == full_trace_reference(pr, pts, B).tobytes()


class TestAnnihilationIdentities:
    @pytest.mark.parametrize("pr", INDEX1_PROBLEMS, ids=lambda p: p.name or "anon")
    def test_diffusion_identity(self, pr):
        red = build_index1_reduction(pr)
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1, 1, size=(100, pr.n + pr.m))
        resid = red.diffusion_residual(pts)
        assert np.nanmax(np.abs(resid)) <= 1e-10

    @pytest.mark.parametrize("pr", INDEX1_PROBLEMS, ids=lambda p: p.name or "anon")
    def test_drift_identity(self, pr):
        red = build_index1_reduction(pr)
        rng = np.random.default_rng(18)
        pts = rng.uniform(-1, 1, size=(100, pr.n + pr.m))
        resid = red.drift_residual(pts)
        assert np.nanmax(np.abs(resid)) <= 1e-10


def lapack_reference(red, points):
    """(a, B, det D_u g) by batched LAPACK solves on the pieces kernel: the
    step of every m before the m <= 2 closed form, kept as its reference."""
    k = red._pieces_at(points)
    dxg, dug, sig, f = k["dxg"], k["dug"], k["sigma"], k["f"]
    with np.errstate(all="ignore"):
        det = np.linalg.det(dug)
        rhs_b = -(dxg @ sig + k["gamma"])
        ok = np.abs(det) > SINGULAR_TOL
        safe_dug = np.where(ok[..., None, None], dug, _eye(red.problem.m))
        B = np.linalg.solve(safe_dug, rhs_b)
        trace = red._trace(k, B)
        rhs_a = -((dxg @ f[..., None])[..., 0] + 0.5 * trace)
        a = np.linalg.solve(safe_dug, rhs_a[..., None])[..., 0]
        a = np.where(ok[..., None], a, np.nan)
        B = np.where(ok[..., None, None], B, np.nan)
    return a, B, det


@st.composite
def conditioned_problems(draw):
    """1x1 and 2x2 index-1 problems g = M u - c(x) with a constant D_u g = M
    of drawn determinant (1e-10 to 10, either sign) and condition (up to 1e8).

    c is a positive sum of x, x^2 and exp(x) terms; f and sigma are non-negative
    and Gamma non-positive on x >= 0.  Every term of the right-hand sides of a
    and B then has one sign, so they carry no cancellation and the comparison
    measures the two solves alone.  Points keep x >= 1e-6, clear of the
    subnormal range where relative rounding grows without bound.
    """
    n, m, d = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    # half the draws land within a decade of the guard's SINGULAR_TOL = 1e-8
    log_det = draw(st.one_of(st.floats(-10, 1), st.floats(-9, -7)))
    det = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** log_det
    if m == 1:
        M = np.array([[det]])
    else:
        cond = 10.0 ** draw(st.floats(0, 8))
        s1 = np.sqrt(abs(det) * cond)
        theta = draw(st.floats(0, np.pi))
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        M = R @ np.diag([np.copysign(s1, det), abs(det) / s1]) @ R.T
    xs = [f"x{i + 1}" for i in range(n)]
    g = []
    for i in range(m):
        text = " + ".join(f"({float(M[i, j])!r})*u{j + 1}" for j in range(m))
        for xk in draw(st.lists(st.sampled_from(xs), min_size=1, max_size=2)):
            shape = draw(st.sampled_from(["{}", "{}^2", "exp({})"]))
            text += f" - {draw(st.sampled_from(['0.3', '0.05', '1.5']))}*{shape.format(xk)}"
        g.append(parse(text))
    entry = st.sampled_from(["0", "0.2", "0.1*x1", "0.3 + x1^2"])
    return SdaeProblem(
        n=n, m=m, p=m, d=d,
        f=[parse(draw(st.sampled_from(["1", *xs, "0.5 + x1^2"]))) for _ in range(n)],
        sigma=[[parse(draw(entry)) for _ in range(d)] for _ in range(n)],
        g=g,
        gamma=[[parse(draw(st.sampled_from(["0", "-0.05"]))) for _ in range(d)] for _ in range(m)],
        x0=[0.0] * n, u0_guess=[0.0] * m,
    )


class TestClosedForm:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_agrees_with_lapack_reference(self, data):
        pr = data.draw(conditioned_problems())
        red = build_index1_reduction(pr)
        x = data.draw(arrays(np.float64, (6, pr.n), elements=st.floats(1e-6, 1)))
        u = data.draw(arrays(np.float64, (6, pr.m), elements=st.floats(-1, 1)))
        pts = np.concatenate([x, u], axis=1)
        a, B, det = red.coefficients(pts)
        a_ref, B_ref, det_ref = lapack_reference(red, pts)

        ok, drift, diffusion = red.sde().both(pts)
        ok_ref = np.isfinite(det_ref) & (np.abs(det_ref) > SINGULAR_TOL)
        clear = (np.abs(det_ref) < 0.5 * SINGULAR_TOL) | (np.abs(det_ref) > 2.0 * SINGULAR_TOL)
        np.testing.assert_array_equal(ok[clear], ok_ref[clear])
        assert np.array_equal(np.isnan(a), ~ok[:, None].repeat(pr.m, 1))
        assert drift[:, pr.n:][ok].tobytes() == a[ok].tobytes()
        assert diffusion[:, pr.n:][ok].tobytes() == B[ok].tobytes()

        both_ok = ok & ok_ref
        cond = np.linalg.cond(red._pieces_at(pts)["dug"])
        for got, ref in ((a, a_ref), (B, B_ref)):
            got, ref = got.reshape(len(pts), -1), ref.reshape(len(pts), -1)
            err = np.abs(got - ref).max(axis=1)
            bound = 1e-13 * cond * np.abs(ref).max(axis=1)
            assert (err <= bound)[both_ok].all()


class TestLinearIndex1Exactness:
    def test_constraint_preserved_to_machine_precision(self):
        path = solve_index1(builtin("linear-index1"), dt=1e-3, T=1.0, seed=1)
        assert path.status.completed
        diff = path.column("u1") - path.column("x1")
        assert np.abs(diff).max() <= 1e-12
        assert path.metadata["max_constraint_violation"] <= 1e-12

    def test_matches_closed_form_coupled_recursion(self):
        pr = builtin("linear-index1")
        dt, T, seed = 1e-3, 1.0, 3
        sde = build_index1_sde(pr)
        inc = wiener_increments(seed, 1000, 1, dt)
        path = euler_maruyama(sde, pr.init_point(), dt, T, inc)
        # closed form: u == x solving dx = x dt + 0.3 dW, stepped explicitly
        x = np.empty(1001)
        x[0] = 1.0
        for k in range(1000):
            x[k + 1] = x[k] + x[k] * dt + 0.3 * inc[k, 0]
        np.testing.assert_allclose(path.column("x1"), x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(path.column("u1"), x, rtol=0, atol=1e-12)


def test_max_violation_is_the_constraint_process():
    # Gamma != 0: g itself wanders with the noise while lambda = g + int Gamma dW
    # stays at zero up to the step error
    pr = mixed_2d_problem()
    path = solve_index1(pr, dt=1e-3, T=1.0, seed=5)
    lam = constraint_process(pr, path)
    assert path.metadata["max_constraint_violation"] == np.abs(lam).max()
    assert path.metadata["max_constraint_violation"] < 1e-2


def test_m3_ensemble_completes():
    pr = mixed_3d_problem()
    ens = run_ensemble(build_index1_sde(pr), pr.init_point(), 1e-3, 0.05, 4, 7, chunk=3)
    assert all(p.status.completed for p in ens.paths)
    for p in ens.paths:
        assert np.isfinite(p.states).all()
        assert np.abs(constraint_process(pr, p)).max() < 1e-3


class TestPreconditions:
    def test_high_index_rejected_citing_dug(self):
        with pytest.raises(MethodPreconditionError, match="D_u g"):
            build_index1_sde(builtin("paper-example"))

    def test_inconsistent_init_rejected(self):
        pr = builtin("linear-index1")
        pr.u0_guess = np.array([1.5])  # g(x0,u0) = 0.5
        with pytest.raises(MethodPreconditionError, match="initial condition"):
            solve_index1(pr, dt=1e-3, T=0.1, seed=1)

    def test_singular_start(self):
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("x1")], sigma=[[parse("0.1")]],
            g=[parse("u1^2 - x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        with pytest.raises(SingularReductionError):
            build_index1_sde(pr)

    def test_m_not_equal_p(self):
        pr = SdaeProblem(
            n=1, m=2, p=1, d=1,
            f=[parse("u1")], sigma=[[parse("u2")]],
            g=[parse("u1 + u2 - x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0, 0.0],
        )
        with pytest.raises(DimensionMismatchError):
            build_index1_sde(pr)


def test_guard_trips_mid_integration():
    # g = 1e-7*(u1^2 - x1) drives u = sqrt(1 - t) through the guard as
    # det D_u g = 2e-7*u decays past SINGULAR_TOL = 1e-8 at u = 0.05
    pr = SdaeProblem(
        n=1, m=1, p=1, d=1,
        f=[parse("-1")], sigma=[[parse("0")]],
        g=[parse("1e-7*(u1^2 - x1)")], gamma=[[parse("0")]],
        x0=[1.0], u0_guess=[1.0],
    )
    sde = build_index1_reduction(pr).sde()
    path = euler_maruyama(sde, pr.init_point(), 1e-3, 2.0, np.zeros((2000, 1)))
    assert path.status.kind.value == "singular-reduction"
    # truncated just as 2*u crossed 0.1, where det D_u g crosses the guard
    assert abs(2.0 * path.column("u1")[-1]) <= 0.1 + 1e-3
