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
from sdaekit.integrator import euler_maruyama, wiener_increments
from sdaekit.problem import SdaeProblem, builtin


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


INDEX1_PROBLEMS = [
    builtin("linear-index1"),
    pinned_u_problem(),
    mixed_2d_problem(),
    contraction_example(),
    curved_u_problem(),
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
def mixed_block_problems(draw):
    """Index-1 problems whose rows each have a random subset of non-zero
    D2_xx, D2_uu and D2_xu blocks; D_u g stays near the identity on [-1, 1]."""
    n, m, d = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
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
