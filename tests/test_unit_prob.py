"""Characteristic-map reduction: coefficient formulas, identities, band tracking."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import bisect_root
from sdaekit.errors import (
    MethodPreconditionError,
    NewtonDivergenceError,
    SpecInvalidError,
)
from sdaekit.expr import CompiledVector, evaluate, make_env, parse
from sdaekit.integrator import derive_seed
from sdaekit.problem import SdaeProblem, builtin
from sdaekit.stats import run_ensemble
from sdaekit.unit_prob import (
    CharacteristicSpec,
    build_unit_prob_sde,
    consistent_init,
    paper_example_spec,
    solve_unit_prob,
    validate_characteristic,
)

EPS = 0.25


@pytest.fixture(scope="module")
def reduction():
    return build_unit_prob_sde(builtin("paper-example"), paper_example_spec(EPS))


def random_xu(count, seed):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-0.5, 0.5, count)  # keep 2 - 3 x1^2 away from zero
    x2 = rng.uniform(-5, 5, count)
    u = rng.uniform(-2, 2, count)
    return np.stack([x1, x2, u], axis=1)


class TestCoefficients:
    def test_b_matches_closed_form(self, reduction):
        pts = random_xu(100, 1)
        B = reduction.b_values(pts)
        ref = -0.8 * math.pi * (1 + pts[:, 2] ** 2) / EPS
        assert np.abs(B[:, 0, 0] - ref).max() <= 1e-12
        assert np.abs(B[:, 0, 1]).max() == 0.0

    def test_b_scales_inversely_with_epsilon(self, reduction):
        pts = random_xu(50, 2)
        halved = build_unit_prob_sde(builtin("paper-example"), paper_example_spec(EPS / 2))
        ratio = halved.b_values(pts)[:, 0, 0] / reduction.b_values(pts)[:, 0, 0]
        np.testing.assert_allclose(ratio, 2.0, rtol=1e-12)

    def test_noise_annihilation(self, reduction):
        pts = random_xu(100, 3)
        assert np.abs(reduction.noise_residual(pts)).max() <= 1e-10

    def test_frozen_drift_residual(self, reduction):
        pts = random_xu(100, 4)
        assert np.abs(reduction.frozen_drift_residual(pts)).max() <= 1e-10

    def test_noise_free_degeneration(self):
        # sigma = 0: B = 0, Lambda = 0, a = ((Dg)Dvy)^{-1}((Dg)f)
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("x1 + u1")], sigma=[[parse("0")]],
            g=[parse("x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        spec = CharacteristicSpec(y=[parse("0.1*atan(u1)")], epsilon=0.2)
        red = build_unit_prob_sde(pr, spec)
        pts = np.stack([np.linspace(-1, 1, 20), np.linspace(-2, 2, 20)], axis=1)
        assert np.abs(red.b_values(pts)).max() == 0.0
        assert np.abs(red.lambda_values(pts)).max() == 0.0
        # a = (f) / (dy/du) evaluated along the points
        a = red.a_values(pts)
        dy = 0.1 / (1 + pts[:, 1] ** 2)
        np.testing.assert_allclose(a[:, 0], (pts[:, 0] + pts[:, 1]) / dy, rtol=1e-12)


class TestValidation:
    def test_paper_spec_validates(self):
        validate_characteristic(builtin("paper-example"), paper_example_spec(EPS))

    def test_band_violation_detected(self):
        pr = builtin("paper-example")
        bad = CharacteristicSpec(y=[parse("-(1.0)*atan(u1)"), parse("0")], epsilon=0.25)
        with pytest.raises(SpecInvalidError, match="epsilon"):
            validate_characteristic(pr, bad)

    def test_wrong_arity_rejected(self):
        pr = builtin("paper-example")
        with pytest.raises(SpecInvalidError, match="components"):
            validate_characteristic(pr, CharacteristicSpec(y=[parse("u1")], epsilon=0.1))

    def test_x_variables_rejected_in_y(self):
        pr = builtin("paper-example")
        with pytest.raises(SpecInvalidError, match="x1"):
            validate_characteristic(
                pr, CharacteristicSpec(y=[parse("x1"), parse("0")], epsilon=0.1)
            )

    def test_nan_gain_det_refused_without_warning(self):
        # d/du1 of u1*sqrt(u1^2) is 0 + 0 * 0/0 = nan at the initial u1 = 0
        pr = builtin("paper-example")
        spec = CharacteristicSpec(y=[parse("0.001*u1*sqrt(u1^2)"), parse("0")], epsilon=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecInvalidError, match=r"singular at the initial v \(det = nan\)"):
                validate_characteristic(pr, spec, box=[(-1.0, 1.0)], grid_per_dim=11)

    def test_index1_problem_rejected(self):
        with pytest.raises(MethodPreconditionError):
            build_unit_prob_sde(builtin("linear-index1"), paper_example_spec(EPS))

    def test_nonzero_gamma_requires_suspension(self):
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("u1")], sigma=[[parse("0.1")]],
            g=[parse("x1")], gamma=[[parse("1")]],
            x0=[0.0], u0_guess=[0.0],
        )
        with pytest.raises(MethodPreconditionError, match="suspend"):
            build_unit_prob_sde(pr, CharacteristicSpec(y=[parse("0.01*atan(u1)")], epsilon=0.1))


class TestConsistentInit:
    def test_paper_example_root_at_zero(self):
        u0 = consistent_init(paper_example_spec(EPS), builtin("paper-example"))
        np.testing.assert_allclose(u0, [0.0], atol=1e-12)

    def test_odd_cubic_root(self):
        # y = small odd map against the cubic constraint: root at v = 0
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("u1")], sigma=[[parse("0.1")]],
            g=[parse("2*x1 - x1^3")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        spec = CharacteristicSpec(y=[parse("0.01*(u1^3 + u1)")], epsilon=0.5)
        u0 = consistent_init(spec, pr, u_guess=np.array([0.4]))
        assert abs(u0[0]) <= 1e-10
        # oracle: bisection on the composed residual
        comp = spec.composed_constraint(pr)[0]
        root = bisect_root(lambda v: evaluate(comp, {"u1": v}), -0.5, 0.5)
        assert abs(u0[0] - root) <= 1e-8

    def test_divergence_from_bad_guess(self):
        # composed residual 0.001 (v^3 - 2v + 2): Newton two-cycles 0 -> 1 -> 0
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("u1")], sigma=[[parse("0.1")]],
            g=[parse("x1")], gamma=[[parse("0")]],
            x0=[0.0], u0_guess=[0.0],
        )
        spec = CharacteristicSpec(y=[parse("0.001*(u1^3 - 2*u1 + 2)")], epsilon=0.2)
        with pytest.raises(NewtonDivergenceError) as ei:
            consistent_init(spec, pr, u_guess=np.array([0.0]))
        assert ei.value.iterations == 50

    def test_flat_characteristic_hits_singular_jacobian(self):
        # far out on a saturating map the Jacobian flattens below the guard
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("u1")], sigma=[[parse("0.1")]],
            g=[parse("x1 - 0.05")], gamma=[[parse("0")]],
            x0=[0.05], u0_guess=[0.0],
        )
        spec = CharacteristicSpec(y=[parse("0.1*atan(u1)")], epsilon=0.2)
        from sdaekit.errors import SingularJacobianError

        with pytest.raises((NewtonDivergenceError, SingularJacobianError)):
            consistent_init(spec, pr, u_guess=np.array([80.0]))


class TestSolve:
    def test_band_holds_along_alive_steps(self):
        pr = builtin("paper-example")
        path = solve_unit_prob(pr, paper_example_spec(EPS), 1e-4, 0.2, seed=11)
        assert path.metadata["sup_constraint_norm"] < EPS + 0.05
        assert path.metadata["fraction_inside_band"] >= 0.99

    def test_stiffness_warning_for_tiny_epsilon(self):
        pr = builtin("paper-example")
        with pytest.warns(UserWarning, match="dt"):
            solve_unit_prob(pr, paper_example_spec(1e-6), 1e-4, 1e-3, seed=0)

    def test_z_invariance_short_horizon(self):
        # the frozen-field identity g(x_k) = g(y(u_k)) at discretisation level,
        # checked while the explicit scheme resolves the stiff algebraic noise
        # (|B|^2 dt within the stiffness budget); past that point the step no
        # longer shadows the continuous process at all
        pr = builtin("paper-example")
        spec = paper_example_spec(EPS)
        red = build_unit_prob_sde(pr, spec)
        z0 = CompiledVector(spec.composed_constraint(pr))
        g_fn = CompiledVector(pr.g)
        dt = 1e-5
        init = np.concatenate([pr.x0, consistent_init(spec, pr)])
        ens = run_ensemble(red.sde(), init, dt, 0.02, 10, 77, chunk=10)
        checked = 0
        for p in ens.paths:
            B = red.b_values(p.states)
            resolved = (B**2).sum(axis=(1, 2)) * dt <= 0.1
            cut = len(p) if resolved.all() else int(np.argmin(resolved))
            if cut < 2:
                continue
            env = {lab: p.states[:cut, i] for i, lab in enumerate(p.labels)}
            g_vals = g_fn(env, (cut,))[:, 0]
            z_vals = z0({"u1": p.states[:cut, 2]}, (cut,))[:, 0]
            assert np.abs(g_vals - z_vals).max() <= 3.0 * math.sqrt(dt)
            checked += cut
        assert checked > 1000  # the check covered a substantial stretch

    def test_explosion_is_counted_not_raised(self):
        # the arctan characteristic has finite-time blow-up of u; paths truncate
        pr = builtin("paper-example")
        path = solve_unit_prob(pr, paper_example_spec(EPS), 1e-5, 0.5, seed=0)
        assert not path.status.completed  # truncated, no exception
        assert path.metadata["fraction_inside_band"] >= 0.99


class TestBandExit:
    def test_path_thrown_off_the_chart_ends_at_its_band_exit(self):
        """Seed 24's path 242 of the benchmark's unitprob-window run nears u =
        49, where (Dg) D_v y is 1.6e-5, above the singular guard; one step then
        throws u to -3.5 and x off the characteristic.  It ends at the first
        grid point with |g| >= eps instead of running on as completed."""
        pr = builtin("paper-example")
        path = solve_unit_prob(pr, paper_example_spec(EPS), 1e-5, 0.1, derive_seed(24, 242))
        assert str(path.status) == "band-exit@8925"
        assert len(path) == 8926 and path.dW.shape == (8925, pr.d)
        g = np.abs(pr.constraint_kernel(pr.labels)(path.states)["g"][:, 0])
        assert g[-1] >= EPS and (g[:-1] < EPS).all()

    def test_paths_inside_the_band_keep_their_bits(self):
        """The band check only truncates: a path that never leaves the band
        equals the same path integrated without the check."""
        pr = builtin("paper-example")
        spec = paper_example_spec(EPS)
        sde = build_unit_prob_sde(pr, spec).sde()
        init = np.concatenate([pr.x0, consistent_init(spec, pr)])
        ens = run_ensemble(sde, init, 1e-5, 0.02, 8, 7, chunk=8)
        plain = run_ensemble(replace(sde, outside=None), init, 1e-5, 0.02, 8, 7, chunk=8)
        for a, b in zip(ens.paths, plain.paths, strict=True):
            assert str(a.status) == str(b.status) and not str(a.status).startswith("band-exit")
            assert a.states.tobytes() == b.states.tobytes()


# Exact statuses of the criterion-4 ensemble (seed 2024, dt = 1e-5, T = 0.5,
# 20 paths).  Every path stops on the singular guard: the arctan
# characteristic's bounded range is outrun by the x1 noise.  A change in
# survival, or in any truncation step, is a change in the paths.
CRITERION_4_STATUSES = [
    "singular-reduction@1730", "singular-reduction@11415", "singular-reduction@2323",
    "singular-reduction@19355", "singular-reduction@4106", "singular-reduction@9004",
    "singular-reduction@3105", "singular-reduction@12237", "singular-reduction@15245",
    "singular-reduction@15174", "singular-reduction@6684", "singular-reduction@2612",
    "singular-reduction@4623", "singular-reduction@6713", "singular-reduction@3079",
    "singular-reduction@882", "singular-reduction@6617", "singular-reduction@7575",
    "singular-reduction@3643", "singular-reduction@3221",
]


def _paper_ensemble(dt, T, paths, seed, chunk):
    pr = builtin("paper-example")
    spec = paper_example_spec(EPS)
    red = build_unit_prob_sde(pr, spec)
    init = np.concatenate([pr.x0, consistent_init(spec, pr)])
    return run_ensemble(red.sde(), init, dt, T, paths, seed, chunk=chunk)


def test_criterion_4_path_statuses_pinned():
    ens = _paper_ensemble(1e-5, 0.5, 20, 2024, chunk=20)
    assert [str(p.status) for p in ens.paths] == CRITERION_4_STATUSES


def test_ensemble_bitwise_invariant_to_chunk_size():
    a = _paper_ensemble(1e-5, 0.02, 10, 7, chunk=3)
    b = _paper_ensemble(1e-5, 0.02, 10, 7, chunk=10)
    assert {p.status.completed for p in a.paths} == {True, False}  # both kinds covered
    for pa, pb in zip(a.paths, b.paths, strict=True):
        assert str(pa.status) == str(pb.status)
        assert pa.states.tobytes() == pb.states.tobytes()
        assert pa.dW.tobytes() == pb.dW.tobytes()

