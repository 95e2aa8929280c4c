"""Noise generation, the Euler-Maruyama engine, and constraint tracking."""

import collections
import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import newton_batch_reference, usable_cpus
from sdaekit import integrator
from sdaekit.bounded import BoundedMConfig, SolveMode, _bounded_setup
from sdaekit.expr import parse
from sdaekit.index1 import index1_setup
from sdaekit.integrator import (
    AugmentedSde,
    PathStatus,
    SamplePath,
    StatusKind,
    constraint_process,
    derive_seed,
    euler_maruyama,
    n_steps,
    wiener_increments,
    write_path_csv,
)
from sdaekit.picard import picard_setup, picard_solve
from sdaekit.problem import SdaeProblem, builtin
from sdaekit.stats import run_ensemble
from sdaekit.unit_prob import build_unit_prob_sde, consistent_init, paper_example_spec


def const_sde(dim, d, drift_val, diff_matrix, labels=None, guard=None):
    drift_vec = np.asarray(drift_val, dtype=float)
    diff = np.asarray(diff_matrix, dtype=float)

    def drift(x):
        return np.broadcast_to(drift_vec, x.shape).copy()

    def diffusion(x):
        return np.broadcast_to(diff, x.shape[:-1] + (dim, d)).copy()

    return AugmentedSde(
        dim=dim,
        d=d,
        labels=labels or tuple(f"x{i+1}" for i in range(dim)),
        drift=drift,
        diffusion=diffusion,
        guard=guard,
    )


class TestWiener:
    def test_deterministic(self):
        a = wiener_increments(7, 4, 2, 0.01)
        b = wiener_increments(7, 4, 2, 0.01)
        assert a.shape == (4, 2)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        a = wiener_increments(7, 4, 2, 0.01)
        c = wiener_increments(8, 4, 2, 0.01)
        assert not np.array_equal(a, c)

    def test_moments(self):
        dt = 1e-3
        z = wiener_increments(12345, 10**6, 1, dt).ravel()
        assert abs(z.mean()) < 4.0 * math.sqrt(dt / 1e6)
        assert abs(z.var() - dt) < 0.01 * dt

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(42, k) for k in range(1000)}
        assert len(seeds) == 1000

    def test_d_zero(self):
        assert wiener_increments(1, 5, 0, 0.1).shape == (5, 0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            wiener_increments(1, 0, 1, 0.1)
        with pytest.raises(ValueError):
            wiener_increments(1, 5, 1, 0.0)
        for dt in (math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                wiener_increments(1, 3, 1, dt)

    @pytest.mark.parametrize("T, dt", [
        (1.0, math.nan), (math.nan, 0.1), (1.0, -0.1), (math.inf, 0.1), (1.0, math.inf),
    ])
    def test_n_steps_rejects_nan_inf_and_nonpositive(self, T, dt):
        with pytest.raises(ValueError, match="T and dt must be positive and finite"):
            n_steps(T, dt)


def _counter_uniforms(seed, count):
    """The uniforms behind ``wiener_increments(seed, count, 1, dt)``."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = integrator._mix64(np.uint64(seed) + idx * np.uint64(integrator._GOLDEN))
    return integrator._uniforms(z)


# counters 0 and 2^64 - 1 give the smallest and largest uniform, 2^-53 and
# 1 - 2^-53; 2^12 and 2^64 - 2^12 - 1 are their neighbours on the grid
EXTREME_COUNTERS = np.array([0, 2**12, 2**64 - 2**12 - 1, 2**64 - 1], dtype=np.uint64)
# uniforms from 2^-53 to 1/2 on both sides, through the far tail (u < 1.4e-11)
TAIL_COUNTERS = np.array([2**e for e in range(11, 64)] + [2**64 - 2**e for e in range(11, 64)],
                         dtype=np.uint64)


class TestNormalGenerator:
    def test_increments_are_scaled_counter_normals(self):
        want = integrator._ndtri(_counter_uniforms(21, 500)) * math.sqrt(0.04)
        assert wiener_increments(21, 500, 1, 0.04).ravel().tobytes() == want.tobytes()

    def test_moments_of_a_million_normals(self):
        n = 10**6
        z = wiener_increments(2024, n, 1, 1.0).ravel()
        # standard errors of the sample mean, variance and 4th moment of
        # N(0, 1), whose 4th and 8th moments are 3 and 105
        assert abs(z.mean()) < 5.0 * math.sqrt(1.0 / n)
        assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
        assert abs(np.mean(z**4) - 3.0) < 5.0 * math.sqrt(96.0 / n)

    def test_uniforms_lie_strictly_inside_the_unit_interval(self):
        u = integrator._uniforms(EXTREME_COUNTERS)
        assert u.tolist() == [2.0**-53, 3 * 2.0**-53, 1 - 3 * 2.0**-53, 1 - 2.0**-53]

    def test_extreme_counters_give_finite_normals(self):
        z = integrator._ndtri(integrator._uniforms(EXTREME_COUNTERS))
        assert np.all(np.isfinite(z))
        assert z[0] == -z[3] and z[1] == -z[2] and -8.3 < z[0] < z[1] < -8.0

    def test_transform_is_odd_bitwise(self):
        rng = np.random.default_rng(3)
        z = np.concatenate([
            EXTREME_COUNTERS,
            np.arange(0, 2**64 - 1, 2**48, dtype=np.uint64),
            rng.integers(0, 2**64 - 1, 10**5, dtype=np.uint64, endpoint=True),
        ])
        u, mirror = integrator._uniforms(z), integrator._uniforms(~z)
        assert np.all(u + mirror == 1.0)
        assert np.all(1.0 - u == mirror)
        np.testing.assert_array_equal(
            integrator._ndtri(mirror).view(np.uint64),
            (-integrator._ndtri(u)).view(np.uint64),
        )

    def test_agrees_with_the_stdlib_as241(self):
        u = np.concatenate([_counter_uniforms(5, 2 * 10**5), integrator._uniforms(EXTREME_COUNTERS),
                            integrator._uniforms(TAIL_COUNTERS)])
        got = integrator._ndtri(u)
        ref = np.array([statistics.NormalDist().inv_cdf(v) for v in u.tolist()])
        central = np.abs(u - 0.5) <= 0.425
        # the central rational is plain arithmetic: the same bits
        np.testing.assert_array_equal(got[central], ref[central])
        # the tails go through np.log, which may round apart from libm's log
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))

    def test_agrees_with_scipy_ndtri(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        u = np.concatenate([_counter_uniforms(7, 2 * 10**6), integrator._uniforms(EXTREME_COUNTERS),
                            integrator._uniforms(TAIL_COUNTERS)])
        want = ndtri(u)
        assert np.all(np.abs(integrator._ndtri(u) - want) <= 8 * np.spacing(np.abs(want)))

    def test_cli_import_pulls_in_no_scipy(self):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
        code = "import sys, sdaekit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestEulerMaruyama:
    def test_deterministic_ramp(self):
        sde = const_sde(1, 1, [1.0], [[0.0]])
        inc = np.zeros((10, 1))
        path = euler_maruyama(sde, [0.0], 0.1, 1.0, inc)
        np.testing.assert_allclose(path.states[:, 0], np.arange(11) * 0.1, atol=1e-15)
        assert path.status.completed
        assert path.t_grid[3] == 3 * 0.1  # exactly k*dt

    def test_pure_noise_cumsums_increments(self):
        sde = const_sde(2, 2, [0.0, 0.0], np.eye(2))
        inc = wiener_increments(3, 50, 2, 0.01)
        path = euler_maruyama(sde, [0.0, 0.0], 0.01, 0.5, inc)
        want = np.vstack([np.zeros(2), np.cumsum(inc, axis=0)])
        np.testing.assert_array_equal(path.states, want)

    def test_bitwise_reproducibility(self):
        sde = const_sde(1, 1, [0.5], [[0.7]])
        inc = wiener_increments(99, 100, 1, 0.01)
        p1 = euler_maruyama(sde, [1.0], 0.01, 1.0, inc, seed=99)
        p2 = euler_maruyama(sde, [1.0], 0.01, 1.0, inc, seed=99)
        assert p1.states.tobytes() == p2.states.tobytes()
        assert p1.dW.tobytes() == p2.dW.tobytes()

    def test_order_one_on_linear_ode(self):
        # dX = -X dt, deterministic: halving dt halves the terminal error
        def err(dt):
            dim_sde = AugmentedSde(
                dim=1, d=0, labels=("x1",),
                drift=lambda x: -x,
                diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 0)),
            )
            inc = np.zeros((n_steps(1.0, dt), 0))
            path = euler_maruyama(dim_sde, [1.0], dt, 1.0, inc)
            return abs(path.states[-1, 0] - math.exp(-1.0))

        ratio = err(1e-3) / err(5e-4)
        assert 1.6 <= ratio <= 2.4

    def test_domain_error_truncates(self):
        sde = AugmentedSde(
            dim=1, d=0, labels=("x1",),
            drift=lambda x: np.where(x > 1.5, np.nan, 1.0) * np.ones_like(x),
            diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 0)),
        )
        path = euler_maruyama(sde, [0.0], 1.0, 10.0, np.zeros((10, 0)))
        assert path.status.kind is StatusKind.DOMAIN_ERROR
        assert len(path) == path.status.step + 1
        assert np.isfinite(path.states).all()

    def test_singular_guard_truncates(self):
        sde = const_sde(1, 0, [1.0], np.zeros((1, 0)))
        sde.guard = lambda x: (x[:, 0] < 0.35)
        path = euler_maruyama(sde, [0.0], 0.1, 1.0, np.zeros((10, 0)))
        assert path.status.kind is StatusKind.SINGULAR_REDUCTION
        assert path.states[-1, 0] < 0.45

    @pytest.mark.parametrize("init", [[0.0, 0.0, 0.0], [0.0]], ids=["3", "1"])
    def test_initial_state_length_rejected(self, init):
        sde = const_sde(2, 1, [0.0, 0.0], [[1.0], [0.0]])
        with pytest.raises(ValueError, match="must have dimension 2, got"):
            euler_maruyama(sde, init, 0.1, 1.0, np.zeros((10, 1)))

    def test_path_does_not_alias_caller_increments(self):
        sde = const_sde(1, 1, [0.0], [[1.0]])
        inc = wiener_increments(5, 10, 1, 0.1)
        path = euler_maruyama(sde, [0.0], 0.1, 1.0, inc)
        kept = path.dW.copy()
        inc[:] = 7.0
        assert not np.shares_memory(path.dW, inc)
        assert path.dW.tobytes() == kept.tobytes()

    def test_insufficient_increments_rejected(self):
        sde = const_sde(1, 1, [0.0], [[1.0]])
        with pytest.raises(ValueError):
            euler_maruyama(sde, [0.0], 0.1, 1.0, np.zeros((5, 1)))


class TestConstraintProcess:
    def test_zero_gamma_equals_pointwise_g(self):
        pr = builtin("paper-example")
        inc = wiener_increments(5, 100, 2, 0.01)
        sde = const_sde(3, 2, [0.1, 1.0, 0.0], [[0.2, 0], [0, 0], [0, 0]],
                        labels=("x1", "x2", "u1"))
        path = euler_maruyama(sde, [0.0, 0.0, 0.0], 0.01, 1.0, inc)
        lam = constraint_process(pr, path)
        x1, x2 = path.states[:, 0], path.states[:, 1]
        np.testing.assert_array_equal(lam[:, 0], 2 * x1 - x1 * x1 * x1 - 0.5 * np.sin(4 * x2))

    def test_noisy_constraint_telescopes(self):
        # g = x1, Gamma = [1], drift 0, sigma 0: lambda_k = x0 + W-sum
        pr = SdaeProblem(
            n=1, m=1, p=1, d=1,
            f=[parse("0")], sigma=[[parse("0")]],
            g=[parse("x1")], gamma=[[parse("1")]],
            x0=[2.0], u0_guess=[0.0],
        )
        sde = const_sde(2, 1, [0.0, 0.0], [[0.0], [0.0]], labels=("x1", "u1"))
        inc = wiener_increments(11, 50, 1, 0.02)
        path = euler_maruyama(sde, [2.0, 0.0], 0.02, 1.0, inc)
        lam = constraint_process(pr, path)
        want = 2.0 + np.concatenate([[0.0], np.cumsum(inc[:, 0])])
        np.testing.assert_allclose(lam[:, 0], want, rtol=0, atol=1e-15)

    def test_missing_coordinate_rejected(self):
        pr = builtin("paper-example")
        sde = const_sde(1, 2, [0.0], [[0.0, 0.0]], labels=("x1",))
        path = euler_maruyama(sde, [0.0], 0.1, 0.5, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="x2"):
            constraint_process(pr, path)


def test_path_csv_format(tmp_path):
    sde = const_sde(1, 1, [1.0], [[0.5]], labels=("x1",))
    inc = wiener_increments(1, 5, 1, 0.1)
    path = euler_maruyama(sde, [0.0], 0.1, 0.5, inc, seed=1)
    lam = np.zeros((len(path), 1))
    out = tmp_path / "path.csv"
    with open(out, "w") as fh:
        write_path_csv(path, lam, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,lambda1,status"
    assert len(lines) == len(path) + 1
    assert lines[1].endswith("completed")
    # 17 significant digits survive a float round-trip
    cell = lines[2].split(",")[1]
    assert float(cell) == path.states[1, 0]


def _per_cell_path_csv(path, lam, fh):
    """The per-cell formatter write_path_csv replaced, kept as the byte reference."""
    p = lam.shape[1]
    header = ["t", *path.labels, *[f"lambda{i + 1}" for i in range(p)], "status"]
    fh.write(",".join(header) + "\n")
    status = str(path.status)
    for k in range(len(path)):
        cells = [f"{path.t_grid[k]:.17g}"]
        cells += [f"{v:.17g}" for v in path.states[k]]
        cells += [f"{v:.17g}" for v in lam[k]]
        cells.append(status)
        fh.write(",".join(cells) + "\n")


@pytest.mark.parametrize("rows", [1, 7, 5000])
def test_path_csv_bytes_match_per_cell_formatter(rows):
    import io

    rng = np.random.default_rng(rows)
    states = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e16, 0.1]
    flat = states.ravel()
    flat[: len(special)] = special[: flat.size]
    lam = rng.normal(size=(rows, 2))
    lam[0] = [-0.0, math.nan]
    path = SamplePath(
        dt=0.1, t_grid=np.arange(rows) * 0.1, states=states, dW=np.zeros((rows - 1, 1)),
        seed=1, status=PathStatus(StatusKind.DOMAIN_ERROR, rows - 1),
        labels=("x1", "x2", "u1"),
    )
    want, got = io.StringIO(), io.StringIO()
    _per_cell_path_csv(path, lam, want)
    write_path_csv(path, lam, got)
    assert got.getvalue() == want.getvalue()


class TestProjection:
    """The engine's projection hook, on dx = dW with u pinned to 2x."""

    def sde(self, singular_above=None):
        def both(points):
            return None, np.zeros(points.shape[:-1] + (1,)), np.ones(points.shape[:-1] + (1, 1))

        def project(state):
            u = 2.0 * state[:, :1]
            converged = np.abs(state[:, 0]) < 10.0
            singular = np.zeros(len(state), dtype=bool)
            if singular_above is not None:
                singular = state[:, 0] > singular_above
            return u, converged & ~singular, singular, np.full(len(state), 3)

        return AugmentedSde(dim=2, d=1, labels=("x1", "u1"), both=both, project=project)

    def test_project_fills_the_remaining_columns(self):
        inc = wiener_increments(3, 20, 1, 0.01)
        path = euler_maruyama(self.sde(), [0.0, 0.0], 0.01, 0.2, inc)
        assert path.status.completed
        np.testing.assert_array_equal(path.states[1:, 1], 2.0 * path.states[1:, 0])
        np.testing.assert_array_equal(path.states[:, 0], np.concatenate([[0.0], np.cumsum(inc[:, 0])]))
        assert path.metadata["newton_iterations"] == 3 * 20

    def test_singular_projection_ends_the_path(self):
        inc = np.full((10, 1), 0.1)
        path = euler_maruyama(self.sde(singular_above=0.25), [0.0, 0.0], 0.1, 1.0, inc)
        assert str(path.status) == "singular-reduction@2"
        assert len(path) == 3
        assert path.metadata["newton_iterations"] == 3 * 3

    def test_unconverged_projection_is_a_domain_error(self):
        inc = np.full((10, 1), 4.0)
        path = euler_maruyama(self.sde(), [0.0, 0.0], 0.1, 1.0, inc)
        assert str(path.status) == "domain-error@2"  # |x| reaches 12 at step 2
        np.testing.assert_array_equal(path.states[-1], [8.0, 16.0])

    def test_outside_ends_a_path_at_its_first_marked_point(self):
        """dx = dW with increments 0.1: x = 0.1 k, marked outside from 0.35, so
        the path ends band-exit at grid point 4; a path that ended earlier on
        its projection (x > 0.25 singular at step 2) keeps its status."""
        inc = np.full((10, 1), 0.1)

        def outside(states):
            return states[:, 0] > 0.35

        sde = replace(self.sde(), outside=outside)
        path = euler_maruyama(sde, [0.0, 0.0], 0.1, 1.0, inc)
        assert str(path.status) == "band-exit@4" and len(path) == 5
        np.testing.assert_allclose(path.states[:, 0], 0.1 * np.arange(5), rtol=1e-12)
        whole = euler_maruyama(self.sde(), [0.0, 0.0], 0.1, 1.0, inc)
        assert path.states.tobytes() == whole.states[:5].tobytes()
        ended = euler_maruyama(replace(self.sde(singular_above=0.25), outside=outside),
                               [0.0, 0.0], 0.1, 1.0, inc)
        assert str(ended.status) == "singular-reduction@2"

    def test_without_projection_no_iterations_are_recorded(self):
        sde = const_sde(1, 1, [0.0], [[1.0]])
        path = euler_maruyama(sde, [0.0], 0.1, 0.5, np.zeros((5, 1)))
        assert "newton_iterations" not in path.metadata


# ---------------------------------------------------------------------------
# The step loop's bookkeeping: it steps the live rows only, and a path that
# ends is dropped from every per-row array.  A single path is never dropped
# from a batch of others, so a batch whose paths end at different steps must
# still equal each path alone.
# ---------------------------------------------------------------------------

BATCH_DT = 0.01


def ending_sde():
    """dx = -x dt + dW on columns (t, z, x, u), with u projected onto 2x.

    t counts time and z keeps the first increment, dW_0 ~ N(0, 0.01), which
    picks the path's end: z < -0.1 fails the guard at step 7, z in (-0.1,
    -0.05) gives a nan drift at step 11, z in (0.05, 0.1) leaves the
    projection unconverged at step 14 and z > 0.1 makes it singular at step
    18 (the projection sees the stepped t).  Other paths complete.
    """
    dt = BATCH_DT

    def both(points):
        t, z, x = points[:, 0], points[:, 1], points[:, 2]
        drift = np.zeros((len(points), 3))
        drift[:, 0] = 1.0
        drift[:, 2] = np.where((z > -0.1) & (z < -0.05) & (t > 10.5 * dt), np.nan, -x)
        diffusion = np.zeros((len(points), 3, 1))
        diffusion[:, 1, 0] = t < 0.5 * dt
        diffusion[:, 2, 0] = 1.0
        return ~((z < -0.1) & (t > 6.5 * dt)), drift, diffusion

    def project(state):
        t, z, x = state[:, 0], state[:, 1], state[:, 2]
        singular = (z > 0.1) & (t > 18.5 * dt)
        converged = ~((z > 0.05) & (z < 0.1) & (t > 14.5 * dt)) & ~singular
        return 2.0 * state[:, 2:3], converged, singular, np.where(x > 0.0, 2, 3)

    return AugmentedSde(dim=4, d=1, labels=("t", "z", "x1", "u1"), both=both, project=project)


def assert_batch_equals_single(sde, init, ens):
    steps = n_steps(ens.T, ens.dt)
    for path in ens.paths:
        inc = wiener_increments(path.seed, steps, sde.d, ens.dt)
        single = euler_maruyama(sde, init, ens.dt, ens.T, inc, seed=path.seed)
        assert str(single.status) == str(path.status)
        assert single.states.tobytes() == path.states.tobytes()
        assert single.dW.tobytes() == path.dW.tobytes()
        assert single.metadata.get("newton_iterations") == path.metadata.get("newton_iterations")


def index1_sqrt_problem():
    """dx = -x dt + 0.3 dW with u = 1/sqrt(x): D_u g = sqrt(x1) is nan once
    x1 < 0, so a path that crosses 0 ends singular at its next step."""
    return SdaeProblem(
        n=1, m=1, p=1, d=1,
        f=[parse("-x1")], sigma=[[parse("0.3")]],
        g=[parse("u1 * sqrt(x1) - 1")], gamma=[[parse("0")]],
        x0=[0.1], u0_guess=[10.0 ** 0.5],
    )


class TestBatchEqualsSingle:
    def test_paths_ended_by_guard_drift_and_projection(self):
        sde = ending_sde()
        init = np.zeros(4)
        ens = run_ensemble(sde, init, BATCH_DT, 0.3, 24, 5, chunk=24)
        assert {str(p.status) for p in ens.paths} == {
            "completed", "singular-reduction@7", "domain-error@11",
            "domain-error@14", "singular-reduction@18",
        }
        assert_batch_equals_single(sde, init, ens)

    def test_index1(self):
        pr = index1_sqrt_problem()
        sde, init = index1_setup(pr)
        ens = run_ensemble(sde, init, 1e-3, 0.3, 16, 3, chunk=16, problem=pr)
        ended = [p.status.step for p in ens.paths if not p.status.completed]
        assert {p.status.kind for p in ens.paths} == {
            StatusKind.COMPLETED, StatusKind.SINGULAR_REDUCTION,
        }
        assert sorted(ended) == [64, 68, 93, 144, 155, 184, 186]
        assert_batch_equals_single(sde, init, ens)

    def test_unit_prob_criterion_4_setup(self):
        pr = builtin("paper-example")
        spec = paper_example_spec(0.25)
        init = np.concatenate([pr.x0, consistent_init(spec, pr)])
        sde = build_unit_prob_sde(pr, spec).sde()
        ens = run_ensemble(sde, init, 1e-5, 0.035, 20, 2024, chunk=20)
        ended = [p.status.step for p in ens.paths if not p.status.completed]
        assert sorted(ended) == [882, 1730, 2323, 2612, 3079, 3105, 3221]
        assert_batch_equals_single(sde, init, ens)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 3, 8])
    @pytest.mark.parametrize("name, sweeps", [("linear-index1", [19, 21]),
                                              ("noisy-2x2", [19, 20, 21])])
    def test_picard_paths_converging_after_different_sweep_counts(self, name, sweeps, chunk,
                                                                  cpus):
        """A path leaves the sweeps once its delta meets tol, so the later
        sweeps of its batch change none of its bits: each path of the
        ensemble equals picard_solve on its seed alone."""
        pr = builtin(name) if name == "linear-index1" else picard_2x2_problem()
        sde, init = picard_setup(pr)
        with usable_cpus(cpus):
            ens = run_ensemble(sde, init, 1e-2, 0.5, 8, 9, chunk=chunk, problem=pr)
        singles = [picard_solve(pr, 1e-2, 0.5, seed=path.seed) for path in ens.paths]
        assert sorted({single.metadata["iterations"] for single in singles}) == sweeps
        for path, single in zip(ens.paths, singles, strict=True):
            assert path.status.completed and len(path) == 51
            assert path.states.tobytes() == single.states.tobytes()
            assert path.dW.tobytes() == single.dW.tobytes()
            assert path.t_grid.tobytes() == single.t_grid.tobytes()


# Routes by which a planned path ends, and the status each gives at its step
COMPLETES, BY_GUARD, BY_DRIFT, BY_SINGULAR, BY_UNCONVERGED, BY_BAND = range(6)
PLANNED_STATUS = {BY_GUARD: "singular-reduction", BY_DRIFT: "domain-error",
                  BY_SINGULAR: "singular-reduction", BY_UNCONVERGED: "domain-error",
                  BY_BAND: "band-exit"}


def planned_sde(zs, routes, whens, with_ahead, calls=None):
    """``ending_sde``'s columns (t, z, x, u), where each path ends as planned.

    z keeps the path's first increment, which names the path: the path
    whose z is ``zs[i]`` ends by ``routes[i]`` at step (or, for BY_BAND,
    grid point) ``whens[i]``.  Before step 0 every z is 0 and no path is
    named, so the guard and drift routes act from step 1 and BY_BAND from
    grid point 1; the projection sees the stepped z and acts from step 0.
    A BY_SINGULAR projection is unconverged as well, so singular must win.  With
    ``with_ahead`` the projection returns the next step's coefficients and
    ``both`` runs at step 0 only.  Each projection counts 2 iterations on a
    path with z > 0 and 3 on the others.  ``calls``, when given, collects
    (hook, step, rows) for every call of ``both`` and ``project``.
    """
    dt = BATCH_DT
    order = np.argsort(zs)
    zs, routes, whens = np.asarray(zs)[order], np.asarray(routes)[order], np.asarray(whens)[order]

    def plan(z, t, offset):
        """Each row's route, where it has reached its planned step."""
        i = np.minimum(np.searchsorted(zs, z), len(zs) - 1)
        return np.where((zs[i] == z) & (t > (whens[i] + offset) * dt), routes[i], COMPLETES)

    def coefficients(points):
        t, z, x = points[:, 0], points[:, 1], points[:, 2]
        route = plan(z, t, -0.5)
        drift = np.zeros((len(points), 3))
        drift[:, 0] = 1.0
        drift[:, 2] = np.where(route == BY_DRIFT, np.nan, -x)
        diffusion = np.zeros((len(points), 3, 1))
        diffusion[:, 1, 0] = t < 0.5 * dt
        diffusion[:, 2, 0] = 1.0
        return route != BY_GUARD, drift, diffusion

    def both(points):
        if calls is not None:
            calls.append(("both", round(points[0, 0] / dt), len(points)))
        return coefficients(points)

    def project(state):
        t, z = state[:, 0], state[:, 1]
        if calls is not None:
            calls.append(("project", round(t[0] / dt) - 1, len(state)))
        route = plan(z, t, 0.5)
        singular = route == BY_SINGULAR
        converged = (route != BY_UNCONVERGED) & ~singular
        u = 2.0 * state[:, 2:3]
        iters = np.where(z > 0.0, 2, 3)
        if not with_ahead:
            return u, converged, singular, iters
        filled = state.copy()
        filled[:, 3:] = u
        return u, converged, singular, iters, coefficients(filled)

    def outside(states):
        return plan(states[:, 1], states[:, 0], -0.5) == BY_BAND

    return AugmentedSde(dim=4, d=1, labels=("t", "z", "x1", "u1"), both=both,
                        project=project, outside=outside)


@st.composite
def ending_plans(draw):
    """(steps, [(route, when), ...]): each path's route and its step, drawn
    often at step 0, the last step and either side of a 64-step block edge."""
    steps = draw(st.integers(1, 140))
    plan = []
    for _ in range(draw(st.integers(1, 8))):
        route = draw(st.sampled_from(
            [COMPLETES, BY_GUARD, BY_DRIFT, BY_SINGULAR, BY_UNCONVERGED, BY_BAND]))
        lo = 0 if route in (BY_SINGULAR, BY_UNCONVERGED) else 1
        hi = steps if route == BY_BAND else steps - 1
        if route == COMPLETES or lo > hi:
            plan.append((COMPLETES, 0))
            continue
        edges = [v for v in (lo, hi, 63, 64, 65) if lo <= v <= hi]
        plan.append((route, draw(st.one_of(st.sampled_from(edges), st.integers(lo, hi)))))
    return steps, plan


def alive_by_step(plan):
    """(rows ``both`` sees at step k, rows ``project`` sees at step k) for a
    plan's paths in one batch: a path is dropped at its planned step, before
    the projection if its guard or drift ends it."""
    stepped = [when for route, when in plan if route in (BY_GUARD, BY_DRIFT)]
    projected = [when for route, when in plan if route in (BY_SINGULAR, BY_UNCONVERGED)]
    ends = stepped + projected

    def both(k):
        return len(plan) - sum(e < k for e in ends)

    def project(k):
        return both(k) - sum(e == k for e in stepped)

    return both, project


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, database=None)
@given(case=ending_plans(), base_seed=st.integers(0, 2**32), with_ahead=st.booleans())
@example(case=(70, [(BY_GUARD, 63), (BY_DRIFT, 64), (BY_SINGULAR, 64), (BY_UNCONVERGED, 0),
                    (BY_SINGULAR, 0), (BY_BAND, 70), (BY_UNCONVERGED, 69), (COMPLETES, 0)]),
         base_seed=5, with_ahead=False)
@example(case=(130, [(BY_GUARD, 64), (BY_GUARD, 64), (BY_UNCONVERGED, 63), (BY_DRIFT, 127),
                     (BY_SINGULAR, 128), (BY_BAND, 1), (COMPLETES, 0)]),
         base_seed=11, with_ahead=True)
def test_live_rows_keep_every_paths_bits(case, base_seed, with_ahead):
    """Paths that end at drawn steps by every route, several in one step,
    at step 0, at the last step and on both sides of a block edge: each path
    of the ensemble equals the path alone, at chunks of 1, 3 and one batch
    and at blocks of 1, 2, 3 and the default, and in one batch ``both`` and
    ``project`` see exactly the live rows."""
    steps, plan = case
    P = len(plan)
    T = steps * BATCH_DT
    assert n_steps(T, BATCH_DT) == steps
    zs = [wiener_increments(derive_seed(base_seed, k), 1, 1, BATCH_DT)[0, 0] for k in range(P)]
    routes, whens = [route for route, _ in plan], [when for _, when in plan]
    sde = planned_sde(zs, routes, whens, with_ahead)
    init = np.zeros(4)
    want = ["completed" if route == COMPLETES else f"{PLANNED_STATUS[route]}@{when}"
            for route, when in plan]
    projections = [when + 1 if route in (BY_SINGULAR, BY_UNCONVERGED)
                   else when if route in (BY_GUARD, BY_DRIFT) else steps
                   for route, when in plan]
    iters = [n * (2 if z > 0.0 else 3) for n, z in zip(projections, zs)]
    singles = [euler_maruyama(sde, init, BATCH_DT, T, wiener_increments(seed, steps, 1, BATCH_DT))
               for seed in (derive_seed(base_seed, k) for k in range(P))]
    assert [str(p.status) for p in singles] == want
    assert [p.metadata["newton_iterations"] for p in singles] == iters
    both_rows, project_rows = alive_by_step(plan)
    with usable_cpus(1):
        for block in (1, 2, 3, integrator._BLOCK):
            with mock.patch.object(integrator, "_BLOCK", block):
                for chunk in (1, 3, P):
                    ens = run_ensemble(sde, init, BATCH_DT, T, P, base_seed, chunk=chunk)
                    for path, single in zip(ens.paths, singles, strict=True):
                        assert str(path.status) == str(single.status)
                        assert path.states.tobytes() == single.states.tobytes()
                        assert path.dW.tobytes() == single.dW.tobytes()
                        assert path.metadata == single.metadata
                calls = []
                run_ensemble(planned_sde(zs, routes, whens, with_ahead, calls),
                             init, BATCH_DT, T, P, base_seed, chunk=P)
            assert [k for hook, k, _ in calls if hook == "project"] == [
                k for k in range(steps) if project_rows(k)]
            for hook, k, rows in calls:
                assert rows == (both_rows if hook == "both" else project_rows)(k)
            if with_ahead:
                assert [k for hook, k, _ in calls if hook == "both"] == [0]


def picard_2x2_problem():
    """n = m = p = d = 2 with Gamma != 0, so the sweep's Gamma sums are used."""
    return SdaeProblem(
        n=2, m=2, p=2, d=2,
        f=[parse("x2 + u1"), parse("-x1 + u2")],
        sigma=[[parse("0.2"), parse("0")], [parse("0.1"), parse("0.3")]],
        g=[parse("u1 + 0.1*u2 - x1 - 0.05*x2^2"), parse("u2 - 0.2*x2 + 0.3*sin(x1)")],
        gamma=[[parse("0.05"), parse("0")], [parse("0"), parse("0.1")]],
        x0=[0.0, 0.0], u0_guess=[0.0, 0.0],
    )


# Row kinds of the Newton reference test
NOW, LATER, SINGULAR, NONFINITE, NEVER = range(5)


def newton_rows(kinds, c, A, event, bad):
    """``fn(u) -> (res, jac)`` whose row r behaves as ``kinds[r]``.

    res = A (u - c) + 0.1 (u - c)^3 converges from u = c at once (NOW) or in
    a few updates (LATER).  At call ``event[r]`` a SINGULAR row's Jacobian
    becomes ``bad[r]`` (0, nan or below SINGULAR_TOL) and a NONFINITE row's
    residual becomes ``bad[r]`` (inf or nan) over a regular Jacobian.  A NEVER
    row has residual 1 and Jacobian I, so each update moves u by 1.
    """
    m = c.shape[1]
    calls = [0]

    def fn(u):
        k = calls[0]
        calls[0] += 1
        e = u - c
        res = np.einsum("pij,pj->pi", A, e) + 0.1 * e**3
        jac = A + np.eye(m) * (0.3 * e**2)[:, :, None]
        res[kinds == NEVER] = 1.0
        jac[kinds == NEVER] = np.eye(m)
        hit = event == k
        jac[hit & (kinds == SINGULAR)] = bad[hit & (kinds == SINGULAR), None, None]
        res[hit & (kinds == NONFINITE)] = bad[hit & (kinds == NONFINITE), None]
        return res, jac

    return fn


def assert_newton_equals_reference(kinds, c, A, u0, event, bad, tol):
    with np.errstate(all="ignore"):  # left to the caller, as in the engine's step loop
        got = integrator._newton_batch(newton_rows(kinds, c, A, event, bad), u0, tol)
    want = newton_batch_reference(newton_rows(kinds, c, A, event, bad), u0, tol)
    assert got[0].tobytes() == want[0].tobytes()
    for a, b in zip(got[1:], want[1:], strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got


class TestNewtonReference:
    @pytest.mark.parametrize("m", [1, 2])
    def test_each_row_kind_ends_as_built(self, m):
        kinds = np.array([NOW, LATER, SINGULAR, NONFINITE, NEVER, LATER])
        P = len(kinds)
        rng = np.random.default_rng(m)
        c = rng.uniform(-2.0, 2.0, (P, m))
        A = 2.0 * np.eye(m) + 0.3 * rng.uniform(-1.0, 1.0, (P, m, m))
        u0 = c + np.where(kinds[:, None] == NOW, 0.0, 0.4)
        event = np.array([0, 0, 1, 2, 0, 0])
        bad = np.array([0.0, 0.0, np.nan, np.inf, 0.0, 0.0])
        _, converged, singular, iters = assert_newton_equals_reference(
            kinds, c, A, u0, event, bad, 1e-10)
        assert converged.tolist() == [True, True, False, False, False, True]
        assert singular.tolist() == [False, False, True, True, False, False]
        assert iters[[0, 2, 3, 4]].tolist() == [0, 1, 2, integrator.NEWTON_MAX_ITER]
        assert 2 <= iters[1] < 10

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_equals_reference_bitwise(self, data):
        P = data.draw(st.integers(1, 8))
        m = data.draw(st.sampled_from([1, 2]))
        kinds = data.draw(arrays(np.int64, P, elements=st.integers(NOW, NEVER)))
        c = data.draw(arrays(np.float64, (P, m), elements=st.floats(-2.0, 2.0)))
        R = data.draw(arrays(np.float64, (P, m, m), elements=st.floats(-1.0, 1.0)))
        offset = data.draw(arrays(np.float64, (P, m), elements=st.floats(-0.5, 0.5)))
        event = data.draw(arrays(np.int64, P, elements=st.integers(0, 3)))
        bad = np.where(
            kinds == SINGULAR,
            data.draw(arrays(np.float64, P, elements=st.sampled_from([0.0, -0.0, np.nan, 1e-9]))),
            data.draw(arrays(np.float64, P, elements=st.sampled_from([np.inf, -np.inf, np.nan]))),
        )
        tol = data.draw(st.sampled_from([1e-10, 1e-12]))
        u0 = c + np.where(kinds[:, None] == NOW, 0.0, offset)
        assert_newton_equals_reference(kinds, c, 2.0 * np.eye(m) + 0.3 * R, u0, event, bad, tol)


# Python-level calls per engine step with 8 paths, measured with numpy 2.4,
# plus 25%: 19.07 for bounded Newton (one fused step that converges after
# one update, which also gives the next step's coefficients) and 7.035 for
# index-1, with every path alive for 200 steps, and 7.015 for Algorithm 1 at
# criterion 4's settings over 10^4 steps, in which 6 of the 8 paths end.
# The step loop's bookkeeping is a fixed set of counts while no path ends and
# a few calls at each step that ends some, and neither the step nor the
# Newton solve enters a numpy errstate of its own, so this holds the lean
# loop on any host, where a timing could not.
CALL_BUDGET_PER_STEP = {"bounded-newton": 23.8, "index1": 8.8, "unit-prob": 8.8}


def python_calls(run):
    """run()'s result and a Counter of the (file, function) of every
    Python-level call it makes."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename, frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def budget_case(name):
    if name == "bounded-newton":
        pr = builtin("paper-example")
        cfg = BoundedMConfig(epsilon=0.5, alpha=0.8, box=[(-2.0, 2.0), (-5.0, 5.0)],
                             b=11.0, J_raw=4.0)
        _, sde, init = _bounded_setup(pr, cfg, 1e-3, SolveMode.NEWTON_PER_STEP)
        return sde, init, 1e-3, 200
    if name == "unit-prob":
        pr = builtin("paper-example")
        spec = paper_example_spec(0.25)
        init = np.concatenate([pr.x0, consistent_init(spec, pr)])
        return build_unit_prob_sde(pr, spec).sde(), init, 1e-5, 10_000
    sde, init = index1_setup(builtin("linear-index1"))
    return sde, init, 1e-2, 200


@pytest.mark.parametrize("name", sorted(CALL_BUDGET_PER_STEP))
def test_step_loop_call_budget(name):
    sde, init, dt, steps = budget_case(name)
    P = 8
    buf = integrator._chunk_buffers(sde, P, steps)
    buf.dW[:] = [wiener_increments(derive_seed(1, k), steps, sde.d, dt) for k in range(P)]
    buf.states[:, 0] = init
    _, calls = python_calls(lambda: integrator._em_batch(sde, dt, buf))
    if name == "unit-prob":  # most paths end, at different steps
        assert np.count_nonzero(buf.stop < steps) == 6 and len(set(buf.stop.tolist())) == 7
    else:
        assert (buf.stop == steps).all() and (buf.kind == 0).all()  # every path lives
    reached = {fn for (path, fn) in calls if path.endswith("_methods.py")}
    assert not reached & {"_any", "_all"}
    assert sum(calls.values()) / steps <= CALL_BUDGET_PER_STEP[name]
