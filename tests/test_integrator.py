"""Noise generation, the Euler-Maruyama engine, and constraint tracking."""

import math

import numpy as np
import pytest

from sdaekit.expr import parse
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
from sdaekit.problem import SdaeProblem, builtin


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
        np.testing.assert_array_equal(lam[:, 0], 2 * x1 - x1**3 - 0.5 * np.sin(4 * x2))

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

    def test_without_projection_no_iterations_are_recorded(self):
        sde = const_sde(1, 1, [0.0], [[1.0]])
        path = euler_maruyama(sde, [0.0], 0.1, 0.5, np.zeros((5, 1)))
        assert "newton_iterations" not in path.metadata
