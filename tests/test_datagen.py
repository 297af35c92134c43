"""Tests for synthetic data generation: forward/backward steps and rollouts.

Every numeric target below is hand-derived from the step definitions:
    explicit:  x' = x - tau * grad_V(x) - tau * mean_y grad_U(x - y) + sqrt(2 tau b) n
    implicit:  x' = x - tau * grad_V(x', t') - tau * mean_y' grad_U(x' - y')
Linear gradients make both solvable in closed form, which pins the solvers
to exact arithmetic instead of self-consistency.  The explicit step of the
true energies is taken through ``predict``, the rollout ``generate`` makes.
The last section checks the interaction means' precision keyword against
float64 results and the implicit tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from jkoflow.datagen import (
    GatedQuadratic,
    GenConfig,
    IMPLICIT_TOL,
    TIME_VARYING_STEPS,
    TIME_VARYING_TAU,
    _step_rng,
    gated_quadratic_grad,
    generate,
    generate_time_varying_1d,
    implicit_step,
    interaction_gradient_mean,
    predict,
)
from jkoflow.features import build_default, polynomial_map
from jkoflow.functionals import EnergySpec, GroundTruthFunction
from jkoflow.linear_solver import LinearEnergyModel
from jkoflow.measures import uniform_snapshot
from jkoflow.nn import build_model


class _QuadraticPair:
    """Pairwise energy |z|^2 with gradient 2z.

    The ground-truth registry has no plain quadratic, and the interaction
    arithmetic below needs one; any object with dim and gradient works here.
    """

    dim = 1

    @staticmethod
    def gradient(z: np.ndarray) -> np.ndarray:
        return 2.0 * z


def _flat(dim: int) -> GroundTruthFunction:
    return GroundTruthFunction("flat", dim)


def _sphere(dim: int) -> GroundTruthFunction:
    return GroundTruthFunction("sphere", dim)


# ---------------------------------------------------------------------------
# explicit step of the true energies, through predict


def _one_step(spec: EnergySpec, pts: np.ndarray, tau: float, **kwargs) -> np.ndarray:
    return predict(spec, uniform_snapshot(pts, 0), 1, tau, **kwargs).snapshots[1].points


def test_explicit_flat_no_diffusion_is_identity():
    spec = EnergySpec(potential=_flat(2))
    pts = np.array([[0.5, -1.0], [3.0, 2.0], [-4.0, 0.0]])
    out = _one_step(spec, pts, tau=0.05)
    np.testing.assert_array_equal(out, pts)


def test_explicit_sphere_scales_by_1_2():
    # grad of -10|x|^2 is -20x, so x' = x + 20*0.01*x = 1.2 x
    spec = EnergySpec(potential=_sphere(2))
    pts = np.array([[1.0, -2.0], [0.25, 0.0], [-3.5, 3.5]])
    out = _one_step(spec, pts, tau=0.01)
    np.testing.assert_allclose(out, 1.2 * pts, rtol=1e-14)


def test_explicit_pairwise_quadratic_two_particles():
    # particles at +-1, grad_U(z) = 2z: mean over y of 2(x - y) is 2(x - xbar),
    # tau 0.01 moves each by 0.02 toward the mean at zero
    spec = EnergySpec(interaction=_QuadraticPair())
    pts = np.array([[1.0], [-1.0]])
    out = _one_step(spec, pts, tau=0.01)
    np.testing.assert_allclose(out, [[0.98], [-0.98]], rtol=1e-14)


def test_explicit_interaction_mean_includes_self_pair():
    # rows [0, 1, 2]: for x=0 the mean of 2(0-y) over all three y (self
    # included) is -2, so x' = 0.2; excluding the self pair would give 0.3
    spec = EnergySpec(interaction=_QuadraticPair())
    pts = np.array([[0.0], [1.0], [2.0]])
    out = _one_step(spec, pts, tau=0.1)
    np.testing.assert_allclose(out, [[0.2], [1.0], [1.8]], atol=1e-15)


def test_explicit_diffusion_arithmetic():
    # flat drift, beta 0.5, tau 0.02: x' = x + sqrt(2*0.02*0.5) * n, with n
    # the counter-based draw of step 0
    spec = EnergySpec(potential=_flat(1), beta=0.5)
    pts = np.array([[1.0], [-2.0]])
    out = _one_step(spec, pts, tau=0.02, beta_noise=True, seed=4)
    noise = _step_rng(4, 0).standard_normal(pts.shape)
    expected = pts + np.sqrt(0.02) * noise
    np.testing.assert_allclose(out, expected, rtol=1e-15)


def test_explicit_rejects_non_finite_output():
    spec = EnergySpec(potential=_sphere(1))
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="non-finite state"):
        _one_step(spec, np.array([[1e308]]), tau=1.0)


def test_interaction_gradient_mean_weighted():
    # population {0 w 0.25, 4 w 0.75}: weighted mean of 2(0-y) is -6
    pts = np.array([[0.0]])
    pop = np.array([[0.0], [4.0]])
    out = interaction_gradient_mean(_QuadraticPair(), pts, pop, weights=np.array([0.25, 0.75]))
    np.testing.assert_allclose(out, [[-6.0]], rtol=1e-15)


def test_interaction_gradient_mean_chunked_matches_direct(monkeypatch):
    # a budget of 250 rows per block against 300 points: 700 query rows span three
    rng = np.random.default_rng(7)
    pop = rng.normal(size=(300, 2))
    pts = rng.normal(size=(700, 2))
    fn = _sphere(2)
    gradient = fn.gradient
    blocks = []
    monkeypatch.setattr(
        GroundTruthFunction, "gradient", lambda self, x: blocks.append(len(x)) or gradient(x)
    )
    monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 250 * 300 * 2)
    got = interaction_gradient_mean(fn, pts, pop)
    assert blocks == [250 * 300, 250 * 300, 200 * 300]
    diff = pts[:, None, :] - pop[None, :, :]
    grads = gradient(diff.reshape(-1, 2)).reshape(700, 300, 2)
    np.testing.assert_allclose(got, grads.mean(axis=1), rtol=1e-12)


# ---------------------------------------------------------------------------
# implicit step


def test_implicit_flat_is_identity():
    pts = np.array([[2.0, -1.0], [0.0, 4.0]])
    out = implicit_step(pts, lambda x, t: np.zeros_like(x), tau=0.1)
    np.testing.assert_array_equal(out, pts)


def test_implicit_linear_potential_closed_form():
    # grad alpha*x with alpha 2, tau 0.1: x' (1 + 0.2) = x
    pts = np.array([[1.0], [-0.5], [3.0]])
    out = implicit_step(pts, lambda x, t: 2.0 * x, tau=0.1)
    np.testing.assert_allclose(out, pts / 1.2, atol=2e-8)


def test_implicit_passes_time_argument_through():
    seen = []

    def grad(x, t):
        seen.append(t)
        return np.zeros_like(x)

    implicit_step(np.ones((1, 1)), grad, tau=0.1, t_next=0.42)
    assert seen == [0.42]


def test_implicit_gated_potential_stationary_inside_window():
    pts = np.array([[1.3], [0.9]])
    out = implicit_step(pts, gated_quadratic_grad, tau=0.1, t_next=0.25)
    np.testing.assert_array_equal(out, pts)


def test_implicit_gated_potential_expands_outside_window():
    # active grad -1.5x: x'(1 - 0.15) = x
    pts = np.array([[1.0], [1.4]])
    out = implicit_step(pts, gated_quadratic_grad, tau=0.1, t_next=0.5)
    np.testing.assert_allclose(out, pts / 0.85, atol=2e-8)


def test_implicit_origin_is_fixed_point_of_gated_potential():
    out = implicit_step(np.zeros((1, 1)), gated_quadratic_grad, tau=0.1, t_next=0.5)
    np.testing.assert_array_equal(out, np.zeros((1, 1)))


def test_implicit_gated_grad_requires_time():
    with pytest.raises(ValueError, match="time argument"):
        implicit_step(np.ones((1, 1)), gated_quadratic_grad, tau=0.1)


def test_implicit_reports_non_convergence():
    # grad -a x with a*tau = 3: the residual map contracts nowhere, every
    # descent proposal grows it, so both phases exhaust their budgets
    with pytest.raises(RuntimeError, match="failed to converge"):
        implicit_step(np.ones((2, 1)), lambda x, t: -30.0 * x, tau=0.1)


def test_implicit_fallback_recomputes_coupled_residuals():
    # grad 35x + 5 mean(x), tau 0.1: the damped fixed-point map multiplies
    # each row's error by -1.25, so the per-row fallback does the work.  An
    # accepted row moves every row's mean term, so each residual must come
    # from the current cloud; the mean of the cloud is 0, so x' = x / 4.5
    pts = np.linspace(-1, 1, 7)[:, None]
    grad = lambda x, t: 35.0 * x + 5.0 * x.mean(axis=0)
    out = implicit_step(pts, grad, tau=0.1)
    residual = out - pts + 0.1 * grad(out, None)
    assert np.linalg.norm(residual, axis=1).max() < IMPLICIT_TOL
    np.testing.assert_allclose(out, pts / 4.5, atol=1e-8)


def test_implicit_fallback_restarts_rows_the_damped_phase_lost():
    # grad 10 x^5, tau 0.1: the damped phase overflows to inf and NaN, so the
    # fallback starts again from the warm start and solves x' + x'^5 = x
    pts = np.linspace(1, 3, 5)[:, None]
    out = implicit_step(pts, lambda x, t: 10.0 * x**5, tau=0.1)
    assert np.linalg.norm(out + out**5 - pts, axis=1).max() < IMPLICIT_TOL
    assert out[2, 0] == pytest.approx(1.0, abs=1e-8)


def test_implicit_fallback_rejects_nan_proposals():
    # grad 100 x, NaN beyond |x| = 2: the fallback's first proposals land
    # there, and a NaN residual must count as worse, not be kept; x' = x / 11
    pts = np.linspace(-1, 1, 5)[:, None]
    grad = lambda x, t: np.where(np.abs(x) <= 2.0, 100.0 * x, np.nan)
    out = implicit_step(pts, grad, tau=0.1)
    np.testing.assert_allclose(out, pts / 11.0, atol=1e-8)


def test_explicit_implicit_gap_shrinks_like_tau_squared():
    # on the sphere the one-step gap is (20 tau)^2 / (1 - 20 tau) per unit x:
    # tau 1e-2 vs 1e-3 gives exactly 0.05 / (0.0004/0.98) = 122.5
    spec = EnergySpec(potential=_sphere(1))
    pts = np.array([[1.0]])
    gaps = []
    for tau in (1e-2, 1e-3):
        ex = _one_step(spec, pts, tau)
        im = _one_step(spec, pts, tau, scheme="implicit")
        gaps.append(abs(ex[0, 0] - im[0, 0]))
    ratio = gaps[0] / gaps[1]
    assert ratio == pytest.approx(122.5, rel=1e-3)
    assert 80.0 < ratio < 150.0  # an O(tau) gap would give ~10 here


# ---------------------------------------------------------------------------
# full rollouts


def test_generate_shapes_split_and_time_indices():
    cfg = GenConfig(EnergySpec(potential=_sphere(2)), n_particles=50, timesteps=5)
    train, test = generate(cfg)
    assert len(train.snapshots) == 6 and len(test.snapshots) == 6
    assert train.tau == cfg.tau and test.tau == cfg.tau
    for t, (a, b) in enumerate(zip(train.snapshots, test.snapshots)):
        assert a.time_index == t and b.time_index == t
        assert a.points.shape == (25, 2) and b.points.shape == (25, 2)
        np.testing.assert_allclose(a.weights, 1 / 25)


def test_generate_odd_particle_count_favors_train():
    cfg = GenConfig(EnergySpec(potential=_flat(1)), n_particles=5, dim=1, timesteps=1)
    train, test = generate(cfg)
    assert train.snapshots[0].points.shape == (3, 1)
    assert test.snapshots[0].points.shape == (2, 1)


def test_generate_flat_no_diffusion_snapshots_identical():
    cfg = GenConfig(EnergySpec(potential=_flat(2)), n_particles=40, timesteps=4)
    train, _ = generate(cfg)
    first = train.snapshots[0].points
    for snap in train.snapshots[1:]:
        np.testing.assert_array_equal(snap.points, first)


def test_generate_deterministic_and_anchored_to_step_index():
    spec = EnergySpec(potential=_flat(1), beta=0.3)
    cfg = lambda steps: GenConfig(spec, n_particles=20, dim=1, timesteps=steps, seed=9)
    a_train, a_test = generate(cfg(5))
    b_train, _ = generate(cfg(5))
    for sa, sb in zip(a_train.snapshots, b_train.snapshots):
        np.testing.assert_array_equal(sa.points, sb.points)
    # noise is keyed by (seed, step), so a shorter run is a prefix of a longer
    short_train, _ = generate(cfg(3))
    for sa, sb in zip(short_train.snapshots, a_train.snapshots):
        np.testing.assert_array_equal(sa.points, sb.points)
    assert not np.array_equal(a_train.snapshots[1].points, a_test.snapshots[1].points)


def test_generate_diffusion_variance_growth():
    # near point mass, flat drift: var after t steps is 2 beta tau t; the
    # sample variance of n normals has std sigma^2 sqrt(2/(n-1))
    beta, tau, steps = 0.1, 0.01, 5
    cfg = GenConfig(
        EnergySpec(potential=_flat(1), beta=beta),
        n_particles=10_000,
        dim=1,
        timesteps=steps,
        tau=tau,
        init_low=-1e-12,
        init_high=1e-12,
        seed=3,
    )
    train, test = generate(cfg)
    for traj in (train, test):
        n = traj.snapshots[0].points.shape[0]
        for t in (1, steps):
            target = 2 * beta * tau * t
            spread = 3 * target * np.sqrt(2 / (n - 1))
            sample = traj.snapshots[t].points.var()
            assert abs(sample - target) < spread


def test_generate_implicit_scheme_matches_closed_form():
    # sphere, tau 0.01: each implicit step multiplies by 1/(1 - 0.2)
    cfg = GenConfig(
        EnergySpec(potential=_sphere(2)), n_particles=30, timesteps=4,
        scheme="implicit", init_low=-1.0, init_high=1.0,
    )
    train, _ = generate(cfg)
    start = train.snapshots[0].points
    for t, snap in enumerate(train.snapshots):
        np.testing.assert_allclose(snap.points, start / 0.8**t, atol=1e-6)


def test_generate_implicit_odd_interaction_meets_whole_cloud_balance():
    # watershed is not even (U(z) != U(-z)); the balance averages the
    # interaction over the whole new cloud, train and test halves together
    tau = 0.01
    spec = EnergySpec(potential=_sphere(2), interaction=GroundTruthFunction("watershed", 2))
    train, test = generate(
        GenConfig(spec, n_particles=60, timesteps=3, tau=tau, scheme="implicit", seed=2)
    )
    clouds = [np.vstack([a.points, b.points]) for a, b in zip(train.snapshots, test.snapshots)]
    weights = np.full(60, 1 / 60)
    for x, new in zip(clouds[:-1], clouds[1:]):
        interaction = spec.grad_interaction_mean(new, new, weights)
        balance = new - x + tau * (spec.grad_potential(new) + interaction)
        assert np.linalg.norm(balance, axis=1).max() < IMPLICIT_TOL
        assert np.abs(tau * interaction).max() > 1e3 * IMPLICIT_TOL


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_particles=1), "n_particles"),
        (dict(timesteps=0), "timesteps"),
        (dict(tau=0.0), "tau"),
        (dict(tau=-0.1), "tau"),
        (dict(init_low=1.0, init_high=1.0), "init_low"),
        (dict(scheme="midpoint"), "scheme"),
        (dict(dim=3), "does not match"),
    ],
)
def test_gen_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GenConfig(EnergySpec(potential=_sphere(2)), **kwargs)


def test_gen_config_implicit_rejects_diffusion():
    # the entropic JKO step is not a per-particle map
    with pytest.raises(ValueError, match="no diffusion"):
        GenConfig(EnergySpec(potential=_sphere(2), beta=0.1), scheme="implicit")


def test_step_rng_is_keyed_by_seed_and_step():
    a = _step_rng(0, 3).standard_normal(4)
    b = _step_rng(0, 3).standard_normal(4)
    c = _step_rng(0, 4).standard_normal(4)
    d = _step_rng(1, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# time-varying benchmark


def test_gated_quadratic_value_and_window_edges():
    x = np.array([[2.0], [-1.0]])
    np.testing.assert_array_equal(gated_quadratic_grad(x, 0.25), [[0.0], [0.0]])
    np.testing.assert_allclose(gated_quadratic_grad(x, 0.5), [[-3.0], [1.5]])
    # window edges carry a small tolerance for float time grids
    assert gated_quadratic_grad(x, 0.3 + 5e-10)[0, 0] == 0.0
    assert gated_quadratic_grad(x, 0.31)[0, 0] == pytest.approx(-3.0)


def test_time_varying_rollout_structure():
    train, test = generate_time_varying_1d(n_particles=60, seed=1)
    assert TIME_VARYING_STEPS == 10 and TIME_VARYING_TAU == 0.1
    assert len(train.snapshots) == 11 and len(test.snapshots) == 11
    assert train.tau == 0.1
    assert train.snapshots[0].points.shape == (30, 1)
    assert np.all(train.snapshots[0].points >= 0.8)
    assert np.all(train.snapshots[0].points <= 1.4)


def test_time_varying_rollout_freezes_inside_windows():
    train, _ = generate_time_varying_1d(n_particles=40, seed=2)
    frames = [s.points for s in train.snapshots]
    # steps landing at t in {0.2, 0.3, 0.7, 0.8} see a switched-off potential
    for t in (2, 3, 7, 8):
        np.testing.assert_array_equal(frames[t], frames[t - 1])
    # every other step expands positive particles by exactly 1/0.85
    for t in (1, 4, 5, 6, 9, 10):
        np.testing.assert_allclose(frames[t], frames[t - 1] / 0.85, atol=2e-8)
    assert np.all(frames[-1] > frames[0])


def test_time_varying_deterministic():
    a, _ = generate_time_varying_1d(n_particles=20, seed=5)
    b, _ = generate_time_varying_1d(n_particles=20, seed=5)
    for sa, sb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(sa.points, sb.points)


# ---------------------------------------------------------------------------
# the interaction mean's precision keyword


def _energy(kind: str):
    if kind == "spec":
        return EnergySpec(potential=_sphere(2), interaction=GroundTruthFunction("watershed", 2))
    if kind == "gated":
        return GatedQuadratic()
    if kind == "linear":
        model = LinearEnergyModel(
            potential_map=polynomial_map(2, 2), interaction_map=build_default(2)
        )
        model.theta = np.random.default_rng(4).normal(size=model.n_active)
        return model
    return build_model(dim=2, seed=5, with_interaction=True, hidden=(8, 8))


@pytest.mark.parametrize("dtype", [None, np.float64, np.float32])
@pytest.mark.parametrize("kind", ["spec", "gated", "linear", "mlp"])
def test_interaction_mean_takes_one_point_as_a_row(kind, dtype):
    energy = _energy(kind)
    dim = 1 if kind == "gated" else 2
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, dim))
    points = rng.normal(size=(7, dim))
    weights = np.full(7, 1 / 7)
    precision = {} if dtype is None else {"dtype": dtype}
    rows = energy.grad_interaction_mean(x, points, weights, **precision)
    one = energy.grad_interaction_mean(x[0], points, weights, **precision)
    assert rows.shape == (4, dim) and one.shape == (1, dim)
    assert rows.dtype == one.dtype == np.float64
    # a float32 pair pass sees the one row in a block of its own shape
    rtol = 1e-6 if kind == "mlp" and dtype is np.float32 else 1e-13
    np.testing.assert_allclose(one[0], rows[0], rtol=rtol, atol=rtol * np.abs(rows).max())
    if kind != "mlp":
        # the true energies and the linear model compute in float64 whatever
        # they are asked, so generated data cannot depend on the keyword
        np.testing.assert_array_equal(
            rows, energy.grad_interaction_mean(x, points, weights, dtype=np.float32)
        )
    # the potential's gradient takes one point as a row too, as does the
    # zero gradient of a spec without a potential
    time_value = 0.5 if kind == "gated" else None
    rows, one = energy.grad_potential(x, time_value), energy.grad_potential(x[0], time_value)
    assert rows.shape == (4, dim) and one.shape == (1, dim)
    np.testing.assert_allclose(one[0], rows[0], rtol=1e-13, atol=1e-13 * np.abs(rows).max())
    if kind == "spec":
        assert EnergySpec(interaction=energy.interaction).grad_potential(x[0]).shape == (1, dim)


class _DtypeSpy:
    """A model that records the ``dtype`` each interaction mean is asked for."""

    time_conditioned = False
    beta = 0.0

    def __init__(self, model) -> None:
        self.model = model
        self.dtypes: list = []

    def grad_potential(self, x, time_value=None):
        return self.model.grad_potential(x, time_value)

    def grad_interaction_mean(self, x, points, weights, dtype=np.float64):
        self.dtypes.append(dtype)
        return self.model.grad_interaction_mean(x, points, weights, dtype=dtype)


def test_explicit_steps_ask_for_float32_and_implicit_steps_for_float64():
    start = uniform_snapshot(np.random.default_rng(7).normal(size=(12, 2)), 0)
    spy = _DtypeSpy(build_model(dim=2, seed=8, with_interaction=True, hidden=(8,)))
    predict(spy, start, 3, 0.01, "explicit")
    assert spy.dtypes == [np.float32] * 3
    spy.dtypes.clear()
    predict(spy, start, 2, 0.01, "implicit")
    assert len(spy.dtypes) >= 2 and set(spy.dtypes) == {np.float64}


def test_explicit_star_step_reads_the_float32_pair_pass_to_its_last_digits():
    model = build_model(dim=2, seed=9, with_interaction=True, with_internal=True, hidden=(16, 16))
    x = np.random.default_rng(10).normal(size=(30, 2)) * 2
    weights = np.full(30, 1 / 30)
    tau = 0.01
    got = predict(model, uniform_snapshot(x, 0), 1, tau).snapshots[1].points
    drift = model.grad_potential(x) + model.grad_interaction_mean(x, x, weights)
    np.testing.assert_allclose(got, x - tau * drift, rtol=1e-9, atol=1e-9)


def test_implicit_star_rollout_meets_the_tolerance_in_float64():
    model = build_model(dim=2, seed=11, with_interaction=True, with_internal=True, hidden=(16, 16))
    start = uniform_snapshot(np.random.default_rng(12).normal(size=(30, 2)) * 2, 0)
    tau = 0.01
    frames = [s.points for s in predict(model, start, 3, tau, "implicit").snapshots]
    for x, new in zip(frames[:-1], frames[1:]):
        drift = model.grad_potential(new) + model.grad_interaction_mean(new, new, start.weights)
        assert np.linalg.norm(new - x + tau * drift, axis=1).max() < IMPLICIT_TOL
