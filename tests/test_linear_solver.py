"""Tests for the closed-form fit of linear-in-parameters energies.

The solve is a regularized least squares over sufficient statistics, so the
oracles are: hand arithmetic for single-pair statistics, an independent
plain-loop assembly plus dense solve for the full pipeline, and a direct
minimizer check (random perturbations never beat the returned coefficients).
Recovery targets use implicitly generated data where the true coefficient
vector zeroes the residual exactly.
"""

from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from jkoflow import features, measures
from jkoflow.density import GaussianMixture
from jkoflow.features import FeatureMap, build_default, polynomial_map
from jkoflow.linear_solver import (
    DEFAULT_RIDGE,
    FeatureStatistic,
    LinearEnergyModel,
    accumulate,
    build_row,
    fit_linear,
    solve,
)
from jkoflow.measures import Coupling, EmpiricalSnapshot, PopulationTrajectory, uniform_snapshot

from oracles import eval_features


def _identity_coupling(t: int, n: int) -> Coupling:
    idx = np.arange(n)
    return Coupling(t, t + 1, idx, idx, np.full(n, 1.0 / n))


def _trajectory(frames: list[np.ndarray], tau: float) -> PopulationTrajectory:
    snaps = [uniform_snapshot(f, t) for t, f in enumerate(frames)]
    return PopulationTrajectory(snaps, tau)


def _unit_gmm(dim: int) -> GaussianMixture:
    return GaussianMixture(
        weights=np.array([1.0]),
        means=np.zeros((1, dim)),
        covariances=np.eye(dim)[None],
    )


# ---------------------------------------------------------------------------
# row construction


def test_build_row_potential_monomials():
    model = LinearEnergyModel(potential_map=polynomial_map(1, 2))
    rows = build_row(model, np.array([[3.0]]), None, None)
    np.testing.assert_allclose(rows, [[[1.0], [6.0]]], rtol=1e-15)


def test_build_row_interaction_self_pair_kills_even_rows():
    # snapshot is the point itself: differences are zero, so the x^2 feature
    # row (gradient 2z at z=0) vanishes, the linear row stays 1
    model = LinearEnergyModel(interaction_map=polynomial_map(1, 2))
    snap = uniform_snapshot(np.array([[1.7]]), 0)
    rows = build_row(model, snap.points, snap, None)
    np.testing.assert_allclose(rows, [[[1.0], [0.0]]], atol=1e-15)


def test_build_row_internal_is_score():
    model = LinearEnergyModel(use_internal=True)
    rows = build_row(model, np.array([[2.0]]), None, _unit_gmm(1))
    np.testing.assert_allclose(rows, [[[-2.0]]], rtol=1e-12)


def test_build_row_blocks_stack_in_order():
    pot = polynomial_map(2, 2)
    inter = polynomial_map(2, 1)
    model = LinearEnergyModel(potential_map=pot, interaction_map=inter, use_internal=True)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 2))
    snap = uniform_snapshot(rng.normal(size=(5, 2)), 1)
    gmm = _unit_gmm(2)
    rows = build_row(model, x, snap, gmm)
    assert rows.shape == (3, pot.n_features + inter.n_features + 1, 2)
    only_pot = build_row(LinearEnergyModel(potential_map=pot), x, None, None)
    np.testing.assert_array_equal(rows[:, : pot.n_features], only_pot)


def test_interaction_rows_do_not_depend_on_pair_blocks(monkeypatch):
    # a budget of 8 rows per block against 30 points, at 2 d max(bumps, d) = 8
    # entries per pair (the grid path's 2 d factor arrays): 20 rows span
    # three blocks
    inter = FeatureMap(dim=2, poly_degree=2, poly_cross=True, rbf_centers=np.array([[0.0, 1.0]]))
    rng = np.random.default_rng(4)
    model = LinearEnergyModel(interaction_map=inter, theta=rng.normal(size=inter.n_features))
    x = rng.normal(size=(20, 2))
    w = rng.uniform(0.5, 1.0, size=30)
    snap = EmpiricalSnapshot(rng.normal(size=(30, 2)), w / w.sum(), 1)
    want_rows = build_row(model, x, snap, None)
    want_mean = model.grad_interaction_mean(x, snap.points, snap.weights)
    blocks = []

    def spy(x, points, width):
        for block, diff in measures.pair_chunks(x, points, width):
            blocks.append(len(x[block]))
            yield block, diff

    monkeypatch.setattr(features, "pair_chunks", spy)
    monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 8 * 30 * 8)
    rows = build_row(model, x, snap, None)
    mean = model.grad_interaction_mean(x, snap.points, snap.weights)
    assert blocks == [8, 8, 4] * 2
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(mean, want_mean)


def test_build_row_peak_memory_stays_cache_sized():
    # the default 2-D basis (8 monomials, 100 bumps) for both blocks, on 150
    # points against their own snapshot: a (pairs, features, d) Jacobian of
    # the 22,500 pairs would take 39 MB on its own
    fm = build_default(2)
    model = LinearEnergyModel(potential_map=fm, interaction_map=fm)
    snap = uniform_snapshot(np.random.default_rng(0).uniform(-4, 4, size=(150, 2)), 1)
    tracemalloc.start()
    try:
        build_row(model, snap.points, snap, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_build_row_missing_inputs_raise():
    with pytest.raises(ValueError, match="snapshot"):
        build_row(LinearEnergyModel(interaction_map=polynomial_map(1, 1)), np.ones((1, 1)), None, None)
    with pytest.raises(ValueError, match="density"):
        build_row(LinearEnergyModel(use_internal=True), np.ones((1, 1)), None, None)


# ---------------------------------------------------------------------------
# accumulation


def test_accumulate_flat_trajectory_zero_moment():
    pts = np.linspace(-1, 1, 5)[:, None]
    traj = _trajectory([pts, pts, pts], tau=0.1)
    model = LinearEnergyModel(potential_map=polynomial_map(1, 2))
    stat = accumulate(model, traj, [_identity_coupling(0, 5), _identity_coupling(1, 5)])
    np.testing.assert_array_equal(stat.moment, np.zeros((2, 1)))
    assert stat.offset == 0.0
    assert np.any(stat.gram != 0.0)


def test_accumulate_single_pair_hand_arithmetic():
    # one particle, features (x, x^2) with gradient rows (1, 2x):
    #   gram   = [[1, 2 x1], [2 x1, 4 x1^2]]
    #   moment = ((x1 - x0)/tau) * (1, 2 x1)
    x0, x1, tau = 0.7, 1.1, 0.25
    traj = _trajectory([np.array([[x0]]), np.array([[x1]])], tau)
    model = LinearEnergyModel(potential_map=polynomial_map(1, 2))
    stat = accumulate(model, traj, [_identity_coupling(0, 1)])
    np.testing.assert_allclose(
        stat.gram, [[1.0, 2 * x1], [2 * x1, 4 * x1**2]], rtol=1e-15
    )
    step = (x1 - x0) / tau
    np.testing.assert_allclose(stat.moment, [[step], [2 * x1 * step]], rtol=1e-15)
    assert stat.offset == pytest.approx(step**2, rel=1e-15)


def test_accumulate_invariant_to_pair_order_and_mass_splitting():
    rng = np.random.default_rng(1)
    frames = [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))]
    traj = _trajectory(frames, tau=0.2)
    model = LinearEnergyModel(potential_map=polynomial_map(2, 2))
    idx = np.arange(4)
    full = Coupling(0, 1, idx, idx, np.full(4, 0.25))
    perm = np.array([2, 0, 3, 1])
    shuffled = Coupling(0, 1, idx[perm], idx[perm], np.full(4, 0.25))
    split = Coupling(
        0, 1, np.concatenate([idx, idx]), np.concatenate([idx, idx]), np.full(8, 0.125)
    )
    stats = [accumulate(model, traj, [c]) for c in (full, shuffled, split)]
    for other in stats[1:]:
        np.testing.assert_allclose(other.gram, stats[0].gram, rtol=1e-14)
        np.testing.assert_allclose(other.moment, stats[0].moment, rtol=1e-13, atol=1e-16)
        assert other.offset == pytest.approx(stats[0].offset, rel=1e-13)


def test_accumulate_gram_symmetric_psd():
    rng = np.random.default_rng(2)
    frames = [rng.normal(size=(6, 2)) for _ in range(4)]
    traj = _trajectory(frames, tau=0.1)
    model = LinearEnergyModel(
        potential_map=polynomial_map(2, 3), interaction_map=polynomial_map(2, 2)
    )
    stat = accumulate(model, traj, [_identity_coupling(t, 6) for t in range(3)])
    np.testing.assert_allclose(stat.gram, stat.gram.T, atol=1e-12)
    assert np.linalg.eigvalsh(stat.gram).min() > -1e-9


def test_accumulate_rejects_misaligned_couplings():
    pts = np.ones((2, 1))
    traj = _trajectory([pts, pts, pts], tau=0.1)
    model = LinearEnergyModel(potential_map=polynomial_map(1, 1))
    with pytest.raises(ValueError, match="expected 2 couplings"):
        accumulate(model, traj, [_identity_coupling(0, 2)])
    with pytest.raises(ValueError, match="links times"):
        accumulate(model, traj, [_identity_coupling(0, 2), _identity_coupling(5, 2)])


# ---------------------------------------------------------------------------
# the solve


def test_solve_zero_moment_gives_zero_theta():
    gram = np.array([[2.0, 0.3], [0.3, 1.0]])
    stat = FeatureStatistic(gram, np.zeros((2, 1)))
    np.testing.assert_array_equal(solve(stat, 0.01), np.zeros(2))
    np.testing.assert_array_equal(solve(stat, 0.0), np.zeros(2))


def test_solve_rejects_negative_ridge_and_non_finite_stats():
    stat = FeatureStatistic(np.eye(2), np.ones((2, 1)))
    with pytest.raises(ValueError, match="ridge_lambda"):
        solve(stat, -1.0)
    bad = FeatureStatistic(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones((2, 1)))
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve(bad, 0.01)


def test_cholesky_solve_matches_scipy_on_polynomial_basis():
    # the acceptance-06 basis: degree-4 monomials for both blocks, plus diffusion
    rng = np.random.default_rng(6)
    frames = [rng.normal(size=(60, 2)) for _ in range(3)]
    traj = _trajectory(frames, 0.01)
    couplings = [_identity_coupling(t, 60) for t in range(2)]
    model = LinearEnergyModel(
        potential_map=polynomial_map(2, 4),
        interaction_map=polynomial_map(2, 4),
        use_internal=True,
    )
    stat = accumulate(model, traj, couplings, [_unit_gmm(2)] * 3)
    system = stat.gram + model.ridge_lambda * np.eye(model.n_active)
    want = -cho_solve(cho_factor(system, lower=True), stat.moment.sum(axis=1))
    np.testing.assert_allclose(solve(stat, model.ridge_lambda), want, rtol=1e-12)
    stat.gram[0, 1] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve(stat, model.ridge_lambda)


def test_solve_rejects_a_gram_that_is_not_positive_definite():
    stat = FeatureStatistic(-np.eye(2), np.ones((2, 1)))
    with pytest.raises(np.linalg.LinAlgError):
        solve(stat, 0.01)


def _implicit_quadratic_data(tau: float = 0.1, steps: int = 2):
    # V = x^2 has gradient 2x; the backward step is x' = x / (1 + 2 tau),
    # which makes the residual identically zero at theta = (0, 1, 0, 0)
    x = np.linspace(-2.0, 2.0, 20)[:, None]
    frames = [x]
    for _ in range(steps):
        frames.append(frames[-1] / (1.0 + 2.0 * tau))
    traj = _trajectory(frames, tau)
    couplings = [_identity_coupling(t, 20) for t in range(steps)]
    return traj, couplings


def test_recovery_implicit_quadratic_unregularized():
    traj, couplings = _implicit_quadratic_data()
    model = LinearEnergyModel(potential_map=polynomial_map(1, 4), ridge_lambda=0.0)
    fitted, loss = fit_linear(model, traj, couplings)
    theta1, theta2, beta = fitted.theta_blocks()
    np.testing.assert_allclose(theta1, [0.0, 1.0, 0.0, 0.0], atol=1e-6)
    assert theta2.size == 0 and beta == 0.0
    assert loss < 1e-10
    assert loss >= 0.0


def test_ridge_shrinks_coefficients():
    traj, couplings = _implicit_quadratic_data()
    fitted = {}
    for lam in (0.0, 0.01):
        model = LinearEnergyModel(potential_map=polynomial_map(1, 4), ridge_lambda=lam)
        fitted[lam], _ = fit_linear(model, traj, couplings)
    assert np.linalg.norm(fitted[0.01].theta) < np.linalg.norm(fitted[0.0].theta)


def test_ridge_path_is_monotone():
    traj, couplings = _implicit_quadratic_data()
    stat = accumulate(LinearEnergyModel(potential_map=polynomial_map(1, 4)), traj, couplings)
    norms = [np.linalg.norm(solve(stat, lam)) for lam in (0.0, 1e-3, 1e-2, 1e-1, 1.0)]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12
    assert norms[-1] < norms[0]


def test_solve_matches_independent_loop_assembly():
    # plain-Python reassembly of the statistics plus a dense solve
    rng = np.random.default_rng(3)
    frames = [rng.normal(size=(3, 1)) for _ in range(3)]
    tau = 0.2
    traj = _trajectory(frames, tau)
    couplings = [_identity_coupling(t, 3) for t in range(2)]
    model = LinearEnergyModel(potential_map=polynomial_map(1, 2), ridge_lambda=0.05)
    fitted, loss = fit_linear(model, traj, couplings)

    def row(x: float) -> np.ndarray:
        return np.array([1.0, 2.0 * x])

    gram = np.zeros((2, 2))
    rhs = np.zeros(2)
    offset = 0.0
    for t in (1, 2):
        for i in range(3):
            y = row(frames[t][i, 0])
            gram += np.outer(y, y) / 3.0
        for i in range(3):
            step = (frames[t][i, 0] - frames[t - 1][i, 0]) / tau
            rhs += row(frames[t][i, 0]) * step / 3.0
            offset += step**2 / 3.0
    theta = np.linalg.solve(gram + 0.05 * np.eye(2), -rhs)
    np.testing.assert_allclose(fitted.theta, theta, rtol=1e-10)
    want_loss = float(theta @ gram @ theta + 2 * theta @ rhs + offset)
    assert loss == pytest.approx(want_loss, rel=1e-10)


def test_solution_beats_random_perturbations():
    rng = np.random.default_rng(4)
    frames = [rng.normal(size=(5, 2)) for _ in range(3)]
    traj = _trajectory(frames, tau=0.1)
    couplings = [_identity_coupling(t, 5) for t in range(2)]
    model = LinearEnergyModel(
        potential_map=polynomial_map(2, 2), interaction_map=polynomial_map(2, 1),
        ridge_lambda=0.01,
    )
    stat = accumulate(model, traj, couplings)
    theta = solve(stat, 0.01)
    rhs = stat.moment.sum(axis=1)

    def objective(v: np.ndarray) -> float:
        return float(v @ stat.gram @ v + 2 * v @ rhs + 0.01 * v @ v)

    base = objective(theta)
    for _ in range(25):
        delta = rng.normal(size=theta.shape) * rng.choice([1e-4, 1e-2, 1.0])
        assert objective(theta + delta) >= base - 1e-12


def test_pinned_blocks_equal_row_deleted_full_system():
    rng = np.random.default_rng(5)
    frames = [rng.normal(size=(6, 1)) for _ in range(3)]
    traj = _trajectory(frames, tau=0.1)
    couplings = [_identity_coupling(t, 6) for t in range(2)]
    gmms = [None, _unit_gmm(1), _unit_gmm(1)]
    full = LinearEnergyModel(
        potential_map=polynomial_map(1, 2), interaction_map=polynomial_map(1, 2),
        use_internal=True,
    )
    stat = accumulate(full, traj, couplings, gmms)
    keep = np.arange(2)  # the potential block
    reduced_stat = FeatureStatistic(
        stat.gram[np.ix_(keep, keep)], stat.moment[keep], stat.offset
    )
    reduced = LinearEnergyModel(potential_map=polynomial_map(1, 2))
    own_stat = accumulate(reduced, traj, couplings)
    np.testing.assert_allclose(own_stat.gram, reduced_stat.gram, rtol=1e-14)
    np.testing.assert_allclose(own_stat.moment, reduced_stat.moment, rtol=1e-14)
    np.testing.assert_allclose(solve(own_stat, 0.01), solve(reduced_stat, 0.01), rtol=1e-12)


def test_explicit_scheme_bias_scales_with_tau():
    # explicit data x' = (1 - 2 tau) x fits theta2 = 1/(1 - 2 tau): the bias
    # 2 tau/(1 - 2 tau) drops by ~10.2x from tau 1e-2 to 1e-3
    biases = []
    for tau in (1e-2, 1e-3):
        x = np.linspace(-2.0, 2.0, 30)[:, None]
        frames = [x, (1 - 2 * tau) * x, (1 - 2 * tau) ** 2 * x]
        traj = _trajectory(frames, tau)
        model = LinearEnergyModel(potential_map=polynomial_map(1, 2), ridge_lambda=0.0)
        fitted, _ = fit_linear(model, traj, [_identity_coupling(t, 30) for t in range(2)])
        theta2 = fitted.theta_blocks()[0][1]
        assert theta2 == pytest.approx(1.0 / (1.0 - 2.0 * tau), rel=1e-6)
        biases.append(abs(theta2 - 1.0))
    assert 8.0 < biases[0] / biases[1] < 12.0


def test_negative_diffusion_coefficient_warns(caplog):
    # data moving along +score makes the fitted diffusion weight -1
    rng = np.random.default_rng(6)
    gmm = _unit_gmm(1)
    x1 = rng.normal(size=(10, 1))
    tau = 0.1
    x0 = x1 - tau * (-x1)  # score of N(0,1) at x1 is -x1
    traj = _trajectory([x0, x1], tau)
    model = LinearEnergyModel(use_internal=True, ridge_lambda=1e-8)
    with caplog.at_level(logging.WARNING, logger="jkoflow.linear_solver"):
        fitted, _ = fit_linear(model, traj, [_identity_coupling(0, 10)], [None, gmm])
    assert fitted.beta == pytest.approx(-1.0, rel=1e-4)
    assert any("negative" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# model plumbing


def test_model_validation_and_theta_blocks():
    with pytest.raises(ValueError, match="at least one block"):
        LinearEnergyModel()
    with pytest.raises(ValueError, match="length"):
        LinearEnergyModel(potential_map=polynomial_map(1, 2), theta=np.ones(5))
    model = LinearEnergyModel(
        potential_map=polynomial_map(1, 2), interaction_map=polynomial_map(1, 1),
        use_internal=True, theta=np.array([1.0, 2.0, 3.0, 4.0]),
    )
    t1, t2, beta = model.theta_blocks()
    np.testing.assert_array_equal(t1, [1.0, 2.0])
    np.testing.assert_array_equal(t2, [3.0])
    assert beta == 4.0 and model.beta == 4.0
    assert LinearEnergyModel(use_internal=True).ridge_lambda == DEFAULT_RIDGE
    assert model.dim == 1
    assert not model.time_conditioned
    with pytest.raises(ValueError, match="spatial"):
        _ = LinearEnergyModel(use_internal=True).dim


def test_model_default_theta_is_zero():
    model = LinearEnergyModel(potential_map=polynomial_map(2, 2), use_internal=True)
    np.testing.assert_array_equal(model.theta, np.zeros(5))


def test_model_gradients_match_feature_jacobians():
    fm = polynomial_map(1, 2)
    model = LinearEnergyModel(potential_map=fm, theta=np.array([0.0, 1.0]))
    x = np.array([[3.0], [-1.0]])
    np.testing.assert_allclose(model.grad_potential(x), 2.0 * x, rtol=1e-14)
    inter = LinearEnergyModel(interaction_map=fm, theta=np.array([0.0, 1.0]))
    pop = np.array([[0.0], [2.0]])
    w = np.array([0.5, 0.5])
    # mean of 2(x - y) over pop: 2(x - 1)
    np.testing.assert_allclose(
        inter.grad_interaction_mean(x, pop, w), 2.0 * (x - 1.0), rtol=1e-13
    )
    np.testing.assert_array_equal(inter.grad_potential(x), np.zeros_like(x))
    np.testing.assert_array_equal(
        model.grad_interaction_mean(x, pop, w), np.zeros_like(x)
    )


def test_model_json_round_trip():
    import json

    centers = np.array([[0.0, 0.0], [1.0, -1.0]])
    fm = FeatureMap(dim=2, poly_degree=3, poly_cross=True, rbf_sigma=0.7, rbf_centers=centers)
    model = LinearEnergyModel(
        potential_map=fm, interaction_map=polynomial_map(2, 2), use_internal=True,
        ridge_lambda=0.5,
    )
    model.theta[:] = np.arange(model.n_active, dtype=np.float64)
    clone = LinearEnergyModel.from_json(json.loads(json.dumps(model.to_json())))
    np.testing.assert_array_equal(clone.theta, model.theta)
    assert clone.ridge_lambda == 0.5
    assert clone.use_internal
    x = np.random.default_rng(7).normal(size=(4, 2))
    np.testing.assert_array_equal(clone.grad_potential(x), model.grad_potential(x))
    np.testing.assert_array_equal(
        eval_features(clone.potential_map, x), eval_features(fm, x)
    )
