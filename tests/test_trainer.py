"""Tests for the fitting pipelines, rollout schemes and evaluation.

Closed-form targets come from linear-drift constructions: a quadratic
potential contracts explicit rollouts by (1 - 2 tau) per step and implicit
ones by 1/(1 + 2 tau), and implicitly generated data makes the residual of
the true coefficients machine-zero.  The full-budget convergence claims run
in the acceptance suite; the gradient-descent check here is a scaled-down
deterministic run.
"""

from __future__ import annotations

import functools
import json
import logging

import numpy as np
import pytest

import jkoflow.trainer as trainer_mod
from jkoflow import density, nn, ot
from jkoflow.datagen import IMPLICIT_TOL, SCHEMES, GatedQuadratic, GenConfig, _step_rng, generate
from jkoflow.density import GaussianMixture, score
from jkoflow.features import polynomial_map
from jkoflow.functionals import EnergySpec, GroundTruthFunction
from jkoflow.linear_solver import LinearEnergyModel, fit_linear
from jkoflow.measures import EmpiricalSnapshot, PopulationTrajectory, uniform_snapshot
from jkoflow.nn import MlpEnergyModel, build_model, loss_and_param_gradient
from jkoflow.trainer import (
    TrainConfig,
    evaluate,
    fit,
    load_model,
    predict,
    save_model,
)


def _trajectory(frames: list[np.ndarray], tau: float) -> PopulationTrajectory:
    return PopulationTrajectory(
        [uniform_snapshot(f, t) for t, f in enumerate(frames)], tau
    )


def _implicit_quadratic(n: int = 20, steps: int = 2, tau: float = 0.1):
    x = np.linspace(-2.0, 2.0, n)[:, None]
    frames = [x]
    for _ in range(steps):
        frames.append(frames[-1] / (1.0 + 2.0 * tau))
    return _trajectory(frames, tau)


def _quadratic_model(extra: tuple[float, ...] = ()) -> LinearEnergyModel:
    # gradient 2x, i.e. the potential x^2
    return LinearEnergyModel(
        potential_map=polynomial_map(1, 2),
        use_internal=bool(extra),
        theta=np.array([0.0, 1.0, *extra]),
    )


# ---------------------------------------------------------------------------
# config and dispatch


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(variant="bogus"), "variant"),
        (dict(epochs=0), "epochs"),
        (dict(batch_pairs=0), "batch_pairs"),
        (dict(learning_rate=0.0), "learning_rate"),
        (dict(gmm_k=0), "gmm_k"),
        (dict(ridge_lambda=-0.1), "ridge_lambda"),
        (dict(interaction_subsample=-3), "interaction_subsample"),
        (dict(hidden=(0,)), "hidden"),
        (dict(potential_features=polynomial_map(1, 2)), "linear variants"),
    ],
)
def test_train_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**kwargs)


def test_fit_needs_two_snapshots():
    traj = _trajectory([np.zeros((4, 1))], tau=0.1)
    with pytest.raises(ValueError, match="two snapshots"):
        fit(traj, TrainConfig(variant="star_linear_potential"))


# ---------------------------------------------------------------------------
# linear variants


def test_flat_data_fits_to_zero_coefficients():
    pts = np.linspace(-1, 1, 10)[:, None]
    traj = _trajectory([pts, pts, pts], tau=0.1)
    result = fit(traj, TrainConfig(variant="star_linear_potential",
                                   potential_features=polynomial_map(1, 3)))
    assert np.linalg.norm(result.model.theta) < 1e-6
    assert len(result.loss_history) == 1
    assert result.loss_history[0] >= 0.0


def test_linear_variant_recovers_quadratic_exactly():
    traj = _implicit_quadratic()
    cfg = TrainConfig(
        variant="star_linear_potential",
        potential_features=polynomial_map(1, 4),
        ridge_lambda=0.0,
    )
    result = fit(traj, cfg)
    np.testing.assert_allclose(result.model.theta, [0.0, 1.0, 0.0, 0.0], atol=1e-6)
    assert result.loss_history == [pytest.approx(0.0, abs=1e-10)]
    assert result.model.use_internal is False
    assert result.model.interaction_map is None


def test_star_linear_builds_all_blocks_and_is_deterministic():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 1))
    traj = _trajectory([x, 0.9 * x, 0.81 * x], tau=0.1)
    cfg = TrainConfig(
        variant="star_linear",
        potential_features=polynomial_map(1, 2),
        interaction_features=polynomial_map(1, 1),
        gmm_k=2,
    )
    a = fit(traj, cfg)
    b = fit(traj, cfg)
    assert isinstance(a.model, LinearEnergyModel)
    assert a.model.use_internal and a.model.n_active == 4
    np.testing.assert_array_equal(a.model.theta, b.model.theta)
    pinned = fit(traj, TrainConfig(
        variant="star_linear",
        potential_features=polynomial_map(1, 2),
        interaction_features=polynomial_map(1, 1),
        pin_internal=True,
    ))
    assert pinned.model.use_internal is False
    assert pinned.model.n_active == 3


def _ragged_diffusion_trajectory(counts: list[int]) -> PopulationTrajectory:
    """A sphere + sphere trajectory with beta = 0.1, snapshot t cut to counts[t]
    particles with random weights."""
    sphere = GroundTruthFunction("sphere", 2)
    train, _ = generate(GenConfig(
        spec=EnergySpec(potential=sphere, interaction=sphere, beta=0.1),
        n_particles=160, dim=2, timesteps=len(counts) - 1, tau=0.01, seed=5,
    ))
    rng = np.random.default_rng(5)
    snaps = []
    for snap, count in zip(train.snapshots, counts):
        weights = rng.uniform(0.5, 1.5, size=count)
        snaps.append(EmpiricalSnapshot(snap.points[:count], weights / weights.sum(), snap.time_index))
    return PopulationTrajectory(snaps, train.tau)


def test_stacked_densities_match_per_snapshot_fits_on_ragged_data(monkeypatch):
    # snapshots 1..5 hold 70, 60, 70, 50, 60 particles: three stacked fits
    traj = _ragged_diffusion_trajectory([80, 70, 60, 70, 50, 60])
    cfg = TrainConfig(variant="star_linear", gmm_k=4, seed=2)
    stacks, solved = [], []

    def spy_gmm(points, weights, **kwargs):
        stacks.append(points.shape[:2])
        return density.fit_gmm(points, weights, **kwargs)

    def spy_linear(template, train, couplings, gmms):
        solved.append(gmms)
        return fit_linear(template, train, couplings, gmms)

    monkeypatch.setattr(trainer_mod, "fit_gmm", spy_gmm)
    monkeypatch.setattr(trainer_mod, "fit_linear", spy_linear)
    result = fit(traj, cfg)
    assert stacks == [(2, 70), (2, 60), (1, 50)]
    (gmms,) = solved
    assert gmms[0] is None
    for gmm, snap in zip(gmms[1:], traj.snapshots[1:]):
        alone = density.fit_gmm(snap.points, snap.weights, k=4, seed=2)
        np.testing.assert_array_equal(gmm.weights, alone.weights)
        np.testing.assert_array_equal(gmm.means, alone.means)
        np.testing.assert_array_equal(gmm.covariances, alone.covariances)
        assert gmm.em == alone.em
    assert result.em == [gmm.em for gmm in gmms[1:]]
    assert fit(traj, TrainConfig(variant="star_linear", pin_internal=True)).em == []


def test_equal_count_groups_split_to_the_stack_budget(monkeypatch):
    # snapshots 1..4 hold 60, 60, 60, 50 particles; k * d * N is 480 at N = 60
    traj = _ragged_diffusion_trajectory([80, 60, 60, 60, 50])
    cfg = TrainConfig(variant="star_linear", gmm_k=4, seed=2)
    stacks = []

    def spy_gmm(points, weights, **kwargs):
        stacks.append(points.shape[:2])
        return density.fit_gmm(points, weights, **kwargs)

    monkeypatch.setattr(trainer_mod, "fit_gmm", spy_gmm)
    whole = trainer_mod._fit_gmms(traj, cfg)
    assert stacks == [(3, 60), (1, 50)]
    stacks.clear()
    monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 2 * 480)
    split = trainer_mod._fit_gmms(traj, cfg)
    assert stacks == [(2, 60), (1, 60), (1, 50)]
    for a, b in zip(whole[1:], split[1:]):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covariances, b.covariances)
        assert a.em == b.em


def test_fit_records_and_warns_on_capped_em(monkeypatch, caplog):
    traj = _ragged_diffusion_trajectory([80, 70, 60, 70, 50, 60])
    monkeypatch.setattr(
        trainer_mod, "fit_gmm", functools.partial(density.fit_gmm, max_iters=3)
    )
    with caplog.at_level(logging.WARNING, logger="jkoflow.trainer"):
        result = fit(traj, TrainConfig(variant="star_linear", gmm_k=4))
    assert [(r.iterations, r.capped) for r in result.em] == [(3, True)] * 5
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        "EM stopped at its iteration cap before converging on snapshots [1, 2, 3, 4, 5]"
    ]


# ---------------------------------------------------------------------------
# gradient variants


def test_mlp_fit_is_deterministic_and_seed_sensitive():
    traj = _implicit_quadratic(n=12)
    cfg = TrainConfig(variant="star_potential", epochs=5, hidden=(8,), seed=3)
    a = fit(traj, cfg)
    b = fit(traj, cfg)
    assert a.loss_history == b.loss_history
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        np.testing.assert_array_equal(pa, pb)
    c = fit(traj, TrainConfig(variant="star_potential", epochs=5, hidden=(8,), seed=4))
    assert any(
        not np.array_equal(pa, pc)
        for pa, pc in zip(a.model.parameters(), c.model.parameters())
    )


def test_star_fit_keeps_float64_master_state_and_round_trips(tmp_path, monkeypatch):
    # the tapes run in float32; the parameters, Adam's moments and the
    # gradients Adam takes stay float64, and so does the checkpoint
    traj = _implicit_quadratic(n=12)
    cfg = TrainConfig(variant="star", epochs=3, batch_pairs=8, hidden=(8,), gmm_k=2, seed=5)
    steps, tape_dtypes = [], set()
    adam_step = trainer_mod.adam_step
    monkeypatch.setattr(
        trainer_mod, "adam_step",
        lambda state, params, grads: steps.append((state, grads)) or adam_step(state, params, grads),
    )
    tape = nn._tape
    monkeypatch.setattr(nn, "_tape", lambda mlp, xb: tape_dtypes.add(xb.dtype) or tape(mlp, xb))
    result = fit(traj, cfg)
    monkeypatch.undo()
    model = result.model
    assert model.interaction_net is not None and model.beta_raw is not None
    assert tape_dtypes == {np.dtype(np.float32)}
    assert len(steps) == 3 * 3  # 24 pairs in batches of 8, three epochs
    assert all(p.dtype == np.float64 for p in model.parameters())
    for state, grads in steps:
        assert all(np.asarray(g).dtype == np.float64 for g in grads)
        assert state.first.dtype == state.second.dtype == np.float64
    save_model(model, tmp_path / "star.json")
    loaded = load_model(tmp_path / "star.json")
    assert loaded.to_json() == model.to_json()
    for p, q in zip(loaded.parameters(), model.parameters()):
        assert p.dtype == np.float64
        np.testing.assert_array_equal(p, q)
    again = fit(traj, cfg)
    assert again.loss_history == result.loss_history
    for p, q in zip(again.model.parameters(), model.parameters()):
        np.testing.assert_array_equal(p, q)


def test_fit_couples_each_pair_exactly_once():
    # the coupling count must not depend on the epoch budget
    traj = _implicit_quadratic(n=20, steps=3)
    counts = []
    for epochs in (1, 4):
        ot.reset_solve_count()
        fit(traj, TrainConfig(variant="star_potential", epochs=epochs, hidden=(4,)))
        counts.append(ot.get_solve_count())
    assert counts == [3, 3]


def test_star_pin_internal_drops_diffusion_parameter():
    traj = _implicit_quadratic(n=10)
    cfg = TrainConfig(variant="star", epochs=2, hidden=(4,), pin_internal=True)
    result = fit(traj, cfg)
    assert isinstance(result.model, MlpEnergyModel)
    assert result.model.beta_raw is None
    assert result.model.interaction_net is not None
    full = fit(traj, TrainConfig(variant="star", epochs=2, hidden=(4,), gmm_k=2))
    assert full.model.beta_raw is not None


def test_star_reduces_to_star_potential_when_pinned_terms_vanish():
    # same seed draws the potential net first, so both models start from the
    # same potential weights; zeroing the interaction output layer and pushing
    # the raw diffusion parameter to -700 (softplus ~ 1e-304, which rounds
    # away against an O(1) residual) must reproduce the reduced loss exactly
    full = build_model(dim=1, seed=11, with_interaction=True, with_internal=True, hidden=(6,))
    reduced = build_model(dim=1, seed=11, hidden=(6,))
    full.interaction_net.weights[-1][:] = 0.0
    full.beta_raw[...] = -700.0
    rng = np.random.default_rng(1)
    x0, x1 = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
    masses = np.full(5, 0.2)
    gmm = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.eye(1)[None])
    loss_full, _ = loss_and_param_gradient(
        full, x0, x1, masses, 0.1,
        scores=score(gmm, x1), populations=[(x1, masses)],
    )
    loss_reduced, _ = loss_and_param_gradient(reduced, x0, x1, masses, 0.1)
    assert loss_full == loss_reduced


def test_loss_at_ground_truth_is_machine_zero():
    traj = _implicit_quadratic()
    model = _quadratic_model()
    tau = traj.tau
    loss = 0.0
    for t in range(traj.n_steps):
        x0 = traj.snapshots[t].points
        x1 = traj.snapshots[t + 1].points
        residual = model.grad_potential(x1) + (x1 - x0) / tau
        loss += float(traj.snapshots[t].weights @ (residual**2).sum(axis=1))
    assert loss < 1e-20


def test_fit_reports_epoch_and_batch_on_non_finite_loss():
    # displacement and tau chosen so the pair costs stay finite for the
    # coupling step but the squared residual (delta/tau) overflows
    frames = [np.zeros((4, 1)), np.full((4, 1), 1e153)]
    traj = _trajectory(frames, tau=1e-3)
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=r"epoch 0, batch 0"):
        fit(traj, TrainConfig(variant="star_potential", epochs=1, hidden=(4,)))


def test_fit_stops_before_an_adam_step_on_a_non_finite_gradient(monkeypatch):
    # pairs 1e38 apart at tau = 1e-3: the float64 loss (near 1e82) is finite,
    # but the float32 cotangent (near 1e41) casts to inf
    initial = []

    def build_and_keep(**kwargs):
        model = build_model(**kwargs)
        initial.extend((p, p.copy()) for p in model.parameters())
        return model

    monkeypatch.setattr(trainer_mod, "build_model", build_and_keep)
    traj = _trajectory([np.zeros((4, 1)), np.full((4, 1), 1e38)], tau=1e-3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        RuntimeError, match=r"non-finite gradient at epoch 0, batch 0"
    ):
        fit(traj, TrainConfig(variant="star_potential", epochs=1, hidden=(4,)))
    assert initial
    for param, before in initial:
        np.testing.assert_array_equal(param, before)


def test_gradient_training_converges_on_smooth_potential():
    # scaled-down run-to-convergence check; the full 1000-epoch budget claim
    # lives in the acceptance suite
    spec = EnergySpec(potential=GroundTruthFunction("styblinski_tang", 2))
    train, _ = generate(GenConfig(spec, n_particles=120, dim=2, timesteps=3, tau=0.01, seed=0))
    result = fit(train, TrainConfig(
        variant="star_potential", epochs=600, learning_rate=3e-3, seed=0,
    ))
    history = result.loss_history
    assert history[-1] < 0.01 * history[0]
    assert all(v >= 0.0 for v in history)
    assert len(history) == 600
    assert result.couple_seconds >= 0.0 and result.train_seconds >= 0.0


# ---------------------------------------------------------------------------
# rollouts


def test_predict_explicit_zero_models_are_identity():
    x = np.random.default_rng(2).normal(size=(6, 1))
    snap = uniform_snapshot(x, 0)
    zero_linear = LinearEnergyModel(potential_map=polynomial_map(1, 2))
    roll = predict(zero_linear, snap, steps=5, tau=0.1)
    assert roll.n_snapshots == 6
    assert [s.time_index for s in roll.snapshots] == list(range(6))
    assert roll.tau == 0.1
    for s in roll.snapshots:
        np.testing.assert_array_equal(s.points, x)
        np.testing.assert_array_equal(s.weights, snap.weights)
    zero_mlp = build_model(dim=1, seed=0, hidden=(4,))
    zero_mlp.potential_net.weights[-1][:] = 0.0
    roll = predict(zero_mlp, snap, steps=2, tau=0.1)
    np.testing.assert_array_equal(roll.snapshots[-1].points, x)


def test_predict_explicit_quadratic_contracts_per_step():
    x = np.linspace(-1, 1, 7)[:, None]
    snap = uniform_snapshot(x, 0)
    roll = predict(_quadratic_model(), snap, steps=3, tau=0.05)
    for k, s in enumerate(roll.snapshots):
        np.testing.assert_allclose(s.points, (1 - 0.1) ** k * x, rtol=1e-13)


def test_predict_explicit_noise_matches_hand_formula():
    x = np.ones((3, 1))
    snap = uniform_snapshot(x, 0)
    beta = 0.3
    tau = 0.05
    roll = predict(
        _quadratic_model((beta,)), snap, steps=2, tau=tau, beta_noise=True, seed=7
    )
    state = x.copy()
    for k in range(2):
        noise = _step_rng(7, k).standard_normal(state.shape)
        state = (1 - 2 * tau) * state + np.sqrt(2 * tau * beta) * noise
        np.testing.assert_array_equal(roll.snapshots[k + 1].points, state)
    # noise off: deterministic rollout
    quiet = predict(_quadratic_model((beta,)), snap, steps=2, tau=tau)
    np.testing.assert_allclose(quiet.snapshots[-1].points, (1 - 2 * tau) ** 2 * x, rtol=1e-13)


def test_predict_explicit_negative_beta_is_clamped_to_deterministic():
    x = np.ones((3, 1))
    snap = uniform_snapshot(x, 0)
    roll = predict(
        _quadratic_model((-0.5,)), snap, steps=1, tau=0.05, beta_noise=True, seed=1
    )
    np.testing.assert_allclose(roll.snapshots[1].points, 0.9 * x, rtol=1e-13)


def test_predict_explicit_reports_non_finite_state():
    model = LinearEnergyModel(
        potential_map=polynomial_map(1, 2), theta=np.array([0.0, -1e200])
    )
    snap = uniform_snapshot(np.ones((2, 1)), 0)
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="non-finite state"):
        predict(model, snap, steps=3, tau=0.1)


def test_predict_time_conditioned_requires_time_scale():
    model = build_model(dim=1, seed=0, time_conditioned=True, hidden=(4,))
    snap = uniform_snapshot(np.ones((2, 1)), 0)
    with pytest.raises(ValueError, match="time_scale"):
        predict(model, snap, steps=1, tau=0.1)
    with pytest.raises(ValueError, match="time_scale"):
        predict(model, snap, steps=1, tau=0.1, scheme="implicit")
    for scheme in SCHEMES:
        with pytest.raises(ValueError, match="time_scale"):
            predict(GatedQuadratic(), snap, steps=1, tau=0.1, scheme=scheme)


@pytest.mark.parametrize("steps", [0, -3])
def test_predict_rejects_fewer_than_one_step(steps):
    snap = uniform_snapshot(np.array([[1.0], [2.0]]), 0)
    for scheme in SCHEMES:
        with pytest.raises(ValueError, match="steps must be >= 1"):
            predict(_quadratic_model(), snap, steps=steps, tau=0.1, scheme=scheme)


def test_predict_implicit_quadratic_and_identity():
    x = np.linspace(-1, 1, 6)[:, None]
    snap = uniform_snapshot(x, 0)
    flat = LinearEnergyModel(potential_map=polynomial_map(1, 2))
    roll = predict(flat, snap, steps=2, tau=0.1, scheme="implicit")
    np.testing.assert_array_equal(roll.snapshots[-1].points, x)
    roll = predict(_quadratic_model(), snap, steps=3, tau=0.1, scheme="implicit")
    for k, s in enumerate(roll.snapshots):
        np.testing.assert_allclose(s.points, x / 1.2**k, atol=1e-7)


def test_predict_implicit_steps_interaction_models():
    # one implicit step meets the whole-cloud balance on every row:
    # x' - x + tau (grad_V(x') + sum_j w_j grad_U(x' - x'_j)) = 0
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(9, 2))
    snap = EmpiricalSnapshot(x, rng.dirichlet(np.ones(9)), 0)
    tau = 0.01
    poly = polynomial_map(2, 2)
    linear = LinearEnergyModel(
        potential_map=poly, interaction_map=poly, theta=10.0 * rng.normal(size=2 * poly.n_features)
    )
    sphere = GroundTruthFunction("sphere", 2)
    models = (
        build_model(dim=2, seed=0, with_interaction=True, hidden=(4,)),
        linear,
        EnergySpec(potential=sphere, interaction=sphere),
    )
    for model in models:
        new = predict(model, snap, steps=1, tau=tau, scheme="implicit").snapshots[1].points
        drift = model.grad_potential(new) + model.grad_interaction_mean(new, new, snap.weights)
        residual = new - x + tau * drift
        assert np.linalg.norm(residual, axis=1).max() < IMPLICIT_TOL
    # sphere + sphere in closed form: grad_V(x') = -20 x', and the pair mean
    # is -20 (x' - weighted mean of x')
    centre = snap.weights @ new
    np.testing.assert_allclose(new - x - tau * 20.0 * (2 * new - centre), 0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_oracle_model_scores_zero():
    x = np.linspace(-1, 1, 12)[:, None]
    tau = 0.05
    frames = [x * (1 - 2 * tau) ** k for k in range(4)]
    traj = _trajectory(frames, tau)
    report = evaluate(_quadratic_model(), traj, scheme="explicit")
    assert report["mean_emd"] < 1e-10
    assert len(report["per_step_emd"]) == 3
    assert report["scheme"] == "explicit"


def test_evaluate_zero_model_equals_displacement_baseline():
    rng = np.random.default_rng(3)
    frames = [rng.normal(size=(8, 1)) for _ in range(3)]
    traj = _trajectory(frames, tau=0.1)
    zero = LinearEnergyModel(potential_map=polynomial_map(1, 2))
    report = evaluate(zero, traj, scheme="explicit")
    expected = [
        ot.emd(traj.snapshots[t], traj.snapshots[t + 1]) for t in range(2)
    ]
    np.testing.assert_allclose(report["per_step_emd"], expected, rtol=1e-12)
    assert report["mean_emd"] == pytest.approx(np.mean(expected), rel=1e-12)
    assert report["std_emd"] == pytest.approx(np.std(expected), rel=1e-12)


def test_evaluate_implicit_scheme_matches_implicit_data():
    traj = _implicit_quadratic(n=10, steps=3)
    report = evaluate(_quadratic_model(), traj, scheme="implicit")
    assert report["mean_emd"] < 1e-7


def test_evaluate_rejects_a_single_snapshot():
    single = _trajectory([np.linspace(-1, 1, 5)[:, None]], tau=0.1)
    with pytest.raises(ValueError, match="at least two snapshots"):
        evaluate(_quadratic_model(), single)


def test_implicit_prediction_rejects_beta_noise():
    traj = _implicit_quadratic(n=4)
    model = _quadratic_model((0.3,))
    with pytest.raises(ValueError, match="beta_noise"):
        predict(model, traj.snapshots[0], 1, traj.tau, "implicit", beta_noise=True, seed=1)
    with pytest.raises(ValueError, match="beta_noise"):
        evaluate(model, traj, scheme="implicit", beta_noise=True, seed=1)


def test_beta_noise_rejects_an_energy_without_diffusion():
    # each kind of energy without a diffusion term would roll out
    # deterministically, which beta_noise=True would hide
    traj = _trajectory([np.linspace(-1, 1, 4)[:, None]] * 2, tau=0.1)
    energies = [
        build_model(dim=1, seed=0, hidden=(4,)),
        _quadratic_model(),
        EnergySpec(potential=GroundTruthFunction("sphere", 1)),
    ]
    for energy in energies:
        with pytest.raises(ValueError, match="diffusion term"):
            predict(energy, traj.snapshots[0], 1, traj.tau, beta_noise=True, seed=1)
        with pytest.raises(ValueError, match="diffusion term"):
            evaluate(energy, traj, beta_noise=True, seed=1)


def test_evaluate_rejects_unknown_scheme():
    traj = _implicit_quadratic(n=4)
    with pytest.raises(ValueError, match="scheme"):
        evaluate(_quadratic_model(), traj, scheme="leapfrog")


# ---------------------------------------------------------------------------
# checkpoints


def test_save_load_round_trip(tmp_path):
    x = np.random.default_rng(4).normal(size=(5, 1))
    linear = _quadratic_model((0.2,))
    save_model(linear, tmp_path / "linear.json")
    loaded = load_model(tmp_path / "linear.json")
    assert isinstance(loaded, LinearEnergyModel)
    np.testing.assert_array_equal(loaded.theta, linear.theta)
    np.testing.assert_array_equal(loaded.grad_potential(x), linear.grad_potential(x))

    mlp = build_model(dim=1, seed=5, with_internal=True, hidden=(4,))
    save_model(mlp, tmp_path / "mlp.json")
    loaded = load_model(tmp_path / "mlp.json")
    assert isinstance(loaded, MlpEnergyModel)
    assert loaded.beta == mlp.beta
    np.testing.assert_array_equal(loaded.grad_potential(x), mlp.grad_potential(x))

    # extra keywords ride along in the file and leave the loaded model as it was
    for model, name in [(linear, "linear_run.json"), (mlp, "mlp_run.json")]:
        save_model(model, tmp_path / name, loss_history=[1.0])
        assert json.loads((tmp_path / name).read_text())["loss_history"] == [1.0]
        loaded = load_model(tmp_path / name)
        assert loaded.to_json() == model.to_json()
        np.testing.assert_array_equal(loaded.grad_potential(x), model.grad_potential(x))


def test_load_model_rejects_unknown_kind(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"kind": "bogus"}))
    with pytest.raises(ValueError, match="unknown model kind"):
        load_model(path)
