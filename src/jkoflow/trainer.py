"""Fitting energy models to observed trajectories, and scoring their predictions.

Variants:
    star                  potential net + interaction net + diffusion parameter
    star_potential        potential net only
    star_time_potential   potential net with time as an extra input
    star_linear           feature-linear potential + interaction + diffusion
    star_linear_potential feature-linear potential only

Couplings between consecutive snapshots are computed once, before the first
epoch, and reused throughout training; density estimates are fitted per
snapshot only when the diffusion term is active.  The network variants score
the coupled end points and set their time inputs once too, so each batch of
pairs is one loss call, whatever steps it mixes.  Fitting is deterministic:
the same data, config and seed give bit-identical parameters.

A fitted model rolls forward through ``datagen.predict``, the same rollout
that generates data from the true energies; it is importable from here too.
``evaluate`` scores one-step predictions against held-out snapshots.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ot
from .datagen import predict
from .density import GaussianMixture, fit_gmm, score
from .features import FeatureMap, build_default
from .linear_solver import LinearEnergyModel, fit_linear
from .measures import PopulationTrajectory
from .nn import AdamState, MlpEnergyModel, adam_step, build_model, loss_and_param_gradient

VARIANTS = (
    "star",
    "star_potential",
    "star_linear",
    "star_linear_potential",
    "star_time_potential",
)
_LINEAR_VARIANTS = ("star_linear", "star_linear_potential")
_INTERNAL_VARIANTS = ("star", "star_linear")


@dataclass
class TrainConfig:
    variant: str = "star_potential"
    epochs: int = 1000
    batch_pairs: int = 250
    learning_rate: float = 1e-3
    gmm_k: int = 10
    ridge_lambda: float = 0.01
    hidden: tuple[int, ...] = (64, 64)
    interaction_subsample: int = 0
    # drop the diffusion term even for variants that normally carry it,
    # e.g. when the data is known to be noiseless
    pin_internal: bool = False
    seed: int = 0
    ot: ot.OtConfig = field(default_factory=ot.OtConfig)
    # linear variants pick their feature maps here; None means the default basis
    potential_features: FeatureMap | None = None
    interaction_features: FeatureMap | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_pairs < 1:
            raise ValueError("batch_pairs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.gmm_k < 1:
            raise ValueError("gmm_k must be >= 1")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be >= 0")
        if any(width < 1 for width in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.interaction_subsample < 0:
            raise ValueError("interaction_subsample must be >= 0")


@dataclass
class FitResult:
    model: MlpEnergyModel | LinearEnergyModel
    loss_history: list[float]
    couple_seconds: float
    train_seconds: float


def _fit_gmms(
    train: PopulationTrajectory, cfg: TrainConfig
) -> list[GaussianMixture | None]:
    """Density estimates for snapshots 1..T (index 0 is never queried)."""
    gmms: list[GaussianMixture | None] = [None]
    for snap in train.snapshots[1:]:
        k = min(cfg.gmm_k, snap.n_particles)
        gmms.append(fit_gmm(snap.points, snap.weights, k=k, seed=cfg.seed))
    return gmms


def fit(train: PopulationTrajectory, cfg: TrainConfig) -> FitResult:
    """Couple once, then fit the requested variant."""
    if train.n_steps < 1:
        raise ValueError("training needs at least two snapshots")
    t0 = time.perf_counter()
    couplings = ot.couple_trajectory(train, cfg.ot)
    couple_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    internal = cfg.variant in _INTERNAL_VARIANTS and not cfg.pin_internal
    gmms = _fit_gmms(train, cfg) if internal else None

    if cfg.variant in _LINEAR_VARIANTS:
        potential_map = cfg.potential_features or build_default(train.dim)
        interaction_map = None
        if cfg.variant == "star_linear":
            interaction_map = cfg.interaction_features or build_default(train.dim)
        template = LinearEnergyModel(
            potential_map=potential_map,
            interaction_map=interaction_map,
            use_internal=internal,
            ridge_lambda=cfg.ridge_lambda,
        )
        model, loss = fit_linear(template, train, couplings, gmms)
        history = [loss]
    else:
        model, history = _fit_mlp(train, couplings, gmms, cfg, internal)
    train_seconds = time.perf_counter() - t1
    return FitResult(model, history, couple_seconds, train_seconds)


def _fit_mlp(
    train: PopulationTrajectory,
    couplings,
    gmms,
    cfg: TrainConfig,
    internal: bool,
) -> tuple[MlpEnergyModel, list[float]]:
    model = build_model(
        dim=train.dim,
        seed=cfg.seed,
        with_interaction=cfg.variant == "star",
        with_internal=internal,
        time_conditioned=cfg.variant == "star_time_potential",
        hidden=cfg.hidden,
    )
    params = model.parameters()
    state = AdamState.for_params(params, lr=cfg.learning_rate)

    starts, ends, masses, steps, scores = [], [], [], [], []
    for t, coupling in enumerate(couplings):
        starts.append(train.snapshots[t].points[coupling.source_indices])
        ends.append(train.snapshots[t + 1].points[coupling.target_indices])
        masses.append(coupling.masses)
        steps.append(np.full(coupling.masses.shape[0], t, dtype=np.int64))
        if gmms is not None:
            scores.append(score(gmms[t + 1], ends[-1]))
    x_start = np.concatenate(starts)
    x_end = np.concatenate(ends)
    mass = np.concatenate(masses)
    step_of_pair = np.concatenate(steps)
    score_of_pair = np.concatenate(scores) if gmms is not None else None
    time_of_pair = (step_of_pair + 1) / train.n_steps if model.time_conditioned else None
    populations = [(snap.points, snap.weights) for snap in train.snapshots[1:]]
    n_pairs = mass.shape[0]

    shuffle_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2,)))
    subsample_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(3,)))
    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n_pairs)
        epoch_loss = 0.0
        for batch_index, lo in enumerate(range(0, n_pairs, cfg.batch_pairs)):
            idx = perm[lo : lo + cfg.batch_pairs]
            batch_loss, batch_grads = loss_and_param_gradient(
                model, x_start[idx], x_end[idx], mass[idx], train.tau,
                scores=None if score_of_pair is None else score_of_pair[idx],
                times=None if time_of_pair is None else time_of_pair[idx],
                populations=populations,
                steps=step_of_pair[idx],
                interaction_subsample=cfg.interaction_subsample,
                subsample_rng=subsample_rng,
            )
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            adam_step(state, params, batch_grads)
            epoch_loss += batch_loss
        history.append(epoch_loss)
    return model, history


# ---------------------------------------------------------------------------
# evaluation


def evaluate(
    model,
    test: PopulationTrajectory,
    scheme: str = "explicit",
    beta_noise: bool = False,
    seed: int = 0,
) -> dict:
    """One-step-ahead transport error on held-out data.

    For every observed transition t -> t+1 the model predicts one step from
    the observed snapshot at t, and the earth-mover distance to the observed
    snapshot at t+1 is recorded.  Returns per-step distances plus their mean
    and population standard deviation.
    """
    if test.n_steps < 1:
        raise ValueError("evaluation needs at least two snapshots")
    per_step = []
    for t in range(test.n_steps):
        rollout = predict(
            model, test.snapshots[t], 1, test.tau, scheme,
            beta_noise=beta_noise, seed=seed, time_offset=t, time_scale=test.n_steps,
        )
        per_step.append(ot.emd(rollout.snapshots[1], test.snapshots[t + 1]))
    arr = np.asarray(per_step)
    return {
        "scheme": scheme,
        "per_step_emd": per_step,
        "mean_emd": float(arr.mean()),
        "std_emd": float(arr.std()),
    }


# ---------------------------------------------------------------------------
# model checkpoints


def save_model(model, path: Path | str) -> None:
    with open(path, "w") as fh:
        json.dump(model.to_json(), fh, indent=2)
        fh.write("\n")


def load_model(path: Path | str):
    with open(path) as fh:
        data = json.load(fh)
    kind = data.get("kind")
    if kind == "mlp":
        return MlpEnergyModel.from_json(data)
    if kind == "linear":
        return LinearEnergyModel.from_json(data)
    raise ValueError(f"{path}: unknown model kind {kind!r}")
