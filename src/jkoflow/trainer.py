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

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import linear_solver, measures, nn, ot
from .datagen import predict
from .density import EmReport, GaussianMixture, fit_gmm, score
from .features import FeatureMap, build_default
from .linear_solver import LinearEnergyModel, fit_linear
from .measures import PopulationTrajectory
from .nn import AdamState, MlpEnergyModel, adam_step, build_model, loss_and_param_gradient

logger = logging.getLogger(__name__)


class _Parts(NamedTuple):
    """What a variant fits: closed-form linear maps (else networks), an
    interaction term, a diffusion term, and time as a potential input."""

    linear: bool
    interaction: bool
    diffusion: bool
    time_input: bool


_PARTS = {
    #                                linear interaction diffusion time_input
    "star":                  _Parts(False,  True,       True,     False),
    "star_potential":        _Parts(False,  False,      False,    False),
    "star_linear":           _Parts(True,   True,       True,     False),
    "star_linear_potential": _Parts(True,   False,      False,    False),
    "star_time_potential":   _Parts(False,  False,      False,    True),
}
VARIANTS = tuple(_PARTS)


@dataclass
class TrainConfig:
    variant: str = "star_potential"
    epochs: int = 1000
    batch_pairs: int = 250
    learning_rate: float = 1e-3
    gmm_k: int = 10
    ridge_lambda: float = linear_solver.DEFAULT_RIDGE
    hidden: tuple[int, ...] = nn.HIDDEN_WIDTHS
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
        has_features = self.potential_features is not None or self.interaction_features is not None
        if has_features and not _PARTS[self.variant].linear:
            linear = tuple(name for name, parts in _PARTS.items() if parts.linear)
            raise ValueError(
                f"feature maps apply only to the linear variants {linear}, "
                f"not {self.variant!r}"
            )


@dataclass
class FitResult:
    model: MlpEnergyModel | LinearEnergyModel
    loss_history: list[float]
    couple_seconds: float
    train_seconds: float
    # how EM ended on each of snapshots 1..T, in order; empty when the
    # variant fits no density
    em: list[EmReport] = field(default_factory=list)


def _fit_gmms(
    train: PopulationTrajectory, cfg: TrainConfig
) -> list[GaussianMixture | None]:
    """Density estimates for snapshots 1..T (index 0 is never queried), one
    stacked ``fit_gmm`` call per distinct particle count.  EM's temporaries
    hold T * k * d * N entries for a stack of T, so a group of equal-count
    snapshots is split into stacks within ``measures.PAIR_BUDGET`` entries,
    one snapshot a stack at the least."""
    by_count: dict[int, list[int]] = {}
    for t, snap in enumerate(train.snapshots[1:], start=1):
        by_count.setdefault(snap.n_particles, []).append(t)
    gmms: list[GaussianMixture | None] = [None] * len(train.snapshots)
    for n, steps in by_count.items():
        k = min(cfg.gmm_k, n)
        per_stack = measures.budget_rows(k * train.dim * n)
        for start in range(0, len(steps), per_stack):
            stack = steps[start : start + per_stack]
            fitted = fit_gmm(
                np.stack([train.snapshots[t].points for t in stack]),
                np.stack([train.snapshots[t].weights for t in stack]),
                k=k,
                seed=cfg.seed,
            )
            for t, gmm in zip(stack, fitted):
                gmms[t] = gmm
    capped = [t for t, gmm in enumerate(gmms[1:], start=1) if gmm.em.capped]
    if capped:
        logger.warning(
            "EM stopped at its iteration cap before converging on snapshots %s", capped
        )
    return gmms


def fit(train: PopulationTrajectory, cfg: TrainConfig) -> FitResult:
    """Couple once, then fit the requested variant."""
    if train.n_steps < 1:
        raise ValueError("training needs at least two snapshots")
    t0 = time.perf_counter()
    couplings = ot.couple_trajectory(train, cfg.ot)
    couple_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    parts = _PARTS[cfg.variant]
    internal = parts.diffusion and not cfg.pin_internal
    gmms = _fit_gmms(train, cfg) if internal else None
    em = [gmm.em for gmm in gmms[1:]] if gmms is not None else []

    if parts.linear:
        potential_map = cfg.potential_features or build_default(train.dim)
        interaction_map = None
        if parts.interaction:
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
        model, history = _fit_mlp(train, couplings, gmms, cfg, parts, internal)
    train_seconds = time.perf_counter() - t1
    return FitResult(model, history, couple_seconds, train_seconds, em)


def _fit_mlp(
    train: PopulationTrajectory,
    couplings,
    gmms,
    cfg: TrainConfig,
    parts: _Parts,
    internal: bool,
) -> tuple[MlpEnergyModel, list[float]]:
    model = build_model(
        dim=train.dim,
        seed=cfg.seed,
        with_interaction=parts.interaction,
        with_internal=internal,
        time_conditioned=parts.time_input,
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
                dtype=np.float32,  # float32 tapes; the weights and Adam stay float64
            )
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            # a float32 cotangent past 3.4e38 casts to inf under a finite loss,
            # and one Adam step on it would leave NaN in the weights
            if not all(np.isfinite(grad).all() for grad in batch_grads):
                raise RuntimeError(
                    f"non-finite gradient at epoch {epoch}, batch {batch_index}"
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


def save_model(model, path: Path | str, **provenance) -> None:
    """Write ``model`` as one JSON checkpoint; ``provenance`` keys ride along."""
    measures.write_json(path, {**model.to_json(), **provenance})


def load_model(path: Path | str):
    return load_checkpoint(path)[0]


def load_checkpoint(path: Path | str) -> tuple[MlpEnergyModel | LinearEnergyModel, dict]:
    """The model a checkpoint holds, and the checkpoint's whole payload (its
    provenance keys too), from one read.  Every error names the file."""
    data = measures.read_json(path)
    kind = data.get("kind")
    cls = {"mlp": MlpEnergyModel, "linear": LinearEnergyModel}.get(kind)
    if cls is None:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    try:
        return cls.from_json(data), data
    except (KeyError, TypeError, ValueError) as exc:  # a missing key or a misshapen value
        raise ValueError(f"{path}: malformed {kind} checkpoint: {exc!r}") from exc
