"""The benchmark's tracer still sees the layers it reports.

``perfbench/tracing.py`` replaces jkoflow functions at the names their
callers look them up by, at call time.  A kernel that reached its per-block
pass through another name would leave those spans empty without failing
anything, so this checks both interaction means on a few points, the true
interaction mean of a small generation, and the loss calls of a small
network fit.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from jkoflow import datagen, ot
from jkoflow.datagen import GenConfig
from jkoflow.features import polynomial_map
from jkoflow.functionals import EnergySpec, GroundTruthFunction
from jkoflow.linear_solver import LinearEnergyModel
from jkoflow.measures import PopulationTrajectory, uniform_snapshot
from jkoflow.nn import build_model
from jkoflow.trainer import TrainConfig, fit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_sees_the_per_block_passes_of_both_pair_kernels(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 2))
    w = np.full(5, 0.2)
    mlp_model = build_model(dim=2, seed=0, with_interaction=True, hidden=(4,))
    linear_model = LinearEnergyModel(interaction_map=polynomial_map(2, 2))
    with tracing.Tracer() as tracer:
        mlp_model.grad_interaction_mean(x, x, w)
        linear_model.grad_interaction_mean(x, x, w)
    spans = [(span.name, span.parent) for span in tracer.spans]
    assert spans == [
        ("nn.grad_interaction_mean", -1),
        ("nn.input_gradient", 0),
        ("linear_solver.grad_interaction_mean", -1),
        ("features.jacobian_features", 2),
    ]


def test_generation_makes_one_interaction_mean_per_step(monkeypatch):
    # the true interaction reaches its pairwise mean through datagen's name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    sphere = GroundTruthFunction("sphere", 2)
    cfg = GenConfig(
        EnergySpec(potential=sphere, interaction=sphere, beta=0.1),
        n_particles=12, timesteps=3, seed=1,
    )
    with tracing.Tracer() as tracer:
        datagen.generate(cfg)
    spans = [(span.name, span.parent, span.stats) for span in tracer.spans]
    assert spans == [("datagen.generate", -1, {})] + [
        ("datagen.interaction_gradient_mean", 0, {"rows": 12 * 12})
    ] * cfg.timesteps


def test_network_fit_makes_one_loss_call_per_batch(monkeypatch):
    # the shuffled batches mix the two steps' pairs, and each is one loss call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rng = np.random.default_rng(1)
    snaps = [uniform_snapshot(rng.normal(size=(20, 2)), t) for t in range(3)]
    traj = PopulationTrajectory(snaps, tau=0.1)
    cfg = TrainConfig(variant="star", epochs=2, batch_pairs=16, hidden=(4,), gmm_k=2)
    n_pairs = sum(c.masses.shape[0] for c in ot.couple_trajectory(traj, cfg.ot))
    with tracing.Tracer() as tracer:
        result = fit(traj, cfg)
    assert result.model.beta_raw is not None
    names = [span.name for span in tracer.spans]
    assert names.count("nn.loss_and_param_gradient") == cfg.epochs * math.ceil(
        n_pairs / cfg.batch_pairs
    )
