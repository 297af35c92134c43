"""The benchmark's tracer still sees the pair kernels' per-block passes.

``perfbench/tracing.py`` replaces jkoflow functions at the names their
callers look them up by, at call time.  A kernel that reached its per-block
pass through another name would leave those spans empty without failing
anything, so this checks both interaction means on a few points.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from jkoflow.features import polynomial_map
from jkoflow.linear_solver import LinearEnergyModel
from jkoflow.nn import build_model

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
