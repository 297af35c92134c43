"""Reference computations that only the tests need.

``eval_features`` gives feature values, which the tests difference to check
``features.jacobian_features``; no learner reads them.  ``forward`` and
``forward_cache`` run the whole net, output included, which the fitting
passes of ``jkoflow.nn`` skip; the tests difference them to check the input
gradients and compare them with a naive reimplementation.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from jkoflow.features import FeatureMap
from jkoflow.measures import as_batch
from jkoflow.nn import Mlp, _buffer_size, _softplus_and_sigmoid_over


def eval_features(fm: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Feature values, shape (n_features,) for a point or (B, n_features)."""
    xb, single = as_batch(x, fm.dim)
    parts = []
    for p in range(1, fm.poly_degree + 1):
        parts.append(xb**p)
    if fm.poly_cross and fm.dim > 1:
        pairs = combinations(range(fm.dim), 2)
        parts.append(np.stack([xb[:, i] * xb[:, j] for i, j in pairs], axis=1))
    if fm.rbf_centers is not None:
        diff = xb[:, None, :] - fm.rbf_centers[None, :, :]
        parts.append(np.exp(-(diff**2).sum(axis=2) / fm.rbf_sigma))
    out = np.concatenate(parts, axis=1)
    return out[0] if single else out


def softplus_and_sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(z) and sigmoid(z) for a 2-d z, through the fused activation
    that the net passes use."""
    acts = z.copy()
    sigs = np.empty_like(z)
    _softplus_and_sigmoid_over(acts, sigs, np.empty(_buffer_size(z.shape[0], [z.shape[1]])))
    return acts, sigs


def forward_cache(mlp: Mlp, x: np.ndarray):
    """Activations A and hidden sigmoids S for a batch."""
    activations = [x]
    sigmoids = []
    n_layers = len(mlp.weights)
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = activations[-1] @ w.T + b
        if l < n_layers - 1:
            act, sig = softplus_and_sigmoid(z)
            sigmoids.append(sig)
            activations.append(act)
        else:
            activations.append(z)
    return activations, sigmoids


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Scalar outputs, shape (B,)."""
    activations, _ = forward_cache(mlp, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return activations[-1][:, 0]
