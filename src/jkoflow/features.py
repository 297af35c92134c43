"""Fixed feature maps for the closed-form (linear-in-parameters) learners.

A feature map concatenates per-coordinate monomials (optionally with pairwise
cross terms) and Gaussian bumps ``exp(-||x - c||^2 / sigma)``.  Default bump
centers form a 10-per-axis grid over the sampling box in one or two
dimensions; in higher dimension 200 centers are drawn uniformly from the box
with a fixed, documented seed so every run sees the same basis.

Feature order: monomials degree-major (all coordinates to power 1, then power
2, ...), then cross terms x_i * x_j for i < j, then bumps in center order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .measures import as_batch

DEFAULT_POLY_DEGREE = 4
DEFAULT_RBF_SIGMA = 0.5
DEFAULT_RBF_GRID = 10
DEFAULT_BOX = (-4.0, 4.0)
RANDOM_CENTER_COUNT = 200
RANDOM_CENTER_SEED = 1729  # fixed: high-dimensional bump centers must not drift between runs


@dataclass
class FeatureMap:
    """Concatenation of monomial and Gaussian-bump features on R^dim."""

    dim: int
    poly_degree: int = 0
    poly_cross: bool = False
    rbf_sigma: float = DEFAULT_RBF_SIGMA
    rbf_centers: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.poly_degree < 0:
            raise ValueError("poly_degree must be >= 0")
        if self.rbf_centers is not None:
            self.rbf_centers = np.asarray(self.rbf_centers, dtype=np.float64)
            if self.rbf_centers.ndim != 2 or self.rbf_centers.shape[1] != self.dim:
                raise ValueError(
                    f"rbf_centers must be (m, {self.dim}), got {self.rbf_centers.shape}"
                )
            if self.rbf_sigma <= 0:
                raise ValueError("rbf_sigma must be positive")
        if self.n_features == 0:
            raise ValueError("feature map is empty; enable monomials or bumps")
        self._cross_pairs = (
            list(combinations(range(self.dim), 2)) if self.poly_cross else []
        )

    @property
    def n_features(self) -> int:
        n = self.dim * self.poly_degree
        if self.poly_cross:
            n += self.dim * (self.dim - 1) // 2
        if self.rbf_centers is not None:
            n += self.rbf_centers.shape[0]
        return n


def eval_features(fm: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Feature values, shape (n_features,) for a point or (B, n_features)."""
    xb, single = as_batch(x, fm.dim)
    parts = []
    for p in range(1, fm.poly_degree + 1):
        parts.append(xb**p)
    if fm.poly_cross:
        parts.append(np.stack([xb[:, i] * xb[:, j] for i, j in fm._cross_pairs], axis=1))
    if fm.rbf_centers is not None:
        diff = xb[:, None, :] - fm.rbf_centers[None, :, :]
        parts.append(np.exp(-(diff**2).sum(axis=2) / fm.rbf_sigma))
    out = np.concatenate(parts, axis=1)
    return out[0] if single else out


def jacobian_features(fm: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Feature Jacobian, shape (n_features, dim) for a point or (B, n, dim)."""
    xb, single = as_batch(x, fm.dim)
    b, d = xb.shape
    parts = []
    eye = np.eye(d)
    for p in range(1, fm.poly_degree + 1):
        # d/dx_j x_i^p = p x_i^{p-1} [i == j]
        parts.append(p * xb[:, :, None] ** (p - 1) * eye[None, :, :] if p > 1
                     else np.broadcast_to(eye, (b, d, d)).copy())
    if fm.poly_cross:
        cross = np.zeros((b, len(fm._cross_pairs), d))
        for k, (i, j) in enumerate(fm._cross_pairs):
            cross[:, k, i] = xb[:, j]
            cross[:, k, j] = xb[:, i]
        parts.append(cross)
    if fm.rbf_centers is not None:
        diff = xb[:, None, :] - fm.rbf_centers[None, :, :]
        vals = np.exp(-(diff**2).sum(axis=2) / fm.rbf_sigma)
        parts.append(vals[:, :, None] * (-2.0 / fm.rbf_sigma) * diff)
    out = np.concatenate(parts, axis=1)
    return out[0] if single else out


def grid_centers(dim: int, per_axis: int, box: tuple[float, float] = DEFAULT_BOX) -> np.ndarray:
    axes = [np.linspace(box[0], box[1], per_axis)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def random_centers(
    dim: int,
    count: int = RANDOM_CENTER_COUNT,
    box: tuple[float, float] = DEFAULT_BOX,
    seed: int = RANDOM_CENTER_SEED,
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(box[0], box[1], size=(count, dim))


def build_default(
    dim: int,
    box: tuple[float, float] = DEFAULT_BOX,
    include_cross: bool = False,
    rbf_sigma: float = DEFAULT_RBF_SIGMA,
    rbf_grid: int = DEFAULT_RBF_GRID,
) -> FeatureMap:
    """Monomials up to degree 4 plus Gaussian bumps: a grid of ``rbf_grid``
    centers per axis for dim <= 2, otherwise 200 random centers from the box."""
    if dim <= 2:
        centers = grid_centers(dim, rbf_grid, box)
    else:
        centers = random_centers(dim, box=box)
    return FeatureMap(
        dim=dim,
        poly_degree=DEFAULT_POLY_DEGREE,
        poly_cross=include_cross,
        rbf_sigma=rbf_sigma,
        rbf_centers=centers,
    )


def polynomial_map(dim: int, degree: int, cross: bool = False) -> FeatureMap:
    """Monomials only; handy where a small, well-conditioned basis is wanted."""
    return FeatureMap(dim=dim, poly_degree=degree, poly_cross=cross, rbf_centers=None)
