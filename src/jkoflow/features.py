"""Fixed feature maps for the closed-form (linear-in-parameters) learners.

A feature map concatenates per-coordinate monomials (optionally with pairwise
cross terms) and Gaussian bumps ``exp(-||x - c||^2 / sigma)``.  Default bump
centers form a 10-per-axis grid over the sampling box in one or two
dimensions; in higher dimension 200 centers are drawn uniformly from the box
with a fixed, documented seed so every run sees the same basis.

Feature order: monomials degree-major (all coordinates to power 1, then power
2, ...), then cross terms x_i * x_j for i < j, then bumps in center order.

``jacobian_features`` also gives the weighted pair mean
sum_j w_j dphi(x_i - y_j) over a population, without a (pairs, features, d)
array.  Monomials average p (x - y)^(p-1) over (pairs, d) differences, the
powers built as running products; cross terms are exact,
W x_i - sum_j w_j y_j with W = sum_j w_j.  A bump is
phi_c(z) = exp(-|z - c|^2 / sigma).

Where the centers form a full Cartesian grid in one or two dimensions (the
default basis there; ``FeatureMap`` checks once), each bump splits into 1-D
factors, the separable kernel of the fast Gauss transform (Greengard &
Strain 1991).  With z_k = x_ik - y_jk - g_ka for grid value g_ka of axis k,

    F_k[i, a, j] = exp(-z_k^2 / sigma),   G_k = (-2 / sigma) z_k F_k,

and bump (a, b) has coordinates sum_j w_j G_1 F_2 and sum_j w_j F_1 G_2: two
batched (rows, U, M) @ (rows, M, U) products for U values an axis, or G_1 w
in 1-D.  That takes rows * d * U * M exps where the kernel below takes
rows * C * M, and the differences are taken directly, so no precision goes
to an expansion.  Each factor is flushed on its own, so a product of two
factors can be subnormal where the kernel product flushes the whole bump
to 0; both are below 1e-307.  Such products can sum to a subnormal pair
mean, which is set to 0: later products with subnormal entries, such as
the linear solver's Gram, run several times slower.

Scattered centers (the random draw in dim >= 3, hand-placed centers) keep
the kernel product.  Put u_ic = x_i - c; then

    sum_j w_j dphi_c(x_i - y_j) = (-2 / sigma) [(K w)_ic u_ic - (K (w y))_ic],
    K_ic,j = exp(-|u_ic - y_j|^2 / sigma),

so one (rows * C, M) kernel block times the (M, 1 + d) matrix [w, w y] gives
every bump of a row block.  The squared distances are expanded as
|u|^2 + |y|^2 - 2 u.y about the population's mean, which costs about
eps * R^2 / sigma of relative precision for points R from that mean.

Row blocks follow ``measures.pair_chunks``, sized for a block's largest
arrays: max(C, d) entries a pair for the kernel, 2 d max(U, d) for the 2 d
grid factor arrays together.  So each block stays within
``measures.PAIR_BUDGET``, and each block is computed whole.

The kernel entries and the grid factors go through ``measures.exp_flushed``:
where the argument is below -707 they are exactly 0 rather than below
1e-307.  A pair difference gets there once it is sqrt(707 sigma) (18.8 at
sigma = 0.5) from a center, as in populations spread more than about 10
about their mean, and numpy's exp costs 15-150x more there than in range;
flushed, the pair mean costs the same at any spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .measures import as_batch, exp_flushed, pair_chunks, pair_rows

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
        self._grid_axes = (
            _grid_axes(self.rbf_centers) if self.rbf_centers is not None else None
        )

    @property
    def n_features(self) -> int:
        n = self.dim * self.poly_degree
        if self.poly_cross:
            n += self.dim * (self.dim - 1) // 2
        if self.rbf_centers is not None:
            n += self.rbf_centers.shape[0]
        return n


def jacobian_features(
    fm: FeatureMap,
    x: np.ndarray,
    points: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Feature Jacobian, shape (n_features, dim) for a point or (B, n, dim).

    Given a population (``points`` (M, dim) with ``weights`` (M,)), each row is
    the weighted pair mean sum_j weights_j dphi(x_i - y_j) instead; without
    one it is the Jacobian at x, the mean against a unit mass at 0.
    """
    xb, single = as_batch(x, fm.dim)
    if points is None:
        points, weights = np.zeros((1, fm.dim)), np.ones(1)
    d = fm.dim
    out = np.zeros((xb.shape[0], fm.n_features, d))
    coords = np.arange(d)
    total = weights.sum()
    if fm.poly_cross:
        ybar = weights @ points
        for k, (i, j) in enumerate(fm._cross_pairs, start=d * fm.poly_degree):
            out[:, k, i] = total * xb[:, j] - ybar[j]
            out[:, k, j] = total * xb[:, i] - ybar[i]
    width = d
    if fm.rbf_centers is not None:
        n_bumps = fm.rbf_centers.shape[0]
        first_bump = fm.n_features - n_bumps
    # the kernel (or factor) buffers serve all blocks, sized by the first (the
    # largest), so a call page-faults for one block at most, whatever the
    # heap's history
    if fm._grid_axes is not None:
        width = 2 * d * max(d, *(axis.size for axis in fm._grid_axes))
        rows = pair_rows(xb, points, width)
        buffers = [np.empty((2, rows, axis.size, len(points))) for axis in fm._grid_axes]
    elif fm.rbf_centers is not None:
        width = max(d, n_bumps)
        buffer = np.empty((pair_rows(xb, points, width) * n_bumps, len(points)))
        shift = points.mean(axis=0)
        yc = points - shift
        weighted = np.column_stack([weights, weights[:, None] * yc])
        yy = (yc**2).sum(axis=1)
        ycT = -2.0 * yc.T
        scale = -2.0 / fm.rbf_sigma
    for block, diff in pair_chunks(xb, points, width):
        pairs = diff.reshape(-1, points.shape[0], d)
        # d/dz_k z_k^p = p z_k^{p-1}, averaged over the pairs of each row; the
        # powers are running products, as numpy's ``** 3`` takes the slow pow
        power = pairs
        for p in range(1, fm.poly_degree + 1):
            if p > 2:
                power = power * pairs
            mean = total if p == 1 else p * (weights @ power)
            out[block, (p - 1) * d + coords, coords] = mean
        if fm._grid_axes is not None:
            out[block, first_bump:] = _grid_pair_means(fm, pairs, weights, buffers)
        elif fm.rbf_centers is not None:
            u = (xb[block] - shift)[:, None, :] - fm.rbf_centers[None, :, :]
            uu = (u**2).sum(axis=2).reshape(-1)
            u = u.reshape(-1, d)
            kernel = np.matmul(u, ycT, out=buffer[: u.shape[0]])
            kernel += uu[:, None]
            kernel += yy
            np.divide(kernel, -fm.rbf_sigma, out=kernel)
            exp_flushed(kernel, out=kernel)
            kw = kernel @ weighted
            grad = (kw[:, :1] * scale) * u - kw[:, 1:] * scale
            out[block, first_bump:] = grad.reshape(-1, n_bumps, d)
    return out[0] if single else out


def _grid_pair_means(
    fm: FeatureMap, pairs: np.ndarray, weights: np.ndarray, buffers: list[np.ndarray]
) -> np.ndarray:
    """Bump pair means of a row block, shape (rows, C, d), from the per-axis
    factors F_k = exp(-z_k^2 / sigma) and z_k F_k of z_k = x_ik - y_jk - g_ka,
    written into ``buffers``: one (2, R, U_k, M) array an axis, R >= rows."""
    rows = pairs.shape[0]
    values, slopes = [], []
    for k, (axis, buffer) in enumerate(zip(fm._grid_axes, buffers)):
        z, value = buffer[:, :rows]
        np.subtract(pairs[:, None, :, k], axis[:, None], out=z)
        np.square(z, out=value)
        np.divide(value, -fm.rbf_sigma, out=value)
        exp_flushed(value, out=value)
        values.append(value)
        slopes.append(np.multiply(z, value, out=z))
    if fm.dim == 1:
        grad = (slopes[0] @ weights)[:, :, None]
    else:
        # bump (a, b) is coordinate 0: sum_j w_j z_1 F_1 F_2, 1: sum_j w_j F_1 z_2 F_2
        values[0] *= weights
        slopes[0] *= weights
        grad = np.stack(
            [slopes[0] @ values[1].transpose(0, 2, 1), values[0] @ slopes[1].transpose(0, 2, 1)],
            axis=3,
        ).reshape(rows, -1, 2)
    grad *= -2.0 / fm.rbf_sigma
    # a sum of flushed factors' products can still be subnormal, and subnormal
    # rows slow every later product with them (the Gram 7x at a 1% share)
    grad[np.abs(grad) < np.finfo(np.float64).tiny] = 0.0
    return grad


def _cartesian(axes: list[np.ndarray]) -> np.ndarray:
    # grid points in C order: the last axis varies fastest
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _grid_axes(centers: np.ndarray) -> list[np.ndarray] | None:
    """The sorted per-axis values whose ``_cartesian`` product is ``centers``,
    in one or two dimensions; None for any other centers."""
    if centers.shape[1] > 2:
        return None
    axes = [np.unique(column) for column in centers.T]
    if prod(axis.size for axis in axes) != centers.shape[0]:
        return None
    return axes if np.array_equal(_cartesian(axes), centers) else None


def grid_centers(dim: int, per_axis: int, box: tuple[float, float] = DEFAULT_BOX) -> np.ndarray:
    return _cartesian([np.linspace(box[0], box[1], per_axis)] * dim)


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
