"""Closed-form fitting of linear-in-parameters energy models.

The model's drift at a point x is linear in the coefficient vector theta:
potential block through the feature Jacobian, interaction block through the
population-averaged feature Jacobian of differences, internal block through
the score of a density estimate.  Stacking those rows into y(x) (rows x d),
the fitted residual is y(x_next)^T theta + (x_next - x_start) / tau, summed
with coupling masses.  Minimizing its squared norm plus a ridge term is a
single regularized least-squares solve over sufficient statistics:

    gram   = sum over snapshots t >= 1 of  E_{mu_t}[ y y^T ]
    moment = sum over couplings of mass * y(x_next) * (x_next - x_start) / tau

and theta = -(gram + lambda I)^{-1} (moment row-summed).  Inactive blocks are
simply absent from the statistics (equivalently: their rows and columns are
deleted before inversion and zeros re-inserted afterwards).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .density import GaussianMixture, score
from .features import FeatureMap, jacobian_features
from .measures import Coupling, EmpiricalSnapshot, PopulationTrajectory

logger = logging.getLogger(__name__)

DEFAULT_RIDGE = 0.01
PINV_CUTOFF = 1e-10  # relative to the largest singular value
NEGATIVE_BETA_TOL = 1e-6


@dataclass
class LinearEnergyModel:
    """Energy model with fixed features and a fitted coefficient vector.

    ``theta`` concatenates the active blocks in order: potential coefficients,
    interaction coefficients, diffusion coefficient.  A block that is switched
    off contributes no entries (its coefficients are exactly zero).
    The diffusion coefficient is not sign-constrained by the solve; a
    meaningfully negative value is reported as a warning because it signals
    model mismatch.
    """

    potential_map: FeatureMap | None = None
    interaction_map: FeatureMap | None = None
    use_internal: bool = False
    theta: np.ndarray | None = None
    ridge_lambda: float = DEFAULT_RIDGE

    def __post_init__(self) -> None:
        if self.potential_map is None and self.interaction_map is None and not self.use_internal:
            raise ValueError("at least one block must be active")
        if self.theta is None:
            self.theta = np.zeros(self.n_active)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.n_active,):
            raise ValueError(
                f"theta must have length {self.n_active}, got {self.theta.shape}"
            )

    @property
    def n_potential(self) -> int:
        return self.potential_map.n_features if self.potential_map else 0

    @property
    def n_interaction(self) -> int:
        return self.interaction_map.n_features if self.interaction_map else 0

    @property
    def n_active(self) -> int:
        return self.n_potential + self.n_interaction + (1 if self.use_internal else 0)

    def theta_blocks(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(potential, interaction, diffusion) coefficients, zeros where pinned."""
        n1, n2 = self.n_potential, self.n_interaction
        theta1 = self.theta[:n1]
        theta2 = self.theta[n1 : n1 + n2]
        theta3 = float(self.theta[n1 + n2]) if self.use_internal else 0.0
        return theta1, theta2, theta3

    @property
    def beta(self) -> float:
        return self.theta_blocks()[2]

    @property
    def time_conditioned(self) -> bool:
        return False

    @property
    def dim(self) -> int:
        fm = self.potential_map or self.interaction_map
        if fm is None:
            raise ValueError("model has no spatial features")
        return fm.dim

    def grad_potential(self, x: np.ndarray, time_value: float | None = None) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.potential_map is None:
            return np.zeros_like(x)
        theta1 = self.theta_blocks()[0]
        return np.einsum("nad,a->nd", jacobian_features(self.potential_map, x), theta1)

    def grad_interaction_mean(
        self, x: np.ndarray, points: np.ndarray, weights: np.ndarray,
        dtype: np.dtype = np.float64,
    ) -> np.ndarray:
        """sum_j weights_j grad_U(x_i - y_j) for each row x_i, shape (len(x), d).

        Computes in float64 whatever ``dtype`` asks: the pair means flush
        kernel arguments below ``measures.EXP_FLOOR``, a float64 constant set
        where float64's exp turns subnormal (float32's does near -87)."""
        x = np.atleast_2d(x)
        if self.interaction_map is None:
            return np.zeros_like(x)
        rows = jacobian_features(self.interaction_map, x, points, weights)
        return np.einsum("nad,a->nd", rows, self.theta_blocks()[1])

    def to_json(self) -> dict:
        def dump_map(fm: FeatureMap | None) -> dict | None:
            if fm is None:
                return None
            return {
                "dim": fm.dim,
                "poly_degree": fm.poly_degree,
                "poly_cross": fm.poly_cross,
                "rbf_sigma": fm.rbf_sigma,
                "rbf_centers": None if fm.rbf_centers is None else fm.rbf_centers.tolist(),
            }

        return {
            "kind": "linear",
            "potential_map": dump_map(self.potential_map),
            "interaction_map": dump_map(self.interaction_map),
            "use_internal": self.use_internal,
            "theta": self.theta.tolist(),
            "ridge_lambda": self.ridge_lambda,
        }

    @classmethod
    def from_json(cls, data: dict) -> "LinearEnergyModel":
        def load_map(blob: dict | None) -> FeatureMap | None:
            if blob is None:
                return None
            centers = blob.get("rbf_centers")
            return FeatureMap(
                dim=blob["dim"],
                poly_degree=blob["poly_degree"],
                poly_cross=blob["poly_cross"],
                rbf_sigma=blob["rbf_sigma"],
                rbf_centers=None if centers is None else np.asarray(centers),
            )

        return cls(
            potential_map=load_map(data.get("potential_map")),
            interaction_map=load_map(data.get("interaction_map")),
            use_internal=bool(data.get("use_internal", False)),
            theta=np.asarray(data["theta"], dtype=np.float64),
            ridge_lambda=float(data.get("ridge_lambda", DEFAULT_RIDGE)),
        )


def build_row(
    model: LinearEnergyModel,
    x: np.ndarray,
    snapshot: EmpiricalSnapshot | None,
    gmm: GaussianMixture | None,
) -> np.ndarray:
    """All active rows of y at the given points, shape (B, n_active, d).

    The interaction block averages against ``snapshot`` (the measure the
    points belong to); the internal row is the score of that snapshot's
    density estimate.
    """
    x = np.atleast_2d(x)
    parts = []
    if model.potential_map is not None:
        parts.append(jacobian_features(model.potential_map, x))
    if model.interaction_map is not None:
        if snapshot is None:
            raise ValueError("interaction block needs a snapshot to average over")
        parts.append(
            jacobian_features(model.interaction_map, x, snapshot.points, snapshot.weights)
        )
    if model.use_internal:
        if gmm is None:
            raise ValueError("internal block needs a density estimate for this snapshot")
        parts.append(score(gmm, x)[:, None, :])
    return np.concatenate(parts, axis=1)


@dataclass
class FeatureStatistic:
    """Sufficient statistics of the regularized least-squares problem.

    ``moment`` keeps the per-coordinate products unsummed (rows x d); the
    solve contracts it over coordinates.  ``offset`` carries the
    theta-independent part of the loss so the fitted residual value can be
    reported without revisiting the data.
    """

    gram: np.ndarray
    moment: np.ndarray
    offset: float = 0.0

    @classmethod
    def empty(cls, n_active: int, dim: int) -> "FeatureStatistic":
        return cls(np.zeros((n_active, n_active)), np.zeros((n_active, dim)))


def accumulate(
    model: LinearEnergyModel,
    trajectory: PopulationTrajectory,
    couplings: list[Coupling],
    gmms: list[GaussianMixture | None] | None = None,
) -> FeatureStatistic:
    """Scan the trajectory once, filling gram and moment.

    The gram sums y y^T over snapshots 1..T under their own weights; the
    moment sums mass-weighted y(x_next) scaled by the step displacement, with
    y evaluated at the coupling's target particle against the target
    snapshot.  Both reuse one row build per snapshot.
    """
    if len(couplings) != trajectory.n_steps:
        raise ValueError(
            f"expected {trajectory.n_steps} couplings, got {len(couplings)}"
        )
    stat = FeatureStatistic.empty(model.n_active, trajectory.dim)
    tau = trajectory.tau
    for t in range(1, trajectory.n_snapshots):
        snap = trajectory.snapshots[t]
        gmm = gmms[t] if gmms is not None else None
        rows = build_row(model, snap.points, snap, gmm)
        # one matmul over the (n_active, N * d) row matrix, each weight repeated per coordinate
        flat = rows.transpose(1, 0, 2).reshape(model.n_active, -1)
        stat.gram += (flat * np.repeat(snap.weights, trajectory.dim)) @ flat.T
        coupling = couplings[t - 1]
        if coupling.source_time != t - 1 or coupling.target_time != t:
            raise ValueError(
                f"coupling {t - 1} links times {coupling.source_time}->{coupling.target_time}"
            )
        prev = trajectory.snapshots[t - 1]
        step = (
            snap.points[coupling.target_indices] - prev.points[coupling.source_indices]
        ) / tau
        # per coordinate: (n_active, K) target rows times the K mass-weighted steps
        weighted_step = (step * coupling.masses[:, None]).T[:, :, None]
        target = rows[coupling.target_indices].transpose(2, 1, 0)
        stat.moment += (target @ weighted_step)[:, :, 0].T
        stat.offset += float(coupling.masses @ (step**2).sum(axis=1))
    return stat


def solve(stat: FeatureStatistic, ridge_lambda: float = DEFAULT_RIDGE) -> np.ndarray:
    """Minimizer of sum mass * ||y^T theta + dx/tau||^2 + lambda ||theta||^2.

    Positive ridge goes through numpy's Cholesky factorization (a system that
    is not positive definite raises ``LinAlgError``); lambda = 0 falls back
    to the SVD pseudo-inverse with singular values below 1e-10 * sigma_max
    treated as zero.  numpy, not scipy.linalg: scipy's own OpenBLAS thread
    pool can stall a small solve for 0.1-0.3 s right after numpy BLAS work.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be >= 0")
    rhs = stat.moment.sum(axis=1)
    if not (np.all(np.isfinite(stat.gram)) and np.all(np.isfinite(rhs))):
        raise FloatingPointError(
            "non-finite sufficient statistics; feature scaling is off"
        )
    if ridge_lambda > 0:
        system = stat.gram + ridge_lambda * np.eye(stat.gram.shape[0])
        lower = np.linalg.cholesky(system)
        theta = -np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    else:
        u, s, vt = np.linalg.svd(stat.gram, hermitian=True)
        cutoff = PINV_CUTOFF * (s[0] if s.size else 0.0)
        inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        theta = -(vt.T @ (inv * (u.T @ rhs)))
    if not np.all(np.isfinite(theta)):
        raise FloatingPointError(
            "linear solve produced non-finite coefficients; feature scaling is off"
        )
    return theta


def fit_linear(
    model: LinearEnergyModel,
    trajectory: PopulationTrajectory,
    couplings: list[Coupling],
    gmms: list[GaussianMixture | None] | None = None,
) -> tuple[LinearEnergyModel, float]:
    """Accumulate, solve, and return (fitted model, residual loss value)."""
    stat = accumulate(model, trajectory, couplings, gmms)
    theta = solve(stat, model.ridge_lambda)
    fitted = replace(model, theta=theta)
    if fitted.use_internal and fitted.beta < -NEGATIVE_BETA_TOL:
        logger.warning(
            "fitted diffusion coefficient is negative (%.3e); "
            "the data does not look diffusion-driven",
            fitted.beta,
        )
    loss = float(theta @ stat.gram @ theta + 2.0 * theta @ stat.moment.sum(axis=1) + stat.offset)
    # the residual loss is nonnegative by construction; roundoff can push the
    # quadratic a few ulp below zero at the minimizer
    return fitted, max(loss, 0.0)
