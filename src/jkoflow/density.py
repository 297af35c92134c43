"""Gaussian mixture density estimation for weighted particle clouds.

Fitted by weighted EM with deterministic seeding.  The mixture exposes the
two quantities the learners need: log-density and its spatial gradient (the
score).  Covariances are kept positive definite by an eigenvalue floor.  A
mixture stores W_j = L_j^{-1} (Sigma_j = L_j L_j^T) and its log-normaliser, so
one batched z_j = W_j (x - mu_j) gives log N_j and the score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import as_batch, logsumexp

VARIANCE_FLOOR = 1e-6
COLLAPSE_WEIGHT = 1e-10
MAX_REINITS = 3
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianMixture:
    """A k-component full-covariance Gaussian mixture in R^d.  The whitening
    matrices are derived at construction: build a new mixture, never edit one."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        k = self.weights.shape[0]
        if self.means.shape[0] != k or self.covariances.shape[0] != k:
            raise ValueError("weights, means and covariances must agree on component count")
        if not all(np.isfinite(a).all() for a in (self.weights, self.means, self.covariances)):
            # np.linalg.cholesky would pass NaN through silently
            raise ValueError("mixture parameters must be finite")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9 or np.any(self.weights < 0):
            raise ValueError("mixture weights must be a probability vector")
        # raises LinAlgError unless every covariance is positive definite
        chol = np.linalg.cholesky(self.covariances)
        self._whiteners = np.linalg.inv(chol)
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        self._log_norms = -0.5 * (self.dim * _LOG_2PI + log_det)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _whiten(self, x: np.ndarray) -> np.ndarray:
        """(k, B, d) array of whitened offsets z_j = W_j (x - mu_j)."""
        return (x[None, :, :] - self.means[:, None, :]) @ self._whiteners.transpose(0, 2, 1)

    def _component_log_densities(self, z: np.ndarray) -> np.ndarray:
        """(B, k) matrix of log w_j + log N_j, from the whitened offsets z."""
        with np.errstate(divide="ignore"):
            log_w = np.log(self.weights)
        return (log_w + self._log_norms)[None, :] - 0.5 * np.einsum("kbi,kbi->bk", z, z)


def log_density(gmm: GaussianMixture, x: np.ndarray) -> np.ndarray | float:
    """Log of the mixture density, evaluated stably via log-sum-exp."""
    xb, single = as_batch(x, gmm.dim)
    out = logsumexp(gmm._component_log_densities(gmm._whiten(xb)), axis=1)
    return float(out[0]) if single else out


def score(gmm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Gradient of log-density: responsibility-weighted sum of
    Sigma_j^{-1} (mu_j - x) = -W_j^T z_j."""
    xb, single = as_batch(x, gmm.dim)
    z = gmm._whiten(xb)
    log_comp = gmm._component_log_densities(z)
    resp = np.exp(log_comp - logsumexp(log_comp, axis=1)[:, None])
    out = -np.einsum("bk,kbi->bi", resp, z @ gmm._whiteners)
    return out[0] if single else out


def _floor_covariance(covs: np.ndarray) -> np.ndarray:
    """Symmetrize a (k, d, d) stack; clip each matrix's eigenvalues at the floor.

    Clipping the sample covariance's eigenvalues is the exact maximiser of the
    Gaussian likelihood under that floor, so EM stays monotone.
    """
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    vals, vecs = np.linalg.eigh(covs)
    low = vals.min(axis=1) < VARIANCE_FLOOR
    if low.any():
        vecs, vals = vecs[low], np.maximum(vals[low], VARIANCE_FLOOR)
        floored = (vecs * vals[:, None, :]) @ vecs.transpose(0, 2, 1)
        covs[low] = 0.5 * (floored + floored.transpose(0, 2, 1))
    return covs


def _kmeans_pp_means(
    points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: centers drawn proportionally to weight times squared
    distance to the nearest already-chosen center."""
    n = points.shape[0]
    chosen = [int(rng.choice(n, p=weights))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        probs = weights * d2
        total = probs.sum()
        if total <= 0:
            idx = int(rng.choice(n, p=weights))
        else:
            idx = int(rng.choice(n, p=probs / total))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _global_covariance(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    mean = weights @ points
    centered = points - mean
    return _floor_covariance(((weights[:, None] * centered).T @ centered)[None])[0]


def _m_step(points: np.ndarray, wr: np.ndarray, nj: np.ndarray) -> GaussianMixture:
    """EM's M-step from the (N, k) weighted responsibilities wr, nj = wr.sum(0)."""
    means = (wr.T @ points) / nj[:, None]
    centered = points[None, :, :] - means[:, None, :]
    covs = (wr.T[:, :, None] * centered).transpose(0, 2, 1) @ centered / nj[:, None, None]
    return GaussianMixture(nj / nj.sum(), means, _floor_covariance(covs))


def fit_gmm(
    points: np.ndarray,
    weights: np.ndarray | None = None,
    k: int = 10,
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> GaussianMixture:
    """Fit a k-component mixture to weighted points by EM.

    Deterministic given the seed.  The weighted log-likelihood is asserted to
    be non-decreasing on every iteration; components whose weight collapses
    below 1e-10 are re-seeded from the data at most three times before the
    fit is abandoned with an error.

    Args:
        points: (N, d) particle positions.
        weights: (N,) probability weights; uniform when omitted.
        k: component count, at most N.
        seed: RNG seed for k-means++ seeding and collapse re-seeding.
        max_iters: EM iteration cap.
        tol: stop once the log-likelihood improves by less than this.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, d), got shape {points.shape}")
    n = points.shape[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    weights = np.asarray(weights, dtype=np.float64)
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xD1F,)))

    global_cov = _global_covariance(points, weights)
    means = _kmeans_pp_means(points, weights, k, rng)
    covs = np.repeat(global_cov[None, :, :], k, axis=0)
    mix = np.full(k, 1.0 / k)
    gmm = GaussianMixture(mix, means, covs)

    prev_ll = -np.inf
    reinits = 0
    for _ in range(max_iters):
        log_comp = gmm._component_log_densities(gmm._whiten(points))
        log_norm = logsumexp(log_comp, axis=1)
        ll = float(weights @ log_norm)
        if not ll >= prev_ll - 1e-8:
            raise AssertionError(
                f"EM log-likelihood decreased: {prev_ll!r} -> {ll!r}"
            )
        improved = ll - prev_ll
        prev_ll = ll

        resp = np.exp(log_comp - log_norm[:, None])
        wr = weights[:, None] * resp
        nj = wr.sum(axis=0)
        if nj.min() < COLLAPSE_WEIGHT:
            reinits += 1
            if reinits > MAX_REINITS:
                raise RuntimeError(
                    f"mixture component collapsed {reinits} times; "
                    "reduce k or provide more spread-out data"
                )
            dead = np.nonzero(nj < COLLAPSE_WEIGHT)[0]
            means, covs, mix = gmm.means.copy(), gmm.covariances.copy(), gmm.weights.copy()
            for j in dead:
                means[j] = points[int(rng.choice(n, p=weights))]
            covs[dead] = global_cov
            mix[dead] = 1.0 / k
            gmm = GaussianMixture(mix / mix.sum(), means, covs)
            prev_ll = -np.inf  # restart the monotonicity baseline after surgery
            continue

        gmm = _m_step(points, wr, nj)

        if improved < tol and np.isfinite(improved):
            break
    return gmm
