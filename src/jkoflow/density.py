"""Gaussian mixture density estimation for weighted particle clouds.

Fitted by weighted EM with deterministic seeding.  The mixture exposes the
two quantities the learners need: log-density and its spatial gradient (the
score).  Covariances are kept positive definite by an eigenvalue floor.  A
mixture stores W_j = L_j^{-1} (Sigma_j = L_j L_j^T) and its log-normaliser, so
one batched z_j = W_j (x - mu_j) gives log N_j and the score.

``fit_gmm`` fits a stack of T equal-count snapshots, (T, N, d) points, in one
EM loop; an (N, d) cloud is a stack of one.  The loop keeps the particle axis
innermost: it whitens the transposed points, z = W_j (x^T - mu_j) of shape
(T, k, d, N), takes the log-sum-exp of the (T, k, N) log-densities over k,
and forms each snapshot's means as one (k, N) @ (N, d) product.  Every slice
keeps its own generator, monotonicity check, collapse re-seeds and stop, and
leaves the stack once it converges, so a stacked fit equals the fits of its
slices bit for bit.  The mixtures are built, and so validated, once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import as_batch, logsumexp

VARIANCE_FLOOR = 1e-6
COLLAPSE_WEIGHT = 1e-10
MAX_REINITS = 3
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class EmReport:
    """How one snapshot's EM fit ended."""

    iterations: int
    # stopped at max_iters while the log-likelihood still rose by tol or more
    capped: bool
    reinits: int


@dataclass
class GaussianMixture:
    """A k-component full-covariance Gaussian mixture in R^d.  The whitening
    matrices are derived at construction: build a new mixture, never edit one.
    ``em`` says how ``fit_gmm`` ended on a fitted mixture; None otherwise."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    em: EmReport | None = field(default=None, compare=False)

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
        self._whiteners, self._log_norms = _whitening(self.covariances)

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


def _whitening(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whiteners W = L^{-1} of a (..., d, d) stack Sigma = L L^T, and the
    log-normalisers -0.5 (d log 2 pi + log det Sigma).  Raises LinAlgError
    unless every covariance is positive definite."""
    chol = np.linalg.cholesky(covs)
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return np.linalg.inv(chol), -0.5 * (covs.shape[-1] * _LOG_2PI + log_det)


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
    """Symmetrize a (..., d, d) stack; clip each matrix's eigenvalues at the floor.

    Clipping the sample covariance's eigenvalues is the exact maximiser of the
    Gaussian likelihood under that floor, so EM stays monotone.
    """
    covs = 0.5 * (covs + covs.swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(covs)
    low = vals.min(axis=-1) < VARIANCE_FLOOR
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


def _m_step(
    points: np.ndarray, wr: np.ndarray, nj: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EM's M-step on a stack: mixture weights (T, k), means (T, k, d) and
    floored covariances (T, k, d, d) from the (T, N, d) points and the
    (T, k, N) weighted responsibilities wr, nj = wr.sum(-1)."""
    means = (wr @ points) / nj[..., None]
    # centred in the (d, N) layout, so the N-long axis stays innermost
    centered = np.ascontiguousarray(points.swapaxes(-1, -2))[:, None] - means[..., None]
    covs = (centered * wr[:, :, None, :]) @ centered.swapaxes(-1, -2) / nj[..., None, None]
    return nj / nj.sum(axis=-1, keepdims=True), means, _floor_covariance(covs)


def fit_gmm(
    points: np.ndarray,
    weights: np.ndarray | None = None,
    k: int = 10,
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> GaussianMixture | list[GaussianMixture]:
    """Fit a k-component mixture to weighted points by EM, or one to each
    snapshot of a stack.

    Deterministic given the seed.  Each snapshot's weighted log-likelihood is
    asserted to be non-decreasing on every iteration; components whose weight
    collapses below 1e-10 are re-seeded from the data at most three times
    before the fit is abandoned with an error.  Each fitted mixture's ``em``
    records its iteration count, whether it stopped at ``max_iters`` and its
    re-seeds.  The loop's temporaries hold T * k * d * N entries, T times
    those of one snapshot, so the caller bounds memory by the stacks it
    passes (``trainer`` splits its stacks to a fixed budget).

    Args:
        points: (N, d) particle positions, or a (T, N, d) stack of snapshots.
        weights: (N,) probability weights, or (T, N) for a stack; uniform
            when omitted.
        k: component count, at most N.
        seed: RNG seed for k-means++ seeding and collapse re-seeding; every
            snapshot of a stack draws from its own generator of this seed.
        max_iters: EM iteration cap, at least 1.
        tol: stop once the log-likelihood improves by less than this.

    Returns:
        One mixture for (N, d) points, a list of T for a stack.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim not in (2, 3):
        raise ValueError(f"points must be (N, d) or (T, N, d), got shape {points.shape}")
    n = points.shape[-2]
    if weights is None:
        weights = np.full(points.shape[:-1], 1.0 / n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != points.shape[:-1]:
        raise ValueError(f"weights of shape {weights.shape} do not match points {points.shape}")
    single = points.ndim == 2
    stack, weights = (points[None], weights[None]) if single else (points, weights)
    n_snaps = stack.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xD1F,)))
        for _ in range(n_snaps)
    ]
    global_covs = np.stack([_global_covariance(p, w) for p, w in zip(stack, weights)])
    means = np.stack([_kmeans_pp_means(p, w, k, r) for p, w, r in zip(stack, weights, rngs)])
    covs = np.repeat(global_covs[:, None], k, axis=1)
    mix = np.full((n_snaps, k), 1.0 / k)

    # the live stack: slices still iterating, with their index in the input
    live = np.arange(n_snaps)
    x_t = np.ascontiguousarray(stack.swapaxes(1, 2))
    prev_ll = np.full(n_snaps, -np.inf)
    reinits = np.zeros(n_snaps, dtype=np.int64)
    fitted: list[GaussianMixture | None] = [None] * n_snaps
    for iteration in range(1, max_iters + 1):
        whiteners, log_norms = _whitening(covs)
        z = whiteners @ (x_t[:, None] - means[..., None])
        # an M-step leaves every weight >= COLLAPSE_WEIGHT and a re-seed keeps
        # them positive, so the log is finite
        log_comp = (np.log(mix) + log_norms)[..., None] - 0.5 * np.einsum("tkdn,tkdn->tkn", z, z)
        log_norm = logsumexp(log_comp, axis=1)
        ll = (weights * log_norm).sum(axis=1)
        fell = np.flatnonzero(~(ll >= prev_ll - 1e-8))
        if fell.size:
            i = fell[0]
            raise AssertionError(
                f"EM log-likelihood of snapshot {live[i]} decreased: "
                f"{prev_ll[i]!r} -> {ll[i]!r}"
            )
        improved = ll - prev_ll
        prev_ll = ll

        wr = weights[:, None, :] * np.exp(log_comp - log_norm[:, None, :])
        nj = wr.sum(axis=2)
        collapsed = nj.min(axis=1) < COLLAPSE_WEIGHT
        if collapsed.any():
            kept = ~collapsed
            mix[kept], means[kept], covs[kept] = _m_step(stack[kept], wr[kept], nj[kept])
            for i in np.flatnonzero(collapsed):
                reinits[i] += 1
                if reinits[i] > MAX_REINITS:
                    raise RuntimeError(
                        f"mixture component of snapshot {live[i]} collapsed "
                        f"{reinits[i]} times; reduce k or provide more spread-out data"
                    )
                dead = np.flatnonzero(nj[i] < COLLAPSE_WEIGHT)
                for j in dead:
                    means[i, j] = stack[i, int(rngs[i].choice(n, p=weights[i]))]
                covs[i, dead] = global_covs[i]
                mix[i, dead] = 1.0 / k
                mix[i] /= mix[i].sum()
                prev_ll[i] = -np.inf  # restart the monotonicity baseline after surgery
        else:
            mix, means, covs = _m_step(stack, wr, nj)

        converged = ~collapsed & (improved < tol) & np.isfinite(improved)
        ended = converged | (iteration == max_iters)
        for i in np.flatnonzero(ended):
            report = EmReport(iteration, not converged[i], int(reinits[i]))
            fitted[live[i]] = GaussianMixture(mix[i].copy(), means[i].copy(), covs[i].copy(), report)
        if ended.any():
            going = ~ended
            live, stack, x_t, weights, global_covs, mix, means, covs, prev_ll, reinits = (
                a[going]
                for a in (live, stack, x_t, weights, global_covs, mix, means, covs, prev_ll, reinits)
            )
            rngs = [r for r, keep in zip(rngs, going) if keep]
            if not live.size:
                break
    return fitted[0] if single else fitted
