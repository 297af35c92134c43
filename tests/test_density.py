"""Mixture fitting, log-density, and score against closed forms and FD."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

import jkoflow.density as density_mod
from jkoflow.datagen import GenConfig, generate
from jkoflow.density import VARIANCE_FLOOR, GaussianMixture, fit_gmm, log_density, score
from jkoflow.functionals import EnergySpec, GroundTruthFunction


def fd_log_density_grad(gmm, x, h=1e-6):
    """Central-difference gradient of log_density at a single point."""
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        g[i] = (log_density(gmm, up) - log_density(gmm, down)) / (2 * h)
    return g


def single_gaussian(mean, cov):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return GaussianMixture(np.array([1.0]), mean[None, :], cov[None, :, :])


def reference_log_density_and_score(gmm, x):
    """Per-component reference at a single point: log-sum-exp of the
    component log-densities, and sum_j r_j Sigma_j^{-1} (mu_j - x)."""
    d = x.shape[0]
    logs, pulls = [], []
    for w, mean, cov in zip(gmm.weights, gmm.means, gmm.covariances):
        diff = x - mean
        _, log_det = np.linalg.slogdet(cov)
        quad = diff @ np.linalg.solve(cov, diff)
        logs.append(math.log(w) - 0.5 * (d * math.log(2 * math.pi) + log_det + quad))
        pulls.append(np.linalg.solve(cov, mean - x))
    log_p = logsumexp(logs)
    resp = np.exp(np.array(logs) - log_p)
    return log_p, resp @ np.array(pulls)


def weighted_loglik(gmm, points):
    return float(np.mean(log_density(gmm, points)))


# ---------------------------------------------------------------------------
# fitting


def test_k1_mean_is_weighted_sample_mean(rng):
    points = rng.normal(size=(50, 2))
    w = rng.uniform(0.5, 1.5, size=50)
    w /= w.sum()
    gmm = fit_gmm(points, w, k=1, seed=0)
    np.testing.assert_allclose(gmm.means[0], w @ points, atol=1e-12)


def test_k1_recovers_gaussian_moments():
    rng = np.random.default_rng(7)
    points = 2.0 + 0.5 * rng.standard_normal((1000, 1))
    gmm = fit_gmm(points, k=1, seed=0)
    assert abs(gmm.means[0, 0] - 2.0) < 0.05
    assert abs(gmm.covariances[0, 0, 0] - 0.25) < 0.05
    # and the fit is exactly the sample moments
    assert gmm.means[0, 0] == pytest.approx(points.mean(), abs=1e-12)
    assert gmm.covariances[0, 0, 0] == pytest.approx(points.var(), abs=1e-9)


def test_em_log_likelihood_is_monotone_on_diffusion_snapshot():
    # a snapshot on which a jitter added to every M-step covariance made the
    # log-likelihood fall by 2e-6, tripping fit_gmm's monotonicity assertion
    spec = EnergySpec(
        potential=GroundTruthFunction("sphere", 2),
        interaction=GroundTruthFunction("sphere", 2),
        beta=0.1,
    )
    seed = 3439617891
    train, _ = generate(GenConfig(
        spec=spec, n_particles=200, dim=2, timesteps=5, tau=0.01, seed=seed,
    ))
    snap = train.snapshots[1]
    gmm = fit_gmm(snap.points, snap.weights, k=10, seed=seed)
    assert gmm.weights.shape == (10,)


def test_two_separated_clusters(rng):
    a = rng.normal(size=(200, 1)) * 0.3
    b = 10.0 + rng.normal(size=(200, 1)) * 0.3
    gmm = fit_gmm(np.concatenate([a, b]), k=2, seed=0)
    centers = sorted(gmm.means[:, 0])
    assert abs(centers[0] - a.mean()) < 0.1
    assert abs(centers[1] - b.mean()) < 0.1
    np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.02)


def test_fit_deterministic(rng):
    points = rng.normal(size=(120, 2))
    first = fit_gmm(points, k=4, seed=3)
    second = fit_gmm(points, k=4, seed=3)
    np.testing.assert_array_equal(first.weights, second.weights)
    np.testing.assert_array_equal(first.means, second.means)
    np.testing.assert_array_equal(first.covariances, second.covariances)


def test_k_exceeds_n_rejected(rng):
    with pytest.raises(ValueError, match="k=5"):
        fit_gmm(rng.normal(size=(3, 1)), k=5, seed=0)


def test_point_weights_shift_the_fit():
    points = np.array([[0.0], [4.0]])
    gmm = fit_gmm(points, np.array([0.75, 0.25]), k=1, seed=0)
    assert gmm.means[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_more_components_fit_at_least_as_well(rng):
    a = rng.normal(size=(150, 1)) - 4.0
    b = rng.normal(size=(150, 1)) + 4.0
    points = np.concatenate([a, b])
    one = fit_gmm(points, k=1, seed=0)
    two = fit_gmm(points, k=2, seed=0)
    assert weighted_loglik(two, points) > weighted_loglik(one, points)


def test_degenerate_data_stays_positive_definite(rng):
    # all points on the x-axis: raw covariance is singular, floor must save it
    points = np.stack([rng.normal(size=100), np.zeros(100)], axis=1)
    gmm = fit_gmm(points, k=2, seed=0)
    assert np.isfinite(log_density(gmm, np.array([0.0, 0.0])))
    assert np.isfinite(log_density(gmm, np.array([0.0, 5.0])))
    for cov in gmm.covariances:
        assert np.linalg.eigvalsh(cov).min() >= 1e-6 * 0.99


def floor_one_covariance(cov):
    """Per-matrix reference for the stacked eigenvalue floor."""
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < VARIANCE_FLOOR:
        cov = (vecs * np.maximum(vals, VARIANCE_FLOOR)) @ vecs.T
        cov = 0.5 * (cov + cov.T)
    return cov


@pytest.mark.parametrize(
    "n, d, k, degenerate",
    [(150, 2, 10, False), (1000, 2, 10, False), (500, 5, 7, False), (40, 1, 3, False),
     (150, 2, 10, True)],
)
def test_m_step_matches_per_component_reference(rng, n, d, k, degenerate):
    points = rng.normal(size=(n, d))
    weights = rng.uniform(0.5, 1.5, size=n)
    weights /= weights.sum()
    resp = rng.dirichlet(np.ones(k), size=n)
    if degenerate:
        # components 0 and 1 see only two points: rank-1 covariances, floored
        resp[:, :2] = 0.0
        resp[:2, :2] = 1.0
        resp[:2, 2:] = 0.0
    # the EM loop's layout: (k, N) responsibilities, particles innermost
    wr = np.ascontiguousarray((weights[:, None] * resp).T)
    nj = wr.sum(axis=1)
    mix, got_means, got_covs = density_mod._m_step(points[None], wr[None], nj[None])
    means = (wr @ points) / nj[:, None]
    x_t = np.ascontiguousarray(points.T)
    covs = np.empty((k, d, d))
    for j in range(k):
        centered = x_t - means[j][:, None]
        covs[j] = floor_one_covariance((centered * wr[j]) @ centered.T / nj[j])
    if degenerate:
        assert np.linalg.eigvalsh(covs[:2]).min() == pytest.approx(VARIANCE_FLOOR)
    np.testing.assert_array_equal(mix[0], nj / nj.sum())
    np.testing.assert_array_equal(got_means[0], means)
    np.testing.assert_array_equal(got_covs[0], covs)


def test_collapsed_component_is_reseeded(rng, monkeypatch):
    # doom one seed far from all data: its responsibilities underflow to zero
    points = rng.normal(size=(100, 1))
    original = density_mod._kmeans_pp_means

    def sabotage(pts, weights, k, seeding_rng):
        means = original(pts, weights, k, seeding_rng)
        means[0] = 1e8
        return means

    monkeypatch.setattr(density_mod, "_kmeans_pp_means", sabotage)
    gmm = fit_gmm(points, k=2, seed=0)
    assert np.all(np.abs(gmm.means) < 10.0)
    assert np.all(gmm.weights > 1e-3)
    assert gmm.em.reinits == 1


# ---------------------------------------------------------------------------
# stacked fits


def assert_same_fit(got, want):
    np.testing.assert_array_equal(got.weights, want.weights)
    np.testing.assert_array_equal(got.means, want.means)
    np.testing.assert_array_equal(got.covariances, want.covariances)
    assert got.em == want.em


def diffusion_snapshots(seed):
    """Snapshots 1..5 of a sphere + sphere trajectory with beta = 0.1, 150 each."""
    sphere = GroundTruthFunction("sphere", 2)
    train, _ = generate(GenConfig(
        spec=EnergySpec(potential=sphere, interaction=sphere, beta=0.1),
        n_particles=300, dim=2, timesteps=5, tau=0.01, seed=seed,
    ))
    snaps = train.snapshots[1:]
    return np.stack([s.points for s in snaps]), np.stack([s.weights for s in snaps])


def test_stacked_fit_equals_per_slice_fits_that_stop_apart():
    points, weights = diffusion_snapshots(201)
    stacked = fit_gmm(points, weights, k=10, seed=201)
    assert isinstance(stacked, list) and len(stacked) == 5
    for got, p, w in zip(stacked, points, weights):
        assert_same_fit(got, fit_gmm(p, w, k=10, seed=201))
    # the slices leave the stack at different iterations, none at the cap
    iterations = [gmm.em.iterations for gmm in stacked]
    assert len(set(iterations)) == 5
    assert not any(gmm.em.capped for gmm in stacked)


def test_stacked_fit_reports_the_capped_slices():
    points, weights = diffusion_snapshots(201)
    stacked = fit_gmm(points, weights, k=10, seed=201, max_iters=100)
    # snapshot 2 converges at iteration 92; the others reach the cap
    assert [gmm.em.iterations for gmm in stacked] == [100, 92, 100, 100, 100]
    assert [gmm.em.capped for gmm in stacked] == [True, False, True, True, True]
    for got, p, w in zip(stacked, points, weights):
        assert_same_fit(got, fit_gmm(p, w, k=10, seed=201, max_iters=100))


def test_one_collapsing_slice_reseeds_alone(rng, monkeypatch):
    points = np.stack([rng.normal(size=(100, 1)) * scale for scale in (1.0, 2.0, 0.5)])
    original = density_mod._kmeans_pp_means

    def sabotage(pts, weights, k, seeding_rng):
        # doom one seed of the middle slice only, stacked or alone
        means = original(pts, weights, k, seeding_rng)
        if np.array_equal(pts, points[1]):
            means[0] = 1e8
        return means

    monkeypatch.setattr(density_mod, "_kmeans_pp_means", sabotage)
    stacked = fit_gmm(points, k=2, seed=0)
    assert [gmm.em.reinits for gmm in stacked] == [0, 1, 0]
    for got, p in zip(stacked, points):
        assert_same_fit(got, fit_gmm(p, k=2, seed=0))
    assert np.all(np.abs(stacked[1].means) < 20.0)


def test_unstacked_points_give_one_mixture(rng):
    points = rng.normal(size=(60, 2))
    single = fit_gmm(points, k=3, seed=4)
    assert isinstance(single, GaussianMixture)
    (stacked,) = fit_gmm(points[None], k=3, seed=4)
    assert_same_fit(single, stacked)


@pytest.mark.parametrize(
    "points, weights",
    [(np.ones((2, 10, 1)), np.full(10, 0.1)), (np.ones((10, 1)), np.full((1, 10), 0.1)),
     (np.ones(10), None), (np.ones((1, 2, 10, 1)), None)],
)
def test_mismatched_shapes_rejected(points, weights):
    with pytest.raises(ValueError, match="points|weights"):
        fit_gmm(points, weights, k=1)


@pytest.mark.parametrize("max_iters", [0, -1])
def test_max_iters_below_one_rejected(rng, max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        fit_gmm(rng.normal(size=(20, 2)), k=2, max_iters=max_iters)


# ---------------------------------------------------------------------------
# log-density


def test_log_density_standard_normal_at_zero():
    gmm = single_gaussian([0.0], [[1.0]])
    assert log_density(gmm, np.array([0.0])) == pytest.approx(
        math.log(1.0 / math.sqrt(2 * math.pi))
    )


def test_log_density_far_tail_is_finite():
    gmm = single_gaussian([0.0], [[1.0]])
    value = log_density(gmm, np.array([100.0]))
    assert np.isfinite(value)
    assert value == pytest.approx(-5000.0 - 0.5 * math.log(2 * math.pi))


def test_log_density_two_component_average():
    gmm = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[-1.0], [1.0]]),
        np.array([[[1.0]], [[1.0]]]),
    )
    expected = math.log(math.exp(-0.5) / math.sqrt(2 * math.pi))
    assert log_density(gmm, np.array([0.0])) == pytest.approx(expected)


def test_log_density_batch_matches_single(rng):
    gmm = fit_gmm(rng.normal(size=(60, 2)), k=3, seed=0)
    xs = rng.normal(size=(5, 2))
    batch = log_density(gmm, xs)
    singles = [log_density(gmm, x) for x in xs]
    np.testing.assert_allclose(batch, singles)


# ---------------------------------------------------------------------------
# score


def _anisotropic_3d_mixture():
    # two rotated anisotropic components and an axis-aligned one whose first
    # variance sits at the floor (axis-aligned, so the reference stays exact
    # despite its 1e6 condition number)
    q, _ = np.linalg.qr(np.array([[1.0, 0.3, -0.2], [0.4, -1.0, 0.5], [0.1, 0.7, 1.0]]))
    rotated = [(q * v) @ q.T for v in ([2.0, 0.5, 0.1], [0.3, 1.5, 0.8])]
    covs = np.stack([0.5 * (c + c.T) for c in rotated] + [np.diag([VARIANCE_FLOOR, 0.4, 1.2])])
    means = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 0.3], [-0.4, 0.6, -0.2]])
    return GaussianMixture(np.array([0.5, 0.3, 0.2]), means, covs)


def test_score_single_gaussian_closed_form(rng):
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    gmm = single_gaussian(mean, cov)
    for _ in range(5):
        x = rng.normal(size=2)
        expected = np.linalg.solve(cov, mean - x)
        np.testing.assert_allclose(score(gmm, x), expected, rtol=1e-10)


def test_three_component_3d_matches_per_component_reference(rng):
    gmm = _anisotropic_3d_mixture()
    xs = rng.normal(size=(20, 3))
    xs[:5] = gmm.means[-1] + 1e-3 * rng.normal(size=(5, 3))
    for x in xs:
        want_log, want_score = reference_log_density_and_score(gmm, x)
        assert log_density(gmm, x) == pytest.approx(want_log, rel=1e-12)
        np.testing.assert_allclose(score(gmm, x), want_score, rtol=1e-10)


def test_score_vanishes_at_symmetric_mixture_center():
    gmm = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[-2.0, 0.0], [2.0, 0.0]]),
        np.repeat(np.eye(2)[None], 2, axis=0),
    )
    np.testing.assert_allclose(score(gmm, np.zeros(2)), np.zeros(2), atol=1e-12)


def test_score_matches_finite_differences(rng):
    gmm = fit_gmm(rng.normal(size=(80, 2)) * 1.5, k=4, seed=1)
    for _ in range(50):
        x = rng.normal(size=2) * 1.5
        got = score(gmm, x)
        want = fd_log_density_grad(gmm, x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def test_score_batch_matches_single(rng):
    gmm = fit_gmm(rng.normal(size=(40, 3)), k=2, seed=0)
    xs = rng.normal(size=(6, 3))
    batch = score(gmm, xs)
    singles = np.stack([score(gmm, x) for x in xs])
    np.testing.assert_allclose(batch, singles)


# ---------------------------------------------------------------------------
# normalization and serialization


def test_density_integrates_to_one_1d(rng):
    gmm = fit_gmm(rng.normal(size=(300, 1)) * 2.0, k=3, seed=0)
    spread = np.sqrt(max(np.linalg.eigvalsh(c).max() for c in gmm.covariances))
    lo = gmm.means.min() - 6 * spread
    hi = gmm.means.max() + 6 * spread
    samples = np.random.default_rng(0).uniform(lo, hi, size=(1_000_000, 1))
    integral = (hi - lo) * np.exp(log_density(gmm, samples)).mean()
    assert integral == pytest.approx(1.0, abs=0.02)


def test_density_integrates_to_one_2d(rng):
    gmm = fit_gmm(rng.normal(size=(200, 2)), k=2, seed=0)
    spread = np.sqrt(max(np.linalg.eigvalsh(c).max() for c in gmm.covariances))
    lo = gmm.means.min(axis=0) - 6 * spread
    hi = gmm.means.max(axis=0) + 6 * spread
    box_rng = np.random.default_rng(0)
    samples = box_rng.uniform(lo, hi, size=(1_000_000, 2))
    volume = float(np.prod(hi - lo))
    integral = volume * np.exp(log_density(gmm, samples)).mean()
    assert integral == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# validation


def test_mixture_weights_must_be_probabilities():
    with pytest.raises(ValueError, match="probability"):
        GaussianMixture(np.array([0.5, 0.3]), np.zeros((2, 1)), np.ones((2, 1, 1)))


def test_mixture_shape_mismatch():
    with pytest.raises(ValueError, match="component count"):
        GaussianMixture(np.array([1.0]), np.zeros((2, 1)), np.ones((2, 1, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_json_rejects_non_finite_covariance(bad):
    covariances = np.array([[[1.0, 0.0], [0.0, bad]]])
    with pytest.raises(ValueError, match="finite"):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), covariances)


def test_from_json_rejects_non_positive_definite_covariance():
    covariances = np.array([[[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), covariances)


def test_wrong_point_dimension_rejected(rng):
    gmm = fit_gmm(rng.normal(size=(20, 2)), k=1, seed=0)
    with pytest.raises(ValueError, match="dim"):
        log_density(gmm, np.array([1.0, 2.0, 3.0]))
    for bad in (np.ones((4, 3)), np.ones((2, 2, 2))):
        for fn in (log_density, score):
            with pytest.raises(ValueError, match=r"\(B, 2\) batch"):
                fn(gmm, bad)
