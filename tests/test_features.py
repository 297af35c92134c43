"""Feature maps: counts, exact values, and Jacobians against FD."""

import numpy as np
import pytest

from jkoflow import features, measures
from jkoflow.features import (
    FeatureMap,
    build_default,
    grid_centers,
    jacobian_features,
    polynomial_map,
    random_centers,
)
from jkoflow.measures import EXP_FLOOR

from oracles import eval_features


def fd_jacobian(fm, x, h=1e-6):
    cols = []
    for i in range(fm.dim):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        cols.append((eval_features(fm, up) - eval_features(fm, down)) / (2 * h))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# counts


def test_default_count_1d():
    assert build_default(1).n_features == 4 + 10


def test_default_count_2d():
    assert build_default(2).n_features == 8 + 100


@pytest.mark.parametrize("dim", [3, 10, 50])
def test_default_count_high_dim(dim):
    assert build_default(dim).n_features == 4 * dim + 200


def test_cross_terms_add_pair_count():
    assert build_default(3, include_cross=True).n_features == 12 + 3 + 200
    assert polynomial_map(4, 2, cross=True).n_features == 8 + 6


def test_high_dim_centers_fixed_across_calls():
    a = build_default(5).rbf_centers
    b = build_default(5).rbf_centers
    np.testing.assert_array_equal(a, b)


def test_grid_centers_cover_box():
    centers = grid_centers(2, 10)
    assert centers.shape == (100, 2)
    assert centers.min() == -4.0
    assert centers.max() == 4.0


def test_random_centers_stay_in_box():
    centers = random_centers(7)
    assert centers.shape == (200, 7)
    assert centers.min() >= -4.0
    assert centers.max() <= 4.0


# ---------------------------------------------------------------------------
# evaluation


def test_monomials_degree_major_order():
    fm = polynomial_map(2, 3)
    got = eval_features(fm, np.array([2.0, 3.0]))
    np.testing.assert_allclose(got, [2, 3, 4, 9, 8, 27])


def test_rbf_entry_is_one_at_its_center():
    centers = np.array([[1.0, -1.0], [0.5, 2.0]])
    fm = FeatureMap(dim=2, rbf_sigma=0.5, rbf_centers=centers)
    values = eval_features(fm, centers[1])
    assert values[1] == pytest.approx(1.0)
    assert values[0] < 1.0


def test_rbf_formula(rng):
    centers = rng.normal(size=(3, 2))
    sigma = 0.7
    fm = FeatureMap(dim=2, rbf_sigma=sigma, rbf_centers=centers)
    x = rng.normal(size=2)
    expected = np.exp(-((x - centers) ** 2).sum(axis=1) / sigma)
    np.testing.assert_allclose(eval_features(fm, x), expected)


def test_full_default_matches_direct_formula(rng):
    fm = build_default(2)
    x = rng.normal(size=2)
    got = eval_features(fm, x)
    poly = np.concatenate([x**p for p in range(1, 5)])
    rbf = np.exp(-((x - fm.rbf_centers) ** 2).sum(axis=1) / fm.rbf_sigma)
    np.testing.assert_allclose(got, np.concatenate([poly, rbf]))


def test_batch_matches_single(rng):
    fm = build_default(2, include_cross=True)
    xs = rng.normal(size=(7, 2))
    batch = eval_features(fm, xs)
    singles = np.stack([eval_features(fm, x) for x in xs])
    np.testing.assert_array_equal(batch, singles)


def test_features_bounded_on_box(rng):
    fm = build_default(3)
    samples = rng.uniform(-4, 4, size=(10_000, 3))
    values = eval_features(fm, samples)
    assert np.all(np.isfinite(values))
    assert np.abs(values).max() <= 4.0**4 + 1


# ---------------------------------------------------------------------------
# jacobian


def test_square_monomial_gradient_row():
    fm = polynomial_map(2, 2)
    jac = jacobian_features(fm, np.array([3.0, 5.0]))
    # rows: x0, x1, x0^2, x1^2
    np.testing.assert_allclose(jac[2], [6.0, 0.0])
    np.testing.assert_allclose(jac[3], [0.0, 10.0])


def test_rbf_gradient_zero_at_center():
    centers = np.array([[1.5, -0.5]])
    fm = FeatureMap(dim=2, rbf_sigma=0.5, rbf_centers=centers)
    jac = jacobian_features(fm, centers[0])
    np.testing.assert_allclose(jac[0], [0.0, 0.0], atol=1e-15)


def test_cross_term_gradient(rng):
    fm = polynomial_map(3, 1, cross=True)
    x = np.array([2.0, 5.0, 7.0])
    jac = jacobian_features(fm, x)
    # rows 3..5 are x0*x1, x0*x2, x1*x2
    np.testing.assert_allclose(jac[3], [5.0, 2.0, 0.0])
    np.testing.assert_allclose(jac[4], [7.0, 0.0, 2.0])
    np.testing.assert_allclose(jac[5], [0.0, 7.0, 5.0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jacobian_matches_fd(dim, rng):
    fm = build_default(dim, include_cross=dim > 1)
    for _ in range(100 // dim):
        x = rng.uniform(-3, 3, size=dim)
        got = jacobian_features(fm, x)
        want = fd_jacobian(fm, x)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_jacobian_batch_matches_single(rng):
    fm = build_default(2)
    xs = rng.normal(size=(4, 2))
    batch = jacobian_features(fm, xs)
    singles = np.stack([jacobian_features(fm, x) for x in xs])
    np.testing.assert_array_equal(batch, singles)


def test_jacobian_shape(rng):
    fm = build_default(3)
    x = rng.normal(size=3)
    assert jacobian_features(fm, x).shape == (fm.n_features, 3)
    assert eval_features(fm, x).shape == (fm.n_features,)


# ---------------------------------------------------------------------------
# pair mean against a population


def pair_mean_reference(fm, x, points, weights):
    """sum_j weights_j J(x_i - y_j), one single-point Jacobian per pair, and
    each feature's largest sum of the absolute terms, the scale errors are
    measured against."""
    terms = np.array(
        [[w * jacobian_features(fm, xi - y) for y, w in zip(points, weights)] for xi in x]
    )
    scale = np.abs(terms).sum(axis=1).max(axis=(0, 2))
    return terms.sum(axis=1), scale[None, :, None]


def scattered_default_2d():
    """The default 2-D map with its grid jittered by up to 1e-3: no longer a
    Cartesian grid, so its bumps take the kernel path."""
    fm = build_default(2, include_cross=True)
    jitter = np.random.default_rng(0).uniform(-1e-3, 1e-3, size=fm.rbf_centers.shape)
    return FeatureMap(dim=2, poly_degree=fm.poly_degree, poly_cross=True,
                      rbf_sigma=fm.rbf_sigma, rbf_centers=fm.rbf_centers + jitter)


PAIR_MEAN_MAPS = {
    "monomials-cross": lambda: polynomial_map(2, 4, cross=True),
    "bumps": lambda: FeatureMap(dim=2, rbf_centers=grid_centers(2, 5)),
    "default-1d": lambda: build_default(1),
    "default-2d": lambda: build_default(2, include_cross=True),
    "scattered-2d": scattered_default_2d,
    "default-3d": lambda: build_default(3, include_cross=True),  # random centers
}

# the default 2-D grid, whose bumps take the per-axis factors, and the same
# map jittered off the grid, whose bumps take the kernel product; the
# far-from-origin and wide-population tests check both on the same draw
GRID_AND_SCATTERED = ["default-2d", "scattered-2d"]


@pytest.mark.parametrize("n_x, n_points", [(6, 9), (1, 9), (6, 1)],
                         ids=["rows", "single-row", "single-point"])
@pytest.mark.parametrize("name", PAIR_MEAN_MAPS)
def test_pair_mean_matches_a_loop_over_the_population(name, n_x, n_points, rng):
    # relative to each feature's largest absolute pair sum: where a bump is
    # e^-60 small, exp rounds its large argument in the reference too
    fm = PAIR_MEAN_MAPS[name]()
    x = rng.uniform(-4, 4, size=(n_x, fm.dim))
    points = rng.uniform(-4, 4, size=(n_points, fm.dim))
    weights = rng.uniform(0.1, 1.0, size=n_points)
    weights /= weights.sum()
    got = jacobian_features(fm, x, points, weights)
    want, scale = pair_mean_reference(fm, x, points, weights)
    assert got.shape == (n_x, fm.n_features, fm.dim)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_pair_mean_keeps_precision_far_from_the_origin(rng):
    """x and y about 50 from the origin.  Grid bumps take each difference
    x_ik - y_jk - g_a directly and lose nothing to the offset.  Scattered
    bumps expand their squared distances about the population's mean, so
    only the spread about it costs precision, about eps * R^2 / sigma for
    points R from that mean.  At sigma = 0.5 that expansion stops meeting
    1e-12 near R = 40 (two clusters at +-R: 4e-13 at R = 30, 1.5e-12 at
    R = 50); without the shift this case misses it (2e-12)."""
    far = 50.0 / np.sqrt(2.0)
    x = far + rng.normal(size=(5, 2))
    points = far + rng.normal(size=(20, 2))
    weights = rng.uniform(0.1, 1.0, size=20)
    weights /= weights.sum()
    for name in GRID_AND_SCATTERED:
        fm = PAIR_MEAN_MAPS[name]()
        want, scale = pair_mean_reference(fm, x, points, weights)
        got = jacobian_features(fm, x, points, weights)
        assert np.all(np.abs(got - want) <= 1e-12 * scale), name


def test_pair_mean_on_a_wide_population_matches_the_loop(rng):
    """Rows and points spread about 25 about their mean, as in the last
    snapshot of the general_linear benchmark: many kernel arguments fall below
    EXP_FLOOR, where the kernel (or a per-axis factor) is flushed to exactly 0."""
    x = rng.normal(scale=25.0 / np.sqrt(2.0), size=(8, 2))
    points = rng.normal(scale=25.0 / np.sqrt(2.0), size=(40, 2))
    weights = rng.uniform(0.1, 1.0, size=40)
    weights /= weights.sum()
    for name in GRID_AND_SCATTERED:
        fm = PAIR_MEAN_MAPS[name]()
        pair = x[:, None, None, :] - points[None, :, None, :] - fm.rbf_centers[None, None, :, :]
        arguments = -(pair**2).sum(axis=3) / fm.rbf_sigma
        assert 0.2 < np.mean(arguments < EXP_FLOOR) < 0.8
        want, scale = pair_mean_reference(fm, x, points, weights)
        got = jacobian_features(fm, x, points, weights)
        assert np.all(np.abs(got - want) <= 1e-12 * scale), name


def test_default_grids_factorize_and_random_centers_do_not():
    assert [len(axis) for axis in build_default(1)._grid_axes] == [10]
    assert [len(axis) for axis in build_default(2)._grid_axes] == [10, 10]
    assert build_default(3)._grid_axes is None
    assert scattered_default_2d()._grid_axes is None


def test_grid_detection_needs_the_full_grid_in_order():
    centers = grid_centers(2, 4)
    assert FeatureMap(dim=2, rbf_centers=centers)._grid_axes is not None
    # a missing corner, and the same grid with its last axis varying slowest
    assert FeatureMap(dim=2, rbf_centers=centers[1:])._grid_axes is None
    assert FeatureMap(dim=2, rbf_centers=centers[:, ::-1])._grid_axes is None
    # a grid in three dimensions keeps the kernel product
    assert FeatureMap(dim=3, rbf_centers=grid_centers(3, 2))._grid_axes is None


@pytest.mark.parametrize("name", ["bumps", "default-1d", "default-2d"])
def test_grid_pair_mean_does_not_depend_on_pair_blocks(name, rng, monkeypatch):
    fm = PAIR_MEAN_MAPS[name]()
    x = rng.normal(scale=8.0, size=(37, fm.dim))
    points = rng.normal(scale=8.0, size=(53, fm.dim))
    weights = rng.uniform(0.1, 1.0, size=53)
    want = jacobian_features(fm, x, points, weights)
    for budget in [700, 5_000, 60_000, 10**7]:
        monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", budget)
        np.testing.assert_array_equal(jacobian_features(fm, x, points, weights), want)


@pytest.mark.parametrize("name", ["bumps", "default-1d", "default-2d"])
def test_grid_pair_means_get_whole_pair_blocks_and_buffers_that_hold_them(
    name, rng, monkeypatch
):
    # one blocking level: each call takes exactly one pair_chunks block, into
    # buffers allocated once per call that hold the first (largest) block
    fm = PAIR_MEAN_MAPS[name]()
    x = rng.normal(size=(37, fm.dim))
    points = rng.normal(size=(53, fm.dim))
    weights = rng.uniform(0.1, 1.0, size=53)
    blocks, calls = [], []

    def chunks(x, points, width):
        for block, diff in measures.pair_chunks(x, points, width):
            blocks.append(len(x[block]))
            yield block, diff

    def grid_pair_means(fm, pairs, weights, buffers):
        calls.append((len(pairs), [b.shape[1] for b in buffers], [id(b) for b in buffers]))
        return real(fm, pairs, weights, buffers)

    real = features._grid_pair_means
    monkeypatch.setattr(features, "pair_chunks", chunks)
    monkeypatch.setattr(features, "_grid_pair_means", grid_pair_means)
    monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 20_000)
    jacobian_features(fm, x, points, weights)
    assert len(blocks) > 1
    assert [rows for rows, _, _ in calls] == blocks
    assert all(held == [blocks[0]] * fm.dim for _, held, _ in calls)
    assert len({tuple(ids) for _, _, ids in calls}) == 1


def test_grid_pair_mean_holds_no_subnormal_entries(rng):
    """Each factor is flushed on its own, so products of two can sum to a
    subnormal bump mean far from every center; those go to 0, as later
    products with a subnormal entry (the Gram) run several times slower."""
    fm = build_default(2)
    x = rng.normal(scale=40.0 / np.sqrt(2.0), size=(30, 2))
    points = rng.normal(scale=40.0 / np.sqrt(2.0), size=(60, 2))
    weights = rng.uniform(0.1, 1.0, size=60)
    got = jacobian_features(fm, x, points, weights / weights.sum())
    assert not np.any((got != 0) & (np.abs(got) < np.finfo(np.float64).tiny))


def test_cross_terms_of_one_coordinate_are_empty(rng):
    """dim 1 has no pair i < j, so poly_cross adds no feature and no column."""
    centers = grid_centers(1, 4)
    crossed = FeatureMap(dim=1, poly_degree=3, poly_cross=True, rbf_centers=centers)
    plain = FeatureMap(dim=1, poly_degree=3, rbf_centers=centers)
    x = rng.normal(size=(5, 1))
    assert crossed.n_features == plain.n_features == 7
    assert np.array_equal(eval_features(crossed, x), eval_features(plain, x))
    assert np.array_equal(eval_features(crossed, x[0]), eval_features(plain, x[0]))
    assert np.array_equal(jacobian_features(crossed, x), jacobian_features(plain, x))


# ---------------------------------------------------------------------------
# validation


def test_empty_map_rejected():
    with pytest.raises(ValueError, match="empty"):
        FeatureMap(dim=2)


def test_bad_sigma_rejected():
    with pytest.raises(ValueError, match="sigma"):
        FeatureMap(dim=1, rbf_sigma=0.0, rbf_centers=np.zeros((2, 1)))


def test_center_shape_rejected():
    with pytest.raises(ValueError, match="rbf_centers"):
        FeatureMap(dim=2, rbf_centers=np.zeros((3, 5)))


def test_wrong_input_dim_rejected():
    fm = polynomial_map(2, 2)
    with pytest.raises(ValueError, match="dim 2"):
        eval_features(fm, np.array([1.0, 2.0, 3.0]))
