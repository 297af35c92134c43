"""Transport solvers against brute-force and LP oracles, plus plan invariants."""

import itertools
import logging
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from jkoflow.measures import (
    EmpiricalSnapshot,
    PopulationTrajectory,
    check_coupling_marginals,
    uniform_snapshot,
)
from jkoflow.ot import (
    OtConfig,
    cost_matrix,
    couple_snapshots,
    couple_trajectory,
    emd,
    get_solve_count,
    reset_solve_count,
    solve_exact,
    solve_sinkhorn,
    trajectory_emd,
    transport_cost,
)
from jkoflow.ot import _transport_simplex

from conftest import random_snapshot


# ---------------------------------------------------------------------------
# oracles


def permutation_oracle(xa: np.ndarray, xb: np.ndarray, exponent: int = 2) -> float:
    """Minimum uniform-assignment cost by enumerating every permutation."""
    n = xa.shape[0]
    cost = cost_matrix(xa, xb, exponent)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, cost[np.arange(n), perm].sum() / n)
    return float(best)


def linprog_oracle(wa: np.ndarray, wb: np.ndarray, cost: np.ndarray) -> float:
    """Transportation LP objective via scipy's HiGHS solver."""
    n, m = cost.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([wa, wb])
    # drop one redundant constraint so the system has full row rank
    res = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, size=n)
    return w / w.sum()


# ---------------------------------------------------------------------------
# exact solver: spot values and oracle sweeps


def test_single_particle_identity():
    snap = EmpiricalSnapshot(np.array([[2.0, -1.0]]), np.array([1.0]), 0)
    plan = solve_exact(snap, snap)
    assert plan.source_indices.tolist() == [0]
    assert plan.target_indices.tolist() == [0]
    assert plan.masses.tolist() == [1.0]
    assert transport_cost(plan, snap, snap) == 0.0


def test_two_particle_line_prefers_identity():
    mu = uniform_snapshot(np.array([[0.0], [1.0]]), 0)
    nu = uniform_snapshot(np.array([[0.1], [0.9]]), 1)
    plan = solve_exact(mu, nu)
    order = np.argsort(plan.source_indices)
    assert plan.target_indices[order].tolist() == [0, 1]
    assert transport_cost(plan, mu, nu) == pytest.approx(0.01)


def test_five_by_five_matches_permutation_oracle(rng):
    for _ in range(10):
        xa = rng.normal(size=(5, 3))
        xb = rng.normal(size=(5, 3))
        mu = uniform_snapshot(xa, 0)
        nu = uniform_snapshot(xb, 1)
        plan = solve_exact(mu, nu)
        assert transport_cost(plan, mu, nu) == pytest.approx(permutation_oracle(xa, xb))


def test_general_instances_match_linprog(rng):
    # unequal counts and non-uniform weights exercise the simplex path
    for trial in range(25):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(2, 12))
        d = int(rng.integers(1, 4))
        mu = EmpiricalSnapshot(rng.normal(size=(n, d)), random_weights(rng, n), 0)
        nu = EmpiricalSnapshot(rng.normal(size=(m, d)), random_weights(rng, m), 1)
        plan = solve_exact(mu, nu)
        check_coupling_marginals(plan, mu, nu)
        got = transport_cost(plan, mu, nu)
        want = linprog_oracle(mu.weights, nu.weights, cost_matrix(mu.points, nu.points))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), f"trial {trial}"


@pytest.mark.parametrize(
    "n, m, uniform",
    [(60, 90, True), (90, 61, True), (84, 90, True), (73, 77, True), (79, 66, False)],
)
def test_benchmark_size_instances_match_linprog(n, m, uniform):
    # the ragged_exact benchmark's counts: uniform ragged instances are
    # degenerate, with exact ties in the least-cost start and degenerate pivots
    rng = np.random.default_rng(n * m)
    xa = rng.normal(size=(n, 2))
    xb = rng.normal(size=(m, 2))
    if uniform:
        mu, nu = uniform_snapshot(xa, 0), uniform_snapshot(xb, 1)
    else:
        mu = EmpiricalSnapshot(xa, random_weights(rng, n), 0)
        nu = EmpiricalSnapshot(xb, random_weights(rng, m), 1)
    plan = solve_exact(mu, nu)
    want = linprog_oracle(mu.weights, nu.weights, cost_matrix(xa, xb))
    assert transport_cost(plan, mu, nu) == pytest.approx(want, rel=1e-9)
    np.testing.assert_allclose(plan.source_marginal(n), mu.weights, rtol=0, atol=1e-15)
    np.testing.assert_allclose(plan.target_marginal(m), nu.weights, rtol=0, atol=1e-15)
    assert len(plan.masses) <= n + m - 1


def simplex_certificate(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> None:
    """Solve, then check the basis is a spanning tree of n + m - 1 cells, the
    plan is feasible, and the duals read off the tree prove it optimal."""
    n, m = cost.shape
    alloc = _transport_simplex(a, b, cost)
    assert len(alloc) == n + m - 1
    plan = np.zeros((n, m))
    for (i, j), q in alloc.items():
        plan[i, j] = q
    assert plan.min() >= 0.0
    np.testing.assert_allclose(plan.sum(axis=1), a, rtol=0, atol=1e-15)
    np.testing.assert_allclose(plan.sum(axis=0), b, rtol=0, atol=1e-15)
    # duals from u[0] = 0 along the basis arcs; n + m - 1 arcs reaching all
    # n + m nodes make a tree
    adj: dict[int, list[int]] = {k: [] for k in range(n + m)}
    for i, j in alloc:
        adj[i].append(n + j)
        adj[n + j].append(i)
    u = np.zeros(n)
    v = np.zeros(m)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
                if nb >= n:
                    v[nb - n] = cost[node, nb - n] - u[node]
                else:
                    u[nb] = cost[nb, node - n] - v[node - n]
    assert len(seen) == n + m
    scale = max(1.0, float(np.abs(cost).max()))
    reduced = cost - u[:, None] - v[None, :]
    basic = tuple(np.array(sorted(alloc)).T)
    np.testing.assert_allclose(reduced[basic], 0.0, rtol=0, atol=1e-12 * scale)
    assert reduced.min() >= -1e-11 * scale


def _duplicated(rng: np.random.Generator, n: int, distinct: int) -> np.ndarray:
    return rng.normal(size=(distinct, 2))[rng.integers(0, distinct, size=n)]


@pytest.mark.parametrize(
    "case", ["60x90 uniform", "84x90 uniform", "79x66 weighted", "duplicated", "zero weight"]
)
@pytest.mark.parametrize("exponent", [1, 2])
def test_simplex_returns_an_optimal_spanning_tree(case, exponent):
    rng = np.random.default_rng(len(case) * 10 + exponent)
    if case.endswith("uniform"):
        # 60 x 90 shares the factor 30: exact ties in the start and degenerate pivots
        n, m = (int(k) for k in case.split()[0].split("x"))
        xa, xb = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    elif case == "79x66 weighted":
        xa, xb = rng.normal(size=(79, 2)), rng.normal(size=(66, 2))
        a, b = random_weights(rng, 79), random_weights(rng, 66)
    elif case == "duplicated":
        xa, xb = _duplicated(rng, 40, 12), _duplicated(rng, 60, 15)
        a, b = np.full(40, 1.0 / 40), np.full(60, 1.0 / 60)
    else:
        xa, xb = rng.normal(size=(45, 2)), rng.normal(size=(70, 2))
        a, b = random_weights(rng, 45), np.full(70, 1.0 / 70)
        a[7] = 0.0
        a /= a.sum()
    simplex_certificate(a, b, cost_matrix(xa, xb, exponent))


@given(
    n=st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
    m=st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
    case=st.sampled_from(["uniform", "duplicated", "zero weight"]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_small_degenerate_instances_match_linprog(n, m, case, seed):
    # uniform weights with a shared factor tie allocations exactly; duplicated
    # points tie costs; a zero weight makes a zero-mass line
    rng = np.random.default_rng(seed)
    xa, xb = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    if case == "duplicated":
        xa, xb = _duplicated(rng, n, max(1, n // 2)), _duplicated(rng, m, max(1, m // 2))
    elif case == "zero weight":
        a[int(rng.integers(0, n))] = 0.0
        a /= a.sum()
    mu, nu = EmpiricalSnapshot(xa, a, 0), EmpiricalSnapshot(xb, b, 1)
    cost = cost_matrix(xa, xb)
    want = linprog_oracle(a, b, cost)
    assert transport_cost(solve_exact(mu, nu), mu, nu) == pytest.approx(want, rel=1e-9, abs=1e-12)
    # the simplex itself, also where solve_exact would take the assignment path
    simplex_certificate(a, b, cost)


@pytest.mark.parametrize("seed", [5, 17, 21, 35, 39])
def test_exact_plans_keep_no_rounding_mass(seed):
    # uniform 60-90-point instances whose pivots leave masses of 1e-18 to
    # 8e-17 on basic cells (seed 5: 80 x 84, 2.8e-17 and 8.3e-17)
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(60, 91, size=2))
    mu = uniform_snapshot(rng.normal(size=(n, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(m, 2)), 1)
    plan = solve_exact(mu, nu, cost_exponent=1)
    floor = 64 * np.finfo(np.float64).eps * max(1 / n, 1 / m)
    assert plan.masses.min() > floor
    check_coupling_marginals(plan, mu, nu)
    want = linprog_oracle(mu.weights, nu.weights, cost_matrix(mu.points, nu.points, 1))
    assert transport_cost(plan, mu, nu, cost_exponent=1) == pytest.approx(want, rel=1e-9)


def test_simplex_route_agrees_with_assignment_on_uniform(rng):
    # call the simplex directly: the public path would shortcut to assignment
    xa = rng.normal(size=(7, 2))
    xb = rng.normal(size=(7, 2))
    w = np.full(7, 1.0 / 7)
    alloc = _transport_simplex(w, w, cost_matrix(xa, xb))
    objective = sum(cost_matrix(xa, xb)[i, j] * q for (i, j), q in alloc.items())
    assert objective == pytest.approx(permutation_oracle(xa, xb))


def test_exponent_one_matches_permutation_oracle(rng):
    xa = rng.normal(size=(5, 2))
    xb = rng.normal(size=(5, 2))
    mu = uniform_snapshot(xa, 0)
    nu = uniform_snapshot(xb, 1)
    plan = solve_exact(mu, nu, cost_exponent=1)
    got = transport_cost(plan, mu, nu, cost_exponent=1)
    assert got == pytest.approx(permutation_oracle(xa, xb, exponent=1))


def test_exact_is_deterministic(rng):
    mu = EmpiricalSnapshot(rng.normal(size=(9, 2)), random_weights(rng, 9), 0)
    nu = EmpiricalSnapshot(rng.normal(size=(6, 2)), random_weights(rng, 6), 1)
    # 73 x 77 is a ragged_exact size, long enough for the reduced-cost shifts
    # to accumulate rounding
    ragged = (
        uniform_snapshot(rng.normal(size=(73, 2)), 0),
        uniform_snapshot(rng.normal(size=(77, 2)), 1),
    )
    for source, target in ((mu, nu), ragged):
        first = solve_exact(source, target)
        second = solve_exact(source, target)
        np.testing.assert_array_equal(first.source_indices, second.source_indices)
        np.testing.assert_array_equal(first.target_indices, second.target_indices)
        np.testing.assert_array_equal(first.masses, second.masses)


def test_zero_weight_particle_carries_no_mass(rng):
    points = rng.normal(size=(4, 2))
    weights = np.array([0.5, 0.0, 0.25, 0.25])
    mu = EmpiricalSnapshot(points, weights, 0)
    nu = uniform_snapshot(rng.normal(size=(3, 2)), 1)
    plan = solve_exact(mu, nu)
    check_coupling_marginals(plan, mu, nu)
    assert plan.masses[plan.source_indices == 1].sum() == pytest.approx(0.0, abs=1e-15)


def test_dimension_mismatch_rejected(rng):
    mu = uniform_snapshot(rng.normal(size=(3, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(3, 3)), 1)
    with pytest.raises(ValueError):
        solve_exact(mu, nu)


def test_cost_matrix_exponent_validation(rng):
    x = rng.normal(size=(2, 2))
    with pytest.raises(ValueError, match="cost_exponent"):
        cost_matrix(x, x, cost_exponent=3)


def test_duplicated_particles_allowed():
    points = np.array([[1.0], [1.0], [2.0]])
    mu = uniform_snapshot(points, 0)
    nu = uniform_snapshot(points + 0.5, 1)
    plan = solve_exact(mu, nu)
    check_coupling_marginals(plan, mu, nu)
    assert transport_cost(plan, mu, nu) == pytest.approx(0.25)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_exact_beats_greedy_matching(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    xa = rng.normal(size=(n, 2))
    xb = rng.normal(size=(n, 2))
    mu = uniform_snapshot(xa, 0)
    nu = uniform_snapshot(xb, 1)
    cost = cost_matrix(xa, xb)
    # greedy feasible plan: each row takes its cheapest unused column
    taken: set[int] = set()
    greedy = 0.0
    for i in range(n):
        j = min((j for j in range(n) if j not in taken), key=lambda j: cost[i, j])
        taken.add(j)
        greedy += cost[i, j] / n
    plan = solve_exact(mu, nu)
    assert transport_cost(plan, mu, nu) <= greedy + 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_uniform_equal_count_plan_is_permutation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    mu = uniform_snapshot(rng.normal(size=(n, 3)), 0)
    nu = uniform_snapshot(rng.normal(size=(n, 3)), 1)
    plan = solve_exact(mu, nu)
    assert plan.source_indices.shape[0] == n
    assert sorted(plan.source_indices) == list(range(n))
    assert sorted(plan.target_indices) == list(range(n))
    np.testing.assert_allclose(plan.masses, 1.0 / n)


# ---------------------------------------------------------------------------
# entropic solver


def test_sinkhorn_single_particle_any_epsilon():
    snap = EmpiricalSnapshot(np.array([[0.5]]), np.array([1.0]), 0)
    for epsilon in (0.01, 1.0, 100.0):
        plan = solve_sinkhorn(snap, snap, epsilon=epsilon)
        assert plan.source_indices.tolist() == [0]
        assert plan.masses == pytest.approx([1.0])
        assert plan.converged


def test_sinkhorn_small_epsilon_near_exact(rng):
    mu = uniform_snapshot(rng.normal(size=(3, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(3, 2)), 1)
    exact_cost = transport_cost(solve_exact(mu, nu), mu, nu)
    plan = solve_sinkhorn(mu, nu, epsilon=0.01)
    entropic_cost = transport_cost(plan, mu, nu)
    assert abs(entropic_cost - exact_cost) <= 0.05 * exact_cost


def test_sinkhorn_marginals_at_unit_epsilon(rng):
    mu = EmpiricalSnapshot(rng.normal(size=(10, 2)), random_weights(rng, 10), 0)
    nu = EmpiricalSnapshot(rng.normal(size=(10, 2)), random_weights(rng, 10), 1)
    plan = solve_sinkhorn(mu, nu, epsilon=1.0)
    assert plan.converged
    row = np.bincount(plan.source_indices, weights=plan.masses, minlength=10)
    col = np.bincount(plan.target_indices, weights=plan.masses, minlength=10)
    assert np.abs(row - mu.weights).sum() < 1e-6
    assert np.abs(col - nu.weights).sum() < 1e-6


def test_sinkhorn_objective_decreases_with_epsilon(rng):
    mu = uniform_snapshot(rng.normal(size=(8, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(8, 2)) + 1.0, 1)
    exact_cost = transport_cost(solve_exact(mu, nu), mu, nu)
    costs = []
    for epsilon in (5.0, 1.0, 0.2, 0.05):
        plan = solve_sinkhorn(mu, nu, epsilon=epsilon, max_iters=20_000)
        costs.append(transport_cost(plan, mu, nu))
    assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))
    assert costs[-1] >= exact_cost - 1e-6
    assert costs[-1] <= exact_cost * 1.05


def test_sinkhorn_iteration_cap_returns_best_iterate(rng, caplog):
    mu = uniform_snapshot(rng.normal(size=(6, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(6, 2)) + 3.0, 1)
    with caplog.at_level(logging.WARNING, logger="jkoflow.ot"):
        plan = solve_sinkhorn(mu, nu, epsilon=0.05, max_iters=2)
    assert not plan.converged
    assert plan.masses.sum() == pytest.approx(1.0)
    assert any("did not reach tolerance" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("max_iters", [2000, 3], ids=["converged", "iteration-cap"])
def test_sinkhorn_coupling_of_unequal_counts_has_exact_marginals(rng, max_iters):
    # the L1 stopping tolerance alone leaves per-particle errors far above
    # COUPLING_ATOL; the rounding onto the marginals removes them, and a plan
    # cut off by the iteration cap still reports converged=False
    mu = uniform_snapshot(rng.normal(size=(37, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(29, 2)) * 1.5 + 0.5, 1)
    plan = couple_snapshots(mu, nu, OtConfig(method="sinkhorn", max_iters=max_iters))
    check_coupling_marginals(plan, mu, nu)
    assert plan.converged == (max_iters == 2000)


def test_sinkhorn_log_domain_survives_small_epsilon(rng):
    # kernel entries exp(-cost/eps) underflow to zero here; log domain must not
    mu = uniform_snapshot(rng.normal(size=(5, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(5, 2)) + 2.0, 1)
    plan = solve_sinkhorn(mu, nu, epsilon=0.001, max_iters=20_000, tolerance=1e-4)
    assert plan.converged
    exact_cost = transport_cost(solve_exact(mu, nu), mu, nu)
    assert transport_cost(plan, mu, nu) == pytest.approx(exact_cost, rel=1e-3)


def test_sinkhorn_denormal_epsilon_raises():
    mu = uniform_snapshot(np.array([[0.0], [1.0]]), 0)
    nu = uniform_snapshot(np.array([[5.0], [9.0]]), 1)
    # the division by a denormal overflows before the guard fires; that
    # spray is the very condition under test
    with np.errstate(over="ignore"), pytest.raises(
        FloatingPointError, match="epsilon is too small"
    ):
        solve_sinkhorn(mu, nu, epsilon=5e-324)


def test_sinkhorn_epsilon_validation(rng):
    snap = uniform_snapshot(rng.normal(size=(2, 1)), 0)
    with pytest.raises(ValueError, match="epsilon"):
        solve_sinkhorn(snap, snap, epsilon=0.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # no iteration leaves no marginal error to report
        ({"max_iters": 0}, "max_iters must be >= 1"),
        # a tolerance no iterate can meet would only run to the cap
        ({"tolerance": 0.0}, "tolerance must be positive"),
        ({"tolerance": -1e-6}, "tolerance must be positive"),
    ],
    ids=["max_iters_zero", "tolerance_zero", "tolerance_negative"],
)
def test_sinkhorn_iteration_argument_validation(rng, kwargs, message):
    snap = uniform_snapshot(rng.normal(size=(2, 1)), 0)
    with pytest.raises(ValueError, match=message):
        solve_sinkhorn(snap, snap, **kwargs)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        OtConfig(method="approximate")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -1.0},
        {"max_iters": 0},
        {"tolerance": 0.0},
        {"batch_size": 1},
        {"jobs": 0},
    ],
)
def test_config_rejects_bad_numbers(kwargs):
    with pytest.raises(ValueError):
        OtConfig(**kwargs)


# ---------------------------------------------------------------------------
# trajectory coupling and batching


def _drifting_trajectory(rng, n=20, d=2, steps=5, tau=0.05):
    snaps = []
    points = rng.normal(size=(n, d))
    for t in range(steps + 1):
        snaps.append(uniform_snapshot(points.copy(), t))
        points = points + tau * rng.normal(size=(n, d))
    return PopulationTrajectory(snaps, tau)


def test_couple_trajectory_one_plan_per_consecutive_pair(rng):
    traj = _drifting_trajectory(rng, steps=5)
    plans = couple_trajectory(traj)
    assert len(plans) == 5
    for t, plan in enumerate(plans):
        assert plan.source_time == t
        assert plan.target_time == t + 1


def test_couple_trajectory_parallel_matches_serial(rng):
    traj = _drifting_trajectory(rng, steps=4)
    serial = couple_trajectory(traj, OtConfig(jobs=1))
    parallel = couple_trajectory(traj, OtConfig(jobs=3))
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a.source_indices, b.source_indices)
        np.testing.assert_array_equal(a.target_indices, b.target_indices)
        np.testing.assert_array_equal(a.masses, b.masses)


def test_single_batch_when_population_fits(rng):
    mu = uniform_snapshot(rng.normal(size=(100, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(100, 2)), 1)
    reset_solve_count()
    couple_snapshots(mu, nu, OtConfig(batch_size=100))
    assert get_solve_count() == 1


def test_oversized_population_splits_into_two_batches(rng):
    n = 2000
    mu = uniform_snapshot(rng.normal(size=(n, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(n, 2)) + 0.1, 1)
    reset_solve_count()
    plan = couple_snapshots(mu, nu, OtConfig(batch_size=1000))
    assert get_solve_count() == 2
    assert plan.masses.sum() == pytest.approx(1.0)
    check_coupling_marginals(plan, mu, nu)


def test_batched_coupling_deterministic_per_seed(rng):
    mu = uniform_snapshot(rng.normal(size=(30, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(30, 2)), 1)
    cfg = OtConfig(batch_size=10, seed=7)
    first = couple_snapshots(mu, nu, cfg)
    second = couple_snapshots(mu, nu, cfg)
    np.testing.assert_array_equal(first.source_indices, second.source_indices)
    np.testing.assert_array_equal(first.target_indices, second.target_indices)
    np.testing.assert_array_equal(first.masses, second.masses)


def test_large_batch_size_equals_exact(rng):
    mu = uniform_snapshot(rng.normal(size=(40, 2)), 0)
    nu = uniform_snapshot(rng.normal(size=(40, 2)), 1)
    direct = solve_exact(mu, nu)
    via_config = couple_snapshots(mu, nu, OtConfig(batch_size=1000))
    np.testing.assert_array_equal(direct.source_indices, via_config.source_indices)
    np.testing.assert_array_equal(direct.target_indices, via_config.target_indices)
    np.testing.assert_allclose(direct.masses, via_config.masses)


def test_solve_counter_resets(rng):
    snap = uniform_snapshot(rng.normal(size=(3, 1)), 0)
    reset_solve_count()
    solve_exact(snap, snap)
    solve_sinkhorn(snap, snap)
    assert get_solve_count() == 2
    reset_solve_count()
    assert get_solve_count() == 0


def test_solve_count_is_exact_under_parallel_coupling(rng):
    # 11 transitions on 4 threads, switching threads as often as the
    # interpreter allows, 20 times over: a lost update would show as a
    # shortfall
    snaps = [uniform_snapshot(rng.normal(size=(6, 2)), t) for t in range(12)]
    traj = PopulationTrajectory(snaps, 0.1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            before = get_solve_count()
            couple_trajectory(traj, OtConfig(jobs=4))
            assert get_solve_count() - before == 11
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# earth mover's distance


def test_emd_identical_is_zero(rng):
    snap = uniform_snapshot(rng.normal(size=(6, 2)), 0)
    assert emd(snap, snap) == pytest.approx(0.0, abs=1e-12)


def test_emd_single_particle_translation():
    mu = EmpiricalSnapshot(np.array([[0.0]]), np.array([1.0]), 0)
    nu = EmpiricalSnapshot(np.array([[3.0]]), np.array([1.0]), 1)
    assert emd(mu, nu) == pytest.approx(3.0)


def test_emd_four_particles_matches_oracle(rng):
    xa = rng.normal(size=(4, 2))
    xb = rng.normal(size=(4, 2))
    got = emd(uniform_snapshot(xa, 0), uniform_snapshot(xb, 1))
    assert got == pytest.approx(permutation_oracle(xa, xb, exponent=1))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_emd_symmetry_and_triangle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = uniform_snapshot(rng.normal(size=(n, 2)), 0)
    b = uniform_snapshot(rng.normal(size=(n, 2)), 1)
    c = uniform_snapshot(rng.normal(size=(n, 2)), 2)
    ab, ba = emd(a, b), emd(b, a)
    assert ab == pytest.approx(ba, rel=1e-9, abs=1e-12)
    assert emd(a, c) <= ab + emd(b, c) + 1e-8


def test_trajectory_emd_zero_for_identical(rng):
    traj = _drifting_trajectory(rng, steps=3)
    mean, std, per_step = trajectory_emd(traj, traj)
    assert mean == 0.0
    assert std == 0.0
    assert per_step == [0.0, 0.0, 0.0]


def test_trajectory_emd_hand_values():
    def single(x, t):
        return EmpiricalSnapshot(np.array([[float(x)]]), np.array([1.0]), t)

    reference = PopulationTrajectory([single(0, 0), single(0, 1), single(0, 2)], 0.1)
    predicted = PopulationTrajectory([single(0, 0), single(1, 1), single(3, 2)], 0.1)
    mean, std, per_step = trajectory_emd(predicted, reference)
    assert per_step == pytest.approx([1.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)  # population std of {1, 3}


def test_trajectory_emd_matches_per_step_oracle(rng):
    predicted = _drifting_trajectory(rng, steps=5)
    reference = _drifting_trajectory(rng, steps=5)
    mean, std, per_step = trajectory_emd(predicted, reference)
    oracle = [
        emd(p, r)
        for p, r in zip(predicted.snapshots[1:], reference.snapshots[1:])
    ]
    assert per_step == pytest.approx(oracle)
    assert mean == pytest.approx(np.mean(oracle))
    assert std == pytest.approx(np.std(oracle))


def test_trajectory_emd_length_mismatch(rng):
    a = _drifting_trajectory(rng, steps=3)
    b = _drifting_trajectory(rng, steps=4)
    with pytest.raises(ValueError, match="length"):
        trajectory_emd(a, b)


def test_trajectory_emd_needs_a_transition(rng):
    single = _drifting_trajectory(rng, steps=0)
    assert single.n_snapshots == 1
    with pytest.raises(ValueError, match="at least two snapshots"):
        trajectory_emd(single, single)
