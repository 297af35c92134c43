"""Discrete optimal transport between weighted point clouds.

Two solvers: an exact one (transportation simplex, with a fast assignment
path for uniform equal-count instances, where the optimum is a permutation)
and an entropically regularized one (log-domain Sinkhorn).  On top of those:
trajectory coupling with optional batching, and earth-mover distances.

A module-level counter tracks how many transport solves have run, so callers
can verify that couplings are computed once and reused.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .measures import (
    Coupling,
    EmpiricalSnapshot,
    PopulationTrajectory,
    check_coupling_marginals,
    logsumexp,
)

logger = logging.getLogger(__name__)

_solve_count = 0
# couple_trajectory counts from worker threads, and += is a read-modify-write
_solve_count_lock = threading.Lock()

# a basic cell of an exact plan whose mass is below this many ulps of the
# largest weight holds pivot rounding (1/78 - 1/88 and the like), not mass
_ROUNDING_ULPS = 64


def reset_solve_count() -> None:
    global _solve_count
    _solve_count = 0


def get_solve_count() -> int:
    return _solve_count


def _count_solve() -> None:
    global _solve_count
    with _solve_count_lock:
        _solve_count += 1


@dataclass
class OtConfig:
    """How consecutive snapshots get coupled."""

    method: str = "exact"
    epsilon: float = 1.0
    max_iters: int = 2000
    tolerance: float = 1e-6
    batch_size: int = 1000
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.method not in ("exact", "sinkhorn"):
            raise ValueError(f"method must be 'exact' or 'sinkhorn', got {self.method!r}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def cost_matrix(x: np.ndarray, y: np.ndarray, cost_exponent: int = 2) -> np.ndarray:
    if cost_exponent == 2:
        return cdist(x, y, "sqeuclidean")
    if cost_exponent == 1:
        return cdist(x, y, "euclidean")
    raise ValueError(f"cost_exponent must be 1 or 2, got {cost_exponent}")


def transport_cost(
    coupling: Coupling,
    source: EmpiricalSnapshot,
    target: EmpiricalSnapshot,
    cost_exponent: int = 2,
) -> float:
    """Objective value of a plan: sum of mass times pairwise cost."""
    diff = source.points[coupling.source_indices] - target.points[coupling.target_indices]
    dist_sq = (diff**2).sum(axis=1)
    if cost_exponent == 2:
        return float(coupling.masses @ dist_sq)
    return float(coupling.masses @ np.sqrt(dist_sq))


# ---------------------------------------------------------------------------
# exact solver


def _is_uniform(w: np.ndarray) -> bool:
    return bool(np.abs(w - 1.0 / w.shape[0]).max() < 1e-12)


class _SimplexError(RuntimeError):
    pass


def _least_cost_start(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray
) -> dict[tuple[int, int], float]:
    """Initial basic feasible solution: n + m - 1 cells forming a spanning tree.

    Cells are visited cheapest first (row-major on equal cost).  A cell whose
    row and column are both open gets min(remaining a_i, remaining b_j), and
    the allocation closes exactly one line, the row when a_i's remainder is
    no larger than b_j's, so the allocated cells form a forest.  Zero-mass
    cells, cheapest first, then join its components into a spanning tree.
    """
    n, m = cost.shape
    ra, rb = a.tolist(), b.tolist()
    row_open, col_open = [True] * n, [True] * m
    order = np.argsort(cost, axis=None, kind="stable").tolist()
    alloc: dict[tuple[int, int], float] = {}
    for flat in order:
        i, j = divmod(flat, m)
        if row_open[i] and col_open[j]:
            q = min(ra[i], rb[j])
            alloc[(i, j)] = q
            if ra[i] <= rb[j]:
                row_open[i] = False
            else:
                col_open[j] = False
            ra[i] -= q
            rb[j] -= q
    if len(alloc) < n + m - 1:
        # union-find over nodes: rows 0..n-1, columns n..n+m-1
        root = list(range(n + m))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for i, j in alloc:
            root[find(i)] = find(n + j)
        for flat in order:
            i, j = divmod(flat, m)
            ri, rj = find(i), find(n + j)
            if ri != rj:
                root[ri] = rj
                alloc[(i, j)] = 0.0
                if len(alloc) == n + m - 1:
                    break
    return alloc


def _hang(
    adj: list[set[int]],
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    parent: list[int],
    start: int,
    via: int,
) -> list[int]:
    """Hang the tree component of ``start`` below ``via`` (-1: make it the root).

    Walks the component without crossing back to ``via``, sets each node's
    parent, and sets its dual from the tree arc to its parent, u_i + v_j =
    cost_ij, with u = 0 at a root.  Returns the nodes walked, ``start`` first.
    """
    n = u.shape[0]
    parent[start] = via
    nodes = [start]
    for node in nodes:
        p = parent[node]
        if node < n:
            u[node] = 0.0 if p < 0 else cost[node, p - n] - v[p - n]
        else:
            v[node - n] = cost[p, node - n] - u[p]
        for nb in adj[node]:
            if nb != p:
                parent[nb] = node
                nodes.append(nb)
    return nodes


def _tree_path(parent: list[int], start: int, goal: int) -> list[int]:
    """Nodes on the tree path from ``start`` to ``goal``, both included."""
    up = [start]
    while parent[up[-1]] >= 0:
        up.append(parent[up[-1]])
    depth = {node: k for k, node in enumerate(up)}
    down = [goal]
    while down[-1] not in depth:
        down.append(parent[down[-1]])
    return up[: depth[down[-1]]] + down[::-1]


def _entering(reduced: np.ndarray, opt_tol: float, bland: bool) -> tuple[int, int] | None:
    """Entering cell, None when no reduced cost is below -opt_tol.

    Dantzig: the most negative, and argmin takes the first hit, the lowest
    (i, j).  Bland: the first negative in row-major order.
    """
    if bland:
        candidates = np.argwhere(reduced < -opt_tol)
        if candidates.shape[0] == 0:
            return None
        return int(candidates[0, 0]), int(candidates[0, 1])
    ei, ej = divmod(int(np.argmin(reduced)), reduced.shape[1])
    return None if reduced[ei, ej] >= -opt_tol else (ei, ej)


def _transport_simplex(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray
) -> dict[tuple[int, int], float]:
    """Minimize <cost, plan> over plans with marginals (a, b).

    Starts from the least-cost basis of ``_least_cost_start``.  Entering
    variable: most negative reduced cost, first in row-major order on ties;
    after a pivot budget, falls back to Bland's rule (first negative in
    row-major order), which cannot cycle.  Leaving variable: smallest
    allocation on the shrinking arcs, lowest (i, j) on ties.

    The basis is kept as a tree rooted at row 0, and the duals are set by one
    walk of it.  A pivot walks only the subtree that the leaving arc cuts off
    and the entering arc re-hangs: its duals are set again from their tree
    arcs, so they always equal a full walk's, and the reduced costs move by
    row and column shifts of the entering cell's reduced cost.  Before the
    plan is declared optimal the reduced costs are rebuilt from the duals, so
    the exit test does not see the rounding those shifts accumulate.
    """
    n, m = cost.shape
    alloc = _least_cost_start(a, b, cost)
    # tree adjacency over nodes: rows 0..n-1, columns n..n+m-1
    adj: list[set[int]] = [set() for _ in range(n + m)]
    for (i, j) in alloc:
        adj[i].add(n + j)
        adj[n + j].add(i)

    scale = max(1.0, float(np.abs(cost).max()))
    opt_tol = 1e-11 * scale
    bland_after = 50 * (n + m)
    max_pivots = 2000 + 400 * (n + m)

    u = np.empty(n)
    v = np.empty(m)
    parent = [-1] * (n + m)
    if len(_hang(adj, cost, u, v, parent, 0, -1)) != n + m:
        raise _SimplexError("basis lost connectivity")
    reduced = cost - u[:, None] - v[None, :]
    rebuilt = True

    for pivot in range(max_pivots):
        bland = pivot >= bland_after
        entry = _entering(reduced, opt_tol, bland)
        if entry is None and not rebuilt:
            reduced = cost - u[:, None] - v[None, :]
            rebuilt = True
            entry = _entering(reduced, opt_tol, bland)
        if entry is None:
            break
        rebuilt = False
        ei, ej = entry

        # cycle: entering arc plus the unique tree path between its endpoints
        path = _tree_path(parent, ei, n + ej)
        # path edges alternate -,+,-,... starting and ending with - (odd length)
        minus_edges = []
        plus_edges = []
        for k in range(len(path) - 1):
            x, y = path[k], path[k + 1]
            cell = (x, y - n) if x < n else (y, x - n)
            (minus_edges if k % 2 == 0 else plus_edges).append(cell)
        theta = min(alloc[c] for c in minus_edges)
        leaving = min(c for c in minus_edges if alloc[c] <= theta)
        for c in minus_edges:
            alloc[c] -= theta
        for c in plus_edges:
            alloc[c] += theta
        alloc[(ei, ej)] = theta
        del alloc[leaving]
        adj[ei].add(n + ej)
        adj[n + ej].add(ei)
        adj[leaving[0]].discard(n + leaving[1])
        adj[n + leaving[1]].discard(leaving[0])

        # the leaving arc's child end lies on the path's up leg (ei's side)
        # or its down leg (the column's side); that side is re-hung
        k = minus_edges.index(leaving) * 2
        delta = reduced[ei, ej]
        if parent[path[k]] == path[k + 1]:
            start, via, shift = ei, n + ej, delta
        else:
            start, via, shift = n + ej, ei, -delta
        nodes = _hang(adj, cost, u, v, parent, start, via)
        reduced[[x for x in nodes if x < n]] -= shift
        reduced[:, [x - n for x in nodes if x >= n]] += shift
    else:
        raise _SimplexError(
            f"transportation simplex exceeded {max_pivots} pivots "
            "(degenerate cycling); inputs may be pathological"
        )
    return alloc


def _times(source: EmpiricalSnapshot, target: EmpiricalSnapshot) -> tuple[int, int]:
    # a plan must point forward in time even between snapshots of one time
    # index, as emd's predicted and observed clouds are
    return source.time_index, max(target.time_index, source.time_index + 1)


def solve_exact(
    source: EmpiricalSnapshot,
    target: EmpiricalSnapshot,
    cost_exponent: int = 2,
) -> Coupling:
    """Optimal plan between two snapshots under squared (2) or plain (1) distance.

    Deterministic: ties in pivoting are broken toward the lexicographically
    lowest cell.  For uniform weights with equal particle counts the plan is a
    permutation and is found by assignment instead of simplex.  Otherwise the
    transportation simplex starts from a least-cost basis and updates its
    duals only on the subtree each pivot re-hangs (``_transport_simplex``);
    cells left with rounding masses, below 64 ulps of the largest weight, are
    dropped before the plan is renormalized.
    """
    _count_solve()
    st, tt = _times(source, target)
    cost = cost_matrix(source.points, target.points, cost_exponent)
    n, m = cost.shape
    if n == m and _is_uniform(source.weights) and _is_uniform(target.weights):
        rows, cols = linear_sum_assignment(cost)
        masses = np.full(n, 1.0 / n)
        coupling = Coupling(st, tt, rows, cols, masses)
    else:
        alloc = _transport_simplex(source.weights, target.weights, cost)
        largest = max(source.weights.max(), target.weights.max())
        floor = _ROUNDING_ULPS * np.finfo(np.float64).eps * largest
        cells = sorted(c for c, q in alloc.items() if q > floor)
        src = np.array([c[0] for c in cells], dtype=np.int64)
        tgt = np.array([c[1] for c in cells], dtype=np.int64)
        masses = np.array([alloc[c] for c in cells])
        coupling = Coupling(st, tt, src, tgt, masses / masses.sum())
    check_coupling_marginals(coupling, source, target)
    return coupling


# ---------------------------------------------------------------------------
# entropic solver


def solve_sinkhorn(
    source: EmpiricalSnapshot,
    target: EmpiricalSnapshot,
    epsilon: float = 1.0,
    max_iters: int = 2000,
    tolerance: float = 1e-6,
    cost_exponent: int = 2,
) -> Coupling:
    """Entropically regularized plan via log-domain Sinkhorn iterations.

    Converged when the row marginal matches within ``tolerance`` in L1 right
    after a column update, which leaves the column marginal exact.  If the
    iteration cap is hit first, the last iterate is used with
    ``converged=False`` and a warning is logged.  Either way the plan is then
    rounded onto the exact marginals.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    _count_solve()
    st, tt = _times(source, target)
    cost = cost_matrix(source.points, target.points, cost_exponent)
    a, b = source.weights, target.weights
    live = a > 0
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)

    def f_update(g: np.ndarray) -> np.ndarray:
        return epsilon * (log_a - logsumexp((g[None, :] - cost) / epsilon, axis=1))

    f = f_update(np.zeros(cost.shape[1]))
    for iteration in range(max_iters):
        g = epsilon * (log_b - logsumexp((f[:, None] - cost) / epsilon, axis=0))
        if not np.all(np.isfinite(f[live])):
            raise FloatingPointError(
                "Sinkhorn potentials overflowed; epsilon is too small for this "
                "cost scale, increase it"
            )
        # the row sums of plan(f, g) are a * exp((f - f_next) / eps), where
        # f_next is the next row update's potential
        f_next = f_update(g)
        row_err = float(np.abs(np.expm1((f[live] - f_next[live]) / epsilon) * a[live]).sum())
        converged = row_err < tolerance
        if converged or iteration == max_iters - 1:
            break
        f = f_next
    if not converged:
        logger.warning(
            "Sinkhorn did not reach tolerance %.1e in %d iterations "
            "(row marginal error %.2e); returning the last iterate",
            tolerance,
            max_iters,
            row_err,
        )
    plan = _round_to_marginals(np.exp((f[:, None] + g[None, :] - cost) / epsilon), a, b)
    src, tgt = np.nonzero(plan > 0)
    masses = plan[src, tgt]
    return Coupling(st, tt, src, tgt, masses / masses.sum(), converged=converged)


def _round_to_marginals(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nearby plan with marginals exactly (a, b): Altschuler, Weed & Rigollet
    2017, Algorithm 2.  Rows are scaled down to at most a, columns to at most
    b, and the rank-one term err_r err_c^T / |err_c|_1 restores the missing mass."""
    row = plan.sum(axis=1)
    plan *= np.minimum(1.0, np.divide(a, row, out=np.ones_like(a), where=row > 0))[:, None]
    col = plan.sum(axis=0)
    plan *= np.minimum(1.0, np.divide(b, col, out=np.ones_like(b), where=col > 0))[None, :]
    err_r = np.maximum(a - plan.sum(axis=1), 0.0)
    err_c = np.maximum(b - plan.sum(axis=0), 0.0)
    if err_c.sum() > 0:
        plan += np.outer(err_r, err_c / err_c.sum())
    return plan


# ---------------------------------------------------------------------------
# trajectory-level operations


def _solve_pair(
    source: EmpiricalSnapshot, target: EmpiricalSnapshot, config: OtConfig
) -> Coupling:
    if config.method == "exact":
        return solve_exact(source, target)
    return solve_sinkhorn(
        source,
        target,
        epsilon=config.epsilon,
        max_iters=config.max_iters,
        tolerance=config.tolerance,
    )


def _couple_batched(
    source: EmpiricalSnapshot, target: EmpiricalSnapshot, config: OtConfig
) -> Coupling:
    """Split both snapshots into aligned random batches, solve each pair of
    batches independently, then merge with each sub-plan carrying its batch's
    share of the total mass (1/num_batches for equal-sized batches)."""
    n_batches = int(np.ceil(max(source.n_particles, target.n_particles) / config.batch_size))
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(source.time_index, target.time_index))
    )
    src_parts = np.array_split(rng.permutation(source.n_particles), n_batches)
    tgt_parts = np.array_split(rng.permutation(target.n_particles), n_batches)
    all_src, all_tgt, all_mass = [], [], []
    for src_idx, tgt_idx in zip(src_parts, tgt_parts):
        sw = source.weights[src_idx]
        tw = target.weights[tgt_idx]
        share = float(sw.sum())
        sub_source = EmpiricalSnapshot(source.points[src_idx], sw / sw.sum(), source.time_index)
        sub_target = EmpiricalSnapshot(target.points[tgt_idx], tw / tw.sum(), target.time_index)
        sub = _solve_pair(sub_source, sub_target, config)
        all_src.append(src_idx[sub.source_indices])
        all_tgt.append(tgt_idx[sub.target_indices])
        all_mass.append(sub.masses * share)
    return Coupling(
        source.time_index,
        target.time_index,
        np.concatenate(all_src),
        np.concatenate(all_tgt),
        np.concatenate(all_mass),
    )


def couple_snapshots(
    source: EmpiricalSnapshot, target: EmpiricalSnapshot, config: OtConfig
) -> Coupling:
    if max(source.n_particles, target.n_particles) > config.batch_size:
        coupling = _couple_batched(source, target, config)
    else:
        coupling = _solve_pair(source, target, config)
    check_coupling_marginals(coupling, source, target)
    return coupling


def couple_trajectory(
    trajectory: PopulationTrajectory, config: OtConfig | None = None
) -> list[Coupling]:
    """Couple every consecutive snapshot pair; independent pairs may run on
    ``config.jobs`` threads, with output order fixed by timestep."""
    config = config or OtConfig()
    pairs = list(zip(trajectory.snapshots[:-1], trajectory.snapshots[1:]))
    if config.jobs > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(lambda p: couple_snapshots(p[0], p[1], config), pairs))
    return [couple_snapshots(s, t, config) for s, t in pairs]


def emd(source: EmpiricalSnapshot, target: EmpiricalSnapshot) -> float:
    """Earth mover's distance: optimal cost under the plain Euclidean metric
    (no root, the cost is already a distance)."""
    coupling = solve_exact(source, target, cost_exponent=1)
    return transport_cost(coupling, source, target, cost_exponent=1)


def trajectory_emd(
    predicted: PopulationTrajectory, reference: PopulationTrajectory
) -> tuple[float, float, list[float]]:
    """EMD between predicted and reference snapshots at times 1..T.

    Returns (mean, population std, per-step values).
    """
    if predicted.n_snapshots != reference.n_snapshots:
        raise ValueError(
            f"trajectories disagree on length: {predicted.n_snapshots} vs {reference.n_snapshots}"
        )
    if predicted.n_snapshots < 2:
        raise ValueError("trajectory EMD needs at least two snapshots")
    values = [
        emd(p, r)
        for p, r in zip(predicted.snapshots[1:], reference.snapshots[1:])
    ]
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std()), values
