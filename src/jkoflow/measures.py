"""Weighted particle populations observed over time, and couplings between them.

A snapshot is a weighted point cloud; a trajectory is a time-ordered list of
snapshots sharing a dimension and a step size tau.  Couplings are sparse
transport plans between consecutive snapshots.  Trajectories round-trip
through a plain directory layout: ``metadata.json`` plus one CSV per snapshot
(and optionally one CSV per coupling).  ``pairwise_mean`` averages a function
of x - y over a population, in row blocks under one memory budget, and
``as_batch`` is the point-or-batch input rule of the pointwise evaluators;
``logsumexp`` is the one log-sum-exp of the transport and density layers.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

WEIGHT_ATOL = 1e-9
COUPLING_ATOL = 1e-8
PAIR_BUDGET = 8_000_000  # float64 entries in the widest per-pair array of one pair block

_SNAPSHOT_RE = re.compile(r"snapshot_(\d{5})\.csv$")


@dataclass
class EmpiricalSnapshot:
    """A weighted empirical measure: N particles in R^d with weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray
    time_index: int

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError(f"points must be (N, d), got shape {self.points.shape}")
        n = self.points.shape[0]
        if n == 0:
            raise ValueError("snapshot must contain at least one particle")
        if self.weights.shape != (n,):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match {n} particles"
            )
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_ATOL}, got {total!r}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if self.time_index < 0:
            raise ValueError("time_index must be >= 0")

    @property
    def n_particles(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def uniform_snapshot(points: np.ndarray, time_index: int) -> EmpiricalSnapshot:
    """Snapshot with uniform weights over the given points."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    return EmpiricalSnapshot(points, np.full(n, 1.0 / n), time_index)


@dataclass
class PopulationTrajectory:
    """Time-ordered snapshots of one population, observed every ``tau`` units."""

    snapshots: list[EmpiricalSnapshot]
    tau: float

    def __post_init__(self) -> None:
        if not self.snapshots:
            raise ValueError("trajectory needs at least one snapshot")
        if not (self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        indices = [s.time_index for s in self.snapshots]
        if indices != list(range(len(self.snapshots))):
            raise ValueError(
                f"time indices must be 0,1,... without gaps, got {indices}"
            )
        dims = {s.dim for s in self.snapshots}
        if len(dims) != 1:
            raise ValueError(f"snapshots disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.snapshots[0].dim

    @property
    def n_snapshots(self) -> int:
        return len(self.snapshots)

    @property
    def n_steps(self) -> int:
        return len(self.snapshots) - 1


@dataclass
class Coupling:
    """Sparse transport plan between snapshot ``source_time`` and ``target_time``.

    Stored as parallel arrays: pair k moves ``masses[k]`` from source particle
    ``source_indices[k]`` to target particle ``target_indices[k]``.  Masses are
    positive and sum to 1.  ``converged`` is False only for iterative solves
    that hit their iteration cap.
    """

    source_time: int
    target_time: int
    source_indices: np.ndarray
    target_indices: np.ndarray
    masses: np.ndarray
    converged: bool = True

    def __post_init__(self) -> None:
        self.source_indices = np.asarray(self.source_indices, dtype=np.int64)
        self.target_indices = np.asarray(self.target_indices, dtype=np.int64)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        k = self.masses.shape[0]
        if self.source_indices.shape != (k,) or self.target_indices.shape != (k,):
            raise ValueError("coupling index/mass arrays must share one length")
        if k == 0:
            raise ValueError("coupling must contain at least one pair")
        if np.any(self.masses <= 0):
            raise ValueError("coupling masses must be positive")
        total = float(self.masses.sum())
        if abs(total - 1.0) > COUPLING_ATOL:
            raise ValueError(
                f"coupling masses must sum to 1 within {COUPLING_ATOL}, got {total!r}"
            )
        if self.target_time <= self.source_time:
            raise ValueError("target_time must exceed source_time")

    def source_marginal(self, n_source: int) -> np.ndarray:
        return np.bincount(self.source_indices, weights=self.masses, minlength=n_source)

    def target_marginal(self, n_target: int) -> np.ndarray:
        return np.bincount(self.target_indices, weights=self.masses, minlength=n_target)


def check_coupling_marginals(
    coupling: Coupling, source: EmpiricalSnapshot, target: EmpiricalSnapshot
) -> None:
    """Raise unless the plan's marginals match the two measures within tolerance."""
    row = coupling.source_marginal(source.n_particles)
    col = coupling.target_marginal(target.n_particles)
    row_err = float(np.abs(row - source.weights).max())
    col_err = float(np.abs(col - target.weights).max())
    if row_err > COUPLING_ATOL or col_err > COUPLING_ATOL:
        raise ValueError(
            "coupling marginals do not match the measures: "
            f"source err {row_err:.3e}, target err {col_err:.3e} (tol {COUPLING_ATOL})"
        )


def as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """``x`` as a float64 (B, dim) batch, and whether it was a single (dim,) point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"expected point of dim {dim}, got shape {x.shape}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected (B, {dim}) batch, got shape {x.shape}")
    return x, False


def logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the slice maximum.  An all
    -inf slice (zero weight) gives -inf, as scipy's ``logsumexp`` does; this
    leaner form saves scipy's per-call overhead, which dominates small arrays."""
    peak = x.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - peak).sum(axis=axis)) + peak.squeeze(axis)


def pair_chunks(
    x: np.ndarray, points: np.ndarray, width: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Row blocks of ``x`` with their differences x_i - y_j, pair (i, j) in row
    i * len(points) + j.  A block keeps the caller's widest per-pair array,
    ``width`` entries a pair, within ``PAIR_BUDGET``; an empty ``x`` is one block."""
    rows = max(1, PAIR_BUDGET // (points.shape[0] * width))
    for start in range(0, max(x.shape[0], 1), rows):
        block = slice(start, start + rows)
        yield block, (x[block, None, :] - points[None, :, :]).reshape(-1, x.shape[1])


def pairwise_mean(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, points: np.ndarray,
                  weights: np.ndarray, width: int) -> np.ndarray:
    """sum_j weights_j fn(x_i - y_j) for each row x_i, shape (len(x), ...),
    where ``fn`` maps (pairs, d) differences to (pairs, ...) values."""
    means = []
    for _, diff in pair_chunks(x, points, width):
        values = fn(diff)
        values = values.reshape(-1, points.shape[0], *values.shape[1:])
        means.append(np.einsum("bm...,m->b...", values, weights))
    return np.concatenate(means)


# ---------------------------------------------------------------------------
# directory round-trip


def _snapshot_path(directory: Path, t: int) -> Path:
    return directory / f"snapshot_{t:05d}.csv"


def coupling_path(directory: Path | str, source_time: int, target_time: int) -> Path:
    return Path(directory) / f"coupling_{source_time}_{target_time}.csv"


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    # %.17g round-trips float64 exactly, keeping save/load bit-identical.
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def save_trajectory(
    trajectory: PopulationTrajectory,
    directory: Path | str,
    generator: str | None = None,
    seed: int | None = None,
) -> None:
    """Write ``metadata.json`` plus one ``snapshot_{t:05d}.csv`` per snapshot.

    Weights are stored explicitly even when uniform, so files are
    self-describing.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "tau": trajectory.tau,
        "dim": trajectory.dim,
        "timesteps": trajectory.n_snapshots,
    }
    if generator is not None:
        meta["generator"] = generator
    if seed is not None:
        meta["seed"] = seed
    with open(directory / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    header = [f"x{i}" for i in range(trajectory.dim)] + ["weight"]
    for snap in trajectory.snapshots:
        rows = np.column_stack([snap.points, snap.weights])
        _write_csv(_snapshot_path(directory, snap.time_index), header, rows)


def _parse_rows(path: Path, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse one snapshot CSV into (points, weights); errors name file and row."""
    points: list[list[float]] = []
    weights: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row_idx, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row_idx == 0 and any(cell.strip().startswith("x") for cell in row):
                continue  # header
            if len(row) not in (dim, dim + 1):
                raise ValueError(
                    f"{path}, row {row_idx}: expected {dim} or {dim + 1} columns, got {len(row)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise ValueError(f"{path}, row {row_idx}: non-numeric entry in {row!r}") from None
            points.append(values[:dim])
            if len(values) == dim + 1:
                weights.append(values[dim])
    if not points:
        raise ValueError(f"{path}: no particle rows found")
    pts = np.asarray(points, dtype=np.float64)
    if weights and len(weights) != len(points):
        raise ValueError(f"{path}: weight column present on only some rows")
    if weights:
        w = np.asarray(weights, dtype=np.float64)
    else:
        w = np.full(len(points), 1.0 / len(points))
    return pts, w


def load_trajectory(directory: Path | str) -> PopulationTrajectory:
    """Read a trajectory saved by :func:`save_trajectory`.

    Missing weight columns mean uniform weights.  Malformed rows raise with
    the offending file and row index.
    """
    directory = Path(directory)
    meta_path = directory / "metadata.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"{meta_path} not found")
    with open(meta_path) as fh:
        meta = json.load(fh)
    for key in ("tau", "dim", "timesteps"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing required key {key!r}")
    dim = int(meta["dim"])
    n_snapshots = int(meta["timesteps"])
    snapshots = []
    for t in range(n_snapshots):
        path = _snapshot_path(directory, t)
        if not path.exists():
            raise FileNotFoundError(f"{path} listed in metadata but missing")
        pts, w = _parse_rows(path, dim)
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"{path}: weights sum to {total!r}, expected 1")
        snapshots.append(EmpiricalSnapshot(pts, w, t))
    return PopulationTrajectory(snapshots, float(meta["tau"]))


def save_coupling(coupling: Coupling, directory: Path | str) -> None:
    path = coupling_path(directory, coupling.source_time, coupling.target_time)
    with open(path, "w", newline="") as fh:
        fh.write("i,j,mass\n")
        for i, j, m in zip(coupling.source_indices, coupling.target_indices, coupling.masses):
            fh.write(f"{i:d},{j:d},{m:.17g}\n")


def load_coupling(directory: Path | str, source_time: int, target_time: int) -> Coupling:
    path = coupling_path(directory, source_time, target_time)
    if not path.exists():
        raise FileNotFoundError(f"{path} not found")
    src: list[int] = []
    tgt: list[int] = []
    mass: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row_idx, row in enumerate(reader):
            if not row:
                continue
            if row_idx == 0 and row[0].strip() == "i":
                continue
            if len(row) != 3:
                raise ValueError(f"{path}, row {row_idx}: expected 3 columns, got {len(row)}")
            try:
                src.append(int(row[0]))
                tgt.append(int(row[1]))
                mass.append(float(row[2]))
            except ValueError:
                raise ValueError(f"{path}, row {row_idx}: malformed entry {row!r}") from None
    return Coupling(source_time, target_time, np.array(src), np.array(tgt), np.array(mass))


def split_train_test(
    trajectory: PopulationTrajectory, fraction: float, seed: int
) -> tuple[PopulationTrajectory, PopulationTrajectory]:
    """Randomly partition each snapshot's particles into train/test trajectories.

    Each snapshot is split independently (its particles are distinct
    individuals per timestep), with round(fraction * N) particles in train,
    clamped so both parts stay non-empty.  Weights are renormalized within
    each part.  Deterministic in ``seed``.
    """
    if not (0 < fraction < 1):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    train_snaps = []
    test_snaps = []
    for snap in trajectory.snapshots:
        n = snap.n_particles
        if n < 2:
            raise ValueError(f"snapshot {snap.time_index} has {n} particle(s); cannot split")
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(snap.time_index,)))
        perm = rng.permutation(n)
        n_train = int(np.clip(round(fraction * n), 1, n - 1))
        train_idx = np.sort(perm[:n_train])
        test_idx = np.sort(perm[n_train:])
        for idx, bucket in ((train_idx, train_snaps), (test_idx, test_snaps)):
            w = snap.weights[idx]
            bucket.append(EmpiricalSnapshot(snap.points[idx], w / w.sum(), snap.time_index))
    return (
        PopulationTrajectory(train_snaps, trajectory.tau),
        PopulationTrajectory(test_snaps, trajectory.tau),
    )
