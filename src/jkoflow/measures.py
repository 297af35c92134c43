"""Weighted particle populations observed over time, and couplings between them.

A snapshot is a weighted point cloud; a trajectory is a time-ordered list of
snapshots sharing a dimension and a step size tau.  Couplings are sparse
transport plans between consecutive snapshots.  Trajectories round-trip
through a plain directory layout: ``metadata.json`` plus one CSV per snapshot
(and optionally one CSV per coupling); ``read_json`` and ``write_json`` read
and write every JSON artifact of the package.  ``pairwise_mean`` averages a
function of x - y over a population, in row blocks under one memory budget,
and ``as_batch`` is the point-or-batch input rule of the pointwise
evaluators; ``logsumexp`` is the one log-sum-exp of the transport and
density layers.

``exp_flushed`` is ``np.exp`` with arguments below ``EXP_FLOOR`` flushed to
exactly 0; those results are below 1e-307.  numpy's vector exp leaves its fast
path for such arguments: results that underflow to 0 cost about 17 ns each,
and subnormal results 100-175 ns, against about 1.1 ns in range (2-CPU Xeon,
numpy 2.4.6).  The Gaussian kernel of ``features.jacobian_features`` lands
there on spread populations and goes through it.  Other exps keep ``np.exp``:
on the benchmark workloads their arguments reach the floor rarely or never,
and the flush showed no gain there (``tests/test_raw_exp.py`` lists them).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

WEIGHT_ATOL = 1e-9
COUPLING_ATOL = 1e-8
# entries of a pair block's largest arrays, at the width per pair that its
# kernel gives ``pair_chunks`` (``budget_rows``); a kernel computes a block whole.
# 2**17 float64 entries (1 MiB; half that in float32) keep a block and its
# companion arrays within one core's 2 MiB of L2.  Swept over 64k-8M entries
# in both BLAS thread modes (2-CPU Xeon, OpenBLAS 0.3.31), 64k-250k were level
# and fastest on the general_linear and general_mlp benchmark workloads; 8M,
# the earlier value, was up to 45% slower.
PAIR_BUDGET = 131_072
# exp(-707) is about 9.0e-308, just above the smallest normal float64 (2.2e-308)
EXP_FLOOR = -707.0
# one row of a coupling file
_COUPLING_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("mass", np.float64)])


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


def exp_flushed(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(x)``, bit for bit where x >= ``EXP_FLOOR``, and exactly 0 below
    it, where exp(x) < 1e-307.  NaN and +-inf map as ``np.exp`` maps them, and
    ``out`` may be x itself.  An array without such arguments pays one ``min``."""
    x = np.asarray(x)
    if x.size == 0 or x.min() >= EXP_FLOOR:
        return np.exp(x, out=out)
    keep = x >= EXP_FLOOR
    # np.maximum and exp propagate NaN, and NaN * 0 stays NaN; a 0-d x
    # without ``out`` stays a scalar throughout, as np.exp returns one
    clamped = np.maximum(x, EXP_FLOOR, out=out)
    if out is None and clamped.ndim:
        out = clamped
    return np.multiply(np.exp(clamped, out=out), keep, out=out)


def logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the slice maximum.  An all
    -inf slice (zero weight) gives -inf, as scipy's ``logsumexp`` does; this
    leaner form saves scipy's per-call overhead, which dominates small arrays."""
    peak = x.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - peak).sum(axis=axis)) + peak.squeeze(axis)


def budget_rows(entries_per_row: int, most: int | None = None) -> int:
    """Rows of ``entries_per_row`` entries each that fit in ``PAIR_BUDGET``
    entries, and no more than ``most``; at least one row."""
    rows = PAIR_BUDGET // entries_per_row
    return max(1, rows if most is None else min(most, rows))


def pair_rows(x: np.ndarray, points: np.ndarray, width: int) -> int:
    """Rows of ``x`` in the first (the largest) block of ``pair_chunks``."""
    return budget_rows(points.shape[0] * width, most=x.shape[0])


def pair_chunks(
    x: np.ndarray, points: np.ndarray, width: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Row blocks of ``x`` with their differences x_i - y_j, pair (i, j) in row
    i * len(points) + j.  ``width`` is the entries a pair of the caller's
    largest per-block array, or of its largest arrays together; a block keeps
    them within ``PAIR_BUDGET``.  An empty ``x`` is one block."""
    rows = pair_rows(x, points, width)
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


def read_json(path: Path | str) -> dict:
    """The JSON object stored in ``path``.  Text that is not JSON, and JSON
    that is not an object, raise a ValueError that names the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: must hold a JSON object, got {type(data).__name__}")
    return data


def write_json(path: Path | str, payload: dict) -> None:
    """``payload`` as JSON indented by 2, with a final newline; values that
    JSON has no type for (numpy scalars) are written as floats."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")


def _snapshot_path(directory: Path, t: int) -> Path:
    return directory / f"snapshot_{t:05d}.csv"


def coupling_path(directory: Path | str, source_time: int, target_time: int) -> Path:
    return Path(directory) / f"coupling_{source_time}_{target_time}.csv"


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    # %.17g round-trips float64 exactly, keeping save/load bit-identical; one
    # format string for the whole table writes what np.savetxt's per-row
    # loop writes
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


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
    write_json(directory / "metadata.json", meta)
    header = [f"x{i}" for i in range(trajectory.dim)] + ["weight"]
    for snap in trajectory.snapshots:
        rows = np.column_stack([snap.points, snap.weights])
        _write_csv(_snapshot_path(directory, snap.time_index), header, rows)


def _blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _read_csv(
    path: Path,
    widths: tuple[int, ...],
    header: Callable[[list[str]], bool],
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """The data rows of a CSV file, all of one column count from ``widths``.

    Blank rows are skipped, and so is row 0 when ``header`` takes it for a
    header.  A plain ``dtype`` gives an (N, width) array, a structured one N
    records.  ``np.loadtxt`` reads a well-formed file in one call; a file it
    rejects is read again row by row with ``csv.reader`` and Python's
    ``float`` and ``int``, which words the error with the file and the row
    (or reads what loadtxt does not, such as quoted cells).
    """
    dtype = np.dtype(dtype)
    with open(path, newline="") as fh:
        first = next(csv.reader(fh), [])
    skip = int(not _blank(first) and header(first))
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file of no rows (and numpy < 2 on "1.0" read as
            # an int); the row loop words the first and rejects the second
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, skiprows=skip,
                ndmin=1 if dtype.names else 2,
            )
        if dtype.names or table.shape[1] in widths:
            return table
    except (ValueError, Warning):
        pass

    columns = [dtype[k] for k in range(len(dtype))] if dtype.names else [dtype] * max(widths)
    kinds = [int if column.kind == "i" else float for column in columns]
    rows: list[tuple] = []
    with open(path, newline="") as fh:
        for row_idx, row in enumerate(csv.reader(fh)):
            if _blank(row) or (row_idx == 0 and header(row)):
                continue
            if len(row) not in widths:
                expected = " or ".join(map(str, widths))
                raise ValueError(
                    f"{path}, row {row_idx}: expected {expected} columns, got {len(row)}"
                )
            try:
                rows.append(tuple(kind(cell) for kind, cell in zip(kinds, row)))
            except ValueError:
                raise ValueError(f"{path}, row {row_idx}: non-numeric entry in {row!r}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows found")
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"{path}: some rows have {min(widths)} columns and some {max(widths)}")
    return np.array(rows, dtype=dtype)


def _parse_rows(path: Path, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse one snapshot CSV into (points, weights); errors name file and row."""
    table = _read_csv(path, (dim, dim + 1), lambda row: any(c.strip().startswith("x") for c in row))
    pts = np.ascontiguousarray(table[:, :dim])
    if table.shape[1] == dim + 1:
        return pts, table[:, dim].copy()
    return pts, np.full(len(pts), 1.0 / len(pts))


def load_trajectory(directory: Path | str) -> PopulationTrajectory:
    """Read a trajectory saved by :func:`save_trajectory`.

    Missing weight columns mean uniform weights.  Every error names the
    offending file, and a malformed row its index too.
    """
    directory = Path(directory)
    meta_path = directory / "metadata.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"{meta_path} not found")
    meta = read_json(meta_path)
    for key in ("tau", "dim", "timesteps"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing required key {key!r}")
    try:
        dim, n_snapshots, tau = int(meta["dim"]), int(meta["timesteps"]), float(meta["tau"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    snapshots = []
    for t in range(n_snapshots):
        path = _snapshot_path(directory, t)
        if not path.exists():
            raise FileNotFoundError(f"{path} listed in metadata but missing")
        pts, w = _parse_rows(path, dim)
        try:
            snapshots.append(EmpiricalSnapshot(pts, w, t))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    try:
        return PopulationTrajectory(snapshots, tau)
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None


def save_coupling(coupling: Coupling, directory: Path | str) -> None:
    path = coupling_path(directory, coupling.source_time, coupling.target_time)
    rows = np.column_stack([coupling.source_indices, coupling.target_indices, coupling.masses])
    _write_csv(path, ["i", "j", "mass"], rows)


def load_coupling(directory: Path | str, source_time: int, target_time: int) -> Coupling:
    path = coupling_path(directory, source_time, target_time)
    if not path.exists():
        raise FileNotFoundError(f"{path} not found")
    table = _read_csv(path, (3,), lambda row: row[0].strip() == "i", _COUPLING_ROW)
    return Coupling(source_time, target_time, table["i"], table["j"], table["mass"])


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
