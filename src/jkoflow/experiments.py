"""Scripted experiment suites producing plot-ready CSV tables.

Five studies ship with the package:

    lightspeed     fit speed and accuracy across ground-truth potentials
    scaling        accuracy across dimension and particle count
    general        combined potential + interaction + diffusion recovery
    time-varying   piecewise-in-time 1-D potential, implicit vs explicit
    observability  drift/diffusion ambiguity on two-snapshot Gaussian data

Each run is deterministic given its seed, records per-cell failures without
aborting the sweep, and writes a CSV table plus a JSON report (config echo,
rows, timings) into the output directory.  Desk-scale defaults keep runs in
the minutes range; ``full=True`` picks the large grids, explicit sizes win.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .datagen import (
    GenConfig,
    GatedQuadratic,
    TIME_VARYING_STEPS,
    generate,
    generate_time_varying_1d,
)
from .functionals import KINDS, EnergySpec, GroundTruthFunction
from .features import polynomial_map
from .measures import PopulationTrajectory, uniform_snapshot, write_json
from .trainer import TrainConfig, evaluate, fit, predict

logger = logging.getLogger(__name__)

DESK_LIGHTSPEED_POTENTIALS = ("flat", "sphere", "styblinski_tang", "watershed")
DESK_SCALING_DIMS = (2, 5, 10)
DESK_SCALING_COUNTS = (500, 1000, 2000)
FULL_SCALING_DIMS = (10, 20, 30, 40, 50)
FULL_SCALING_COUNTS = (1000, 2500, 5000, 7500, 10000)


def _write_table(out_dir: Path | str | None, name: str, rows: list[dict], report: dict):
    """CSV with the union of row keys, plus a JSON report next to it."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    with open(out / f"{name}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)
    write_json(out / f"{name}.json", report)


def _report(out_dir, name: str, rows: list[dict], **settings) -> None:
    """Write ``rows`` and the report ``{"experiment": name, **settings, "rows": rows}``."""
    _write_table(out_dir, name, rows, {"experiment": name, **settings, "rows": rows})


def _dataset(spec: EnergySpec, n_particles: int, dim: int, seed: int):
    """Train and test halves of the studies' 5-step, tau = 0.01 generation."""
    return generate(
        GenConfig(spec=spec, n_particles=n_particles, dim=dim, timesteps=5, tau=0.01, seed=seed)
    )


def _fit_and_score(train: PopulationTrajectory, test: PopulationTrajectory, cfg: TrainConfig):
    """``fit`` on train, then ``evaluate`` on test: the fit and its EMD columns."""
    result = fit(train, cfg)
    report = evaluate(result.model, test)
    return result, {"mean_emd": report["mean_emd"], "std_emd": report["std_emd"]}


def _run_cells(cells, worker, jobs: int) -> list[dict]:
    """Apply worker to each cell, catching per-cell failures.

    A worker returns one row or a list of rows; the rows come back flat, in
    cell order, with an error row in place of a cell that raised.
    """

    def safe(cell) -> list[dict]:
        try:
            out = worker(cell)
        except Exception as exc:  # noqa: BLE001 - sweep must survive bad cells
            logger.warning("cell %r failed: %s", cell, exc)
            return [{"cell": repr(cell), "error": str(exc)}]
        return out if isinstance(out, list) else [out]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return [row for rows in pool.map(safe, cells) for row in rows]
    return [row for cell in cells for row in safe(cell)]


# ---------------------------------------------------------------------------
# lightspeed: accuracy and per-epoch cost across potentials


def run_lightspeed(
    potential_names=None,
    seed: int = 0,
    epochs: int = 1000,
    out_dir=None,
    full: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Fit the potential-only variants on each ground-truth potential.

    Data per potential: d=2, 2000 particles total (half train, half test),
    tau=0.01, 5 steps.  Desk default covers a four-potential subset; the full
    list is every known functional.
    """
    if potential_names is None:
        potential_names = list(KINDS) if full else list(DESK_LIGHTSPEED_POTENTIALS)

    def worker(name: str) -> list[dict]:
        train, test = _dataset(EnergySpec(potential=GroundTruthFunction(name, 2)), 2000, 2, seed)
        rows = []
        for variant in ("star_potential", "star_linear_potential"):
            cfg = TrainConfig(variant=variant, epochs=epochs, seed=seed)
            result, scores = _fit_and_score(train, test, cfg)
            rows.append(
                {
                    "potential": name,
                    "variant": variant,
                    **scores,
                    "time_per_epoch": result.train_seconds / max(1, len(result.loss_history)),
                    "couple_time": result.couple_seconds,
                    "train_time": result.train_seconds,
                    "final_loss": result.loss_history[-1],
                }
            )
            logger.info(
                "lightspeed %s/%s: mean_emd=%.3g couple=%.2fs train=%.2fs",
                name, variant, scores["mean_emd"], result.couple_seconds, result.train_seconds,
            )
        return rows

    rows = _run_cells(potential_names, worker, jobs)
    _report(out_dir, "lightspeed", rows, seed=seed, epochs=epochs, potentials=list(potential_names))
    return rows


# ---------------------------------------------------------------------------
# scaling: accuracy across dimension and particle count


def run_scaling(
    potential: str = "styblinski_tang",
    dims=None,
    particle_counts=None,
    seed: int = 0,
    epochs: int = 1000,
    out_dir=None,
    full: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """EMD of star_potential per (dimension, particle count) grid cell."""
    if dims is None:
        dims = list(FULL_SCALING_DIMS) if full else list(DESK_SCALING_DIMS)
    if particle_counts is None:
        particle_counts = list(FULL_SCALING_COUNTS) if full else list(DESK_SCALING_COUNTS)
    cells = [(d, n) for d in dims for n in particle_counts]

    def worker(cell):
        d, n = cell
        train, test = _dataset(EnergySpec(potential=GroundTruthFunction(potential, d)), n, d, seed)
        start = time.perf_counter()
        cfg = TrainConfig(variant="star_potential", epochs=epochs, seed=seed)
        _, scores = _fit_and_score(train, test, cfg)
        row = {"dim": d, "n_particles": n, **scores, "seconds": time.perf_counter() - start}
        logger.info("scaling d=%d n=%d: mean_emd=%.3g", d, n, scores["mean_emd"])
        return row

    rows = _run_cells(cells, worker, jobs)
    _report(
        out_dir, "scaling", rows, potential=potential, seed=seed, epochs=epochs,
        dims=list(dims), particle_counts=list(particle_counts),
    )
    return rows


# ---------------------------------------------------------------------------
# general: potential + interaction + diffusion combos


def run_general(
    potential: str = "sphere",
    interaction: str = "sphere",
    betas=(0.0, 0.1, 0.2),
    seed: int = 0,
    epochs: int | None = None,
    n_particles: int | None = None,
    out_dir=None,
    full: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Fit star and star_linear on each (potential, interaction, beta) combo.

    The diffusion term is pinned off for beta=0 combos (known-absent energy
    component).  holder_table is rejected as an interaction: its gradients
    near the border make the generated data blow up.
    """
    if interaction == "holder_table":
        raise ValueError("holder_table is not supported as an interaction")
    epochs = (1000 if full else 200) if epochs is None else epochs
    n_particles = (2000 if full else 500) if n_particles is None else n_particles

    def worker(beta: float):
        spec = EnergySpec(
            potential=GroundTruthFunction(potential, 2),
            interaction=GroundTruthFunction(interaction, 2),
            beta=beta,
        )
        train, test = _dataset(spec, n_particles, 2, seed)
        rows = []
        for variant in ("star", "star_linear"):
            cfg = TrainConfig(variant=variant, epochs=epochs, seed=seed, pin_internal=beta == 0.0)
            result, scores = _fit_and_score(train, test, cfg)
            rows.append(
                {
                    "potential": potential,
                    "interaction": interaction,
                    "beta": beta,
                    "variant": variant,
                    **scores,
                    "fitted_beta": float(result.model.beta),
                    "train_time": result.train_seconds,
                }
            )
            logger.info(
                "general beta=%.2f %s: mean_emd=%.3g fitted_beta=%.3g",
                beta, variant, scores["mean_emd"], result.model.beta,
            )
        return rows

    rows = _run_cells(list(betas), worker, jobs)
    _report(
        out_dir, "general", rows, potential=potential, interaction=interaction,
        betas=list(betas), seed=seed, epochs=epochs, n_particles=n_particles,
    )
    return rows


# ---------------------------------------------------------------------------
# time-varying: implicit vs explicit prediction under a gated 1-D potential


def _max_deviation(predicted: PopulationTrajectory, truth: PopulationTrajectory) -> dict:
    """Per-particle max deviation across the rollout, aggregated."""
    per_particle = np.zeros(truth.snapshots[0].n_particles)
    for pred_snap, true_snap in zip(predicted.snapshots, truth.snapshots):
        dev = np.abs(pred_snap.points - true_snap.points).max(axis=1)
        per_particle = np.maximum(per_particle, dev)
    return {
        "max_deviation": float(per_particle.max()),
        "mean_deviation": float(per_particle.mean()),
    }


def run_time_varying(
    seed: int = 0,
    epochs: int | None = None,
    n_particles: int | None = None,
    out_dir=None,
    full: bool = False,
) -> list[dict]:
    """Train a time-conditioned potential on the gated 1-D dataset and roll
    it out with both prediction schemes, against the exact trajectories."""
    epochs = (6000 if full else 3000) if epochs is None else epochs
    n_particles = (1000 if full else 200) if n_particles is None else n_particles
    train, truth = generate_time_varying_1d(n_particles=n_particles, seed=seed)
    steps = truth.n_steps

    # the gated field flips between adjacent timesteps, which the default
    # rate fits too slowly at this scale
    result = fit(
        train,
        TrainConfig(
            variant="star_time_potential",
            epochs=epochs,
            learning_rate=3e-3,
            seed=seed,
        ),
    )
    start = truth.snapshots[0]

    rows = []
    for model_name, model in (("trained", result.model), ("ground_truth", GatedQuadratic())):
        for scheme in ("implicit", "explicit"):
            rollout = predict(model, start, steps, truth.tau, scheme, time_scale=steps)
            stats = _max_deviation(rollout, truth)
            rows.append({"model": model_name, "prediction": scheme, **stats})
            logger.info(
                "time-varying %s/%s: max_dev=%.4g mean_dev=%.4g",
                model_name, scheme, stats["max_deviation"], stats["mean_deviation"],
            )

    _report(
        out_dir, "time_varying", rows, seed=seed, epochs=epochs, n_particles=n_particles,
        timesteps=TIME_VARYING_STEPS, final_loss=result.loss_history[-1],
    )
    return rows


# ---------------------------------------------------------------------------
# observability: drift/diffusion ambiguity on Gaussian snapshot data


OBSERVABILITY_PAIRS = {
    # both satisfy e^(2*alpha*T1) + 2*beta*T1 = 2 with T1 = 1
    "diffusive": {"alpha": 0.0, "beta": 0.5},
    "drifting": {"alpha": math.log(2.0) / 2.0, "beta": 0.0},
}


def _gaussian_snapshots(
    alpha: float, beta: float, n: int, n_snapshots: int, rng: np.random.Generator
) -> PopulationTrajectory:
    """Exact samples of the linear-drift diffusion observed at integer times.

    x_{t+1} = e^alpha x_t + noise with variance (e^(2 alpha) - 1)/(2 alpha)
    * 2 beta (limit 2 beta at alpha=0), so the snapshot variances follow the
    closed-form law rather than an Euler approximation.
    """
    x = rng.standard_normal((n, 1))
    snaps = [uniform_snapshot(x, 0)]
    scale = math.exp(alpha)
    if abs(alpha) < 1e-12:
        noise_var = 2.0 * beta
    else:
        noise_var = 2.0 * beta * (math.exp(2.0 * alpha) - 1.0) / (2.0 * alpha)
    for t in range(1, n_snapshots):
        x = scale * x + math.sqrt(noise_var) * rng.standard_normal((n, 1))
        snaps.append(uniform_snapshot(x, t))
    return PopulationTrajectory(snaps, tau=1.0)


def _observability_config(seed: int) -> TrainConfig:
    # the snapshots are single Gaussians by construction; a one-component
    # mixture scores them without the wiggle a 10-component fit adds, which
    # otherwise drowns the step-to-step slope signal the diffusion weight
    # is identified from
    return TrainConfig(
        variant="star_linear",
        seed=seed,
        gmm_k=1,
        potential_features=polynomial_map(1, 2),
        interaction_features=polynomial_map(1, 2),
    )


def run_observability(
    seed: int = 0,
    n_particles: int | None = None,
    out_dir=None,
    full: bool = False,
) -> dict:
    """Two (alpha, beta) pairs with identical second-snapshot variance.

    On two snapshots the pairs are indistinguishable: the fits and their test
    EMDs come out almost the same.  A third snapshot separates the variances
    (1 + 2*beta*t vs e^(2*alpha*t)) and the fitted diffusion weights diverge.
    """
    n_particles = (5000 if full else 1000) if n_particles is None else n_particles
    report: dict = {"experiment": "observability", "seed": seed, "n_particles": n_particles}
    rows = []
    for name, pair in OBSERVABILITY_PAIRS.items():
        for n_snapshots in (2, 3):
            train_rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(11, n_snapshots))
            )
            test_rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(12, n_snapshots))
            )
            train = _gaussian_snapshots(
                pair["alpha"], pair["beta"], n_particles, n_snapshots, train_rng
            )
            test = _gaussian_snapshots(
                pair["alpha"], pair["beta"], n_particles, n_snapshots, test_rng
            )
            result, scores = _fit_and_score(train, test, _observability_config(seed))
            theta_pot, theta_int, theta_beta = result.model.theta_blocks()
            rows.append(
                {
                    "pair": name,
                    "alpha": pair["alpha"],
                    "beta": pair["beta"],
                    "n_snapshots": n_snapshots,
                    "mean_emd": scores["mean_emd"],
                    "quadratic_coefficient": float(theta_pot[1]),
                    "theta_beta": float(theta_beta),
                    "snapshot1_variance": float(train.snapshots[1].points.var()),
                }
            )
            logger.info(
                "observability %s T=%d: emd=%.4g theta_beta=%.4g",
                name, n_snapshots, scores["mean_emd"], theta_beta,
            )

    by_key = {(r["pair"], r["n_snapshots"]): r for r in rows}
    two_a, two_b = by_key[("diffusive", 2)], by_key[("drifting", 2)]
    three_a, three_b = by_key[("diffusive", 3)], by_key[("drifting", 3)]
    report["rows"] = rows
    report["emd_ratio_two_snapshots"] = two_a["mean_emd"] / max(two_b["mean_emd"], 1e-300)
    report["theta_beta_gap_two_snapshots"] = abs(two_a["theta_beta"] - two_b["theta_beta"])
    report["theta_beta_gap_three_snapshots"] = abs(
        three_a["theta_beta"] - three_b["theta_beta"]
    )
    _write_table(out_dir, "observability", rows, report)
    return report


RUNNERS = {
    "lightspeed": run_lightspeed,
    "scaling": run_scaling,
    "general": run_general,
    "time-varying": run_time_varying,
    "observability": run_observability,
}
