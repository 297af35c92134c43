"""Benchmark workloads and the pipeline one instance of a workload runs.

An instance makes its inputs from a seed, then goes through the public
jkoflow pipeline: ``datagen.generate`` -> ``measures.save_trajectory`` /
``load_trajectory`` -> (ragged_ot only: the Sinkhorn couple step) ->
``trainer.fit`` -> ``trainer.evaluate``.  Every operation is recorded in a
``Ledger``; one that raises or fails a correctness check counts as failed.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from jkoflow import datagen, measures, ot, trainer
from jkoflow.functionals import EnergySpec, GroundTruthFunction

DIM = 2
TIMESTEPS = 5
TAU = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variant: str
    potential: str
    n_particles: int  # total; generate() gives half to train, half to test
    interaction: str | None = None
    beta: float = 0.0
    epochs: int = 1
    # subsample each snapshot to a seeded permutation of evenly spaced counts
    # in [lo, hi], so consecutive snapshots never share a count
    ragged: tuple[int, int] | None = None
    sinkhorn_couple: bool = False
    beats_zero_drift: bool = False
    # evaluate is repeated on a fitted model when one call is too short to
    # time steadily; the instance reports the median
    evaluate_repeats: int = 1

    def spec(self) -> EnergySpec:
        return EnergySpec(
            potential=GroundTruthFunction(self.potential, DIM),
            interaction=GroundTruthFunction(self.interaction, DIM) if self.interaction else None,
            beta=self.beta,
        )

    def tiny(self) -> "Workload":
        """Same code paths at a size that runs in about a second."""
        return replace(
            self,
            n_particles=160 if self.ragged else 40,
            ragged=(12, 18) if self.ragged else None,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lightspeed_mlp",
            "paper headline config: nn potential pass, Adam and the batch loop, assignment OT at n=1000",
            variant="star_potential",
            potential="styblinski_tang",
            n_particles=2000,
            epochs=50,
            beats_zero_drift=True,
            evaluate_repeats=4,
        ),
        Workload(
            "general_mlp",
            "only path through the nn interaction kernel, fit_gmm and the per-batch density.score",
            variant="star",
            potential="sphere",
            interaction="sphere",
            beta=0.1,
            n_particles=300,
            epochs=1,
        ),
        Workload(
            "general_linear",
            "only path where features.jacobian_features and the linear solver do the work",
            variant="star_linear",
            potential="sphere",
            interaction="sphere",
            beta=0.1,
            n_particles=300,
            beats_zero_drift=True,
        ),
        Workload(
            "ragged_ot",
            "unequal snapshot counts: Sinkhorn couple step, then transportation simplex in fit and EMD",
            variant="star_linear_potential",
            potential="styblinski_tang",
            n_particles=800,
            ragged=(120, 180),
            sinkhorn_couple=True,
        ),
        Workload(
            "ragged_exact",
            "ragged_ot without the Sinkhorn step, at counts 60-90: many short transportation simplex solves",
            variant="star_linear_potential",
            potential="styblinski_tang",
            n_particles=800,
            ragged=(60, 90),
        ),
    )
}

# what ``--workload all`` runs; ragged_exact is ragged_ot without the Sinkhorn
# step, whose failures are a known defect, at counts that give steady medians
ALL_WORKLOADS = ("lightspeed_mlp", "general_mlp", "general_linear", "ragged_ot")


def instance_seed(seed: int, index: int) -> int:
    """Seed of the index-th instance of a run driven by ``seed``."""
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


@dataclass
class Op:
    label: str
    error: str | None = None


class Ledger:
    """Every operation attempted in a run, and why each failed one failed."""

    def __init__(self) -> None:
        self.ops: list[Op] = []

    def run(self, label: str, fn):
        """Call fn as one operation; returns (op, result), result None on failure."""
        op = Op(label)
        self.ops.append(op)
        try:
            return op, fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            return op, None

    def check(self, op: Op, ok: bool, message: str) -> None:
        if not ok and op.error is None:
            op.error = message

    def verify(self, label: str, ok: bool, message: str) -> None:
        """Record a check that is an operation of its own."""
        self.ops.append(Op(label, None if ok else message))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)


def _subsample(
    traj: measures.PopulationTrajectory, counts: tuple[int, int], seed: int, part: int
) -> measures.PopulationTrajectory:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xB, part)))
    sizes = rng.permutation(np.linspace(*counts, traj.n_snapshots).round().astype(int))
    snaps = []
    for snap, k in zip(traj.snapshots, sizes):
        idx = np.sort(rng.choice(snap.n_particles, size=k, replace=False))
        snaps.append(measures.uniform_snapshot(snap.points[idx], snap.time_index))
    return measures.PopulationTrajectory(snaps, traj.tau)


def make_data(w: Workload, seed: int, workdir: Path):
    """Generate train/test, write both to snapshot directories, read them back."""
    cfg = datagen.GenConfig(
        spec=w.spec(), n_particles=w.n_particles, dim=DIM, timesteps=TIMESTEPS, tau=TAU, seed=seed
    )
    halves = datagen.generate(cfg)
    if w.ragged:
        # train and test are disjoint halves of the population already
        halves = tuple(_subsample(h, w.ragged, seed, part) for part, h in enumerate(halves))
    loaded = []
    for part, traj in zip(("train", "test"), halves):
        directory = workdir / part
        measures.save_trajectory(traj, directory, generator=w.name, seed=seed)
        loaded.append(measures.load_trajectory(directory))
    return tuple(loaded)


def _timed(fn):
    def call():
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    return call


def _couple_step(train: measures.PopulationTrajectory, ledger: Ledger) -> float:
    """``jko-flow couple --ot-method sinkhorn``: couple_snapshots with a default
    sinkhorn OtConfig on every consecutive pair.  Rejected pairs count as
    failed operations and their time still counts."""
    config = ot.OtConfig(method="sinkhorn")
    total = 0.0
    for source, target in zip(train.snapshots[:-1], train.snapshots[1:]):
        start = time.perf_counter()
        ledger.run(
            f"couple {source.time_index}->{target.time_index}",
            lambda s=source, t=target: ot.couple_snapshots(s, t, config),
        )
        total += time.perf_counter() - start
    return total


def zero_drift_emd(test: measures.PopulationTrajectory) -> float:
    """Mean one-step EMD of the predictor that leaves every particle in place."""
    return float(np.mean([ot.emd(a, b) for a, b in zip(test.snapshots[:-1], test.snapshots[1:])]))


def run_instance(w: Workload, seed: int, workdir: Path, ledger: Ledger, tracer=None) -> dict:
    """One pass of the pipeline; returns what it measured.

    With a tracer, the pipeline runs while the tracer's wrappers are
    installed; the correctness checks run after they are removed.
    """
    rec: dict = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        _, data = ledger.run("setup", lambda: make_data(w, seed, workdir))
        if data is None:
            return rec
        train, test = data
        if w.sinkhorn_couple:
            rec["couple_s"] = _couple_step(train, ledger)
        cfg = trainer.TrainConfig(variant=w.variant, epochs=w.epochs, seed=seed)
        solves_before = ot.get_solve_count()
        fit_op, fitted = ledger.run("fit", _timed(lambda: trainer.fit(train, cfg)))
        solves = ot.get_solve_count() - solves_before
        evaluations = []
        for _ in range(w.evaluate_repeats if fitted is not None else 0):
            evaluations.append(
                ledger.run("evaluate", _timed(lambda: trainer.evaluate(fitted[0].model, test)))
            )

    if fitted is not None:
        result, rec["fit_s"] = fitted
        rec["final_loss"] = result.loss_history[-1]
        rec["solves_per_transition"] = solves / train.n_steps
        if w.beta > 0:
            rec["beta_abs_err"] = abs(result.model.beta - w.beta)
        ledger.check(fit_op, bool(np.all(np.isfinite(result.loss_history))), "non-finite loss")
        ledger.check(
            fit_op,
            rec["solves_per_transition"] == 1.0,
            f"{rec['solves_per_transition']} OT solves per transition, expected 1",
        )
    seconds = []
    for eval_op, evaluated in evaluations:
        if evaluated is None:
            continue
        report, elapsed = evaluated
        seconds.append(elapsed)
        rec["mean_emd"] = report["mean_emd"]
        ledger.check(eval_op, bool(np.all(np.isfinite(report["per_step_emd"]))), "non-finite EMD")
        if w.beats_zero_drift:
            if "zero_drift_emd" not in rec:
                rec["zero_drift_emd"] = zero_drift_emd(test)
            ledger.check(
                eval_op,
                rec["mean_emd"] < rec["zero_drift_emd"],
                f"mean_emd {rec['mean_emd']:.4g} not below zero-drift {rec['zero_drift_emd']:.4g}",
            )
    if seconds:
        rec["evaluate_s"] = float(np.median(seconds))
    return rec
