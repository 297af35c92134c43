"""Rolling energies forward in time, and the synthetic data made that way.

:func:`predict` is the one rollout.  It steps any energy: the true energies
of an :class:`EnergySpec` (or the gated 1-D potential) when generating data,
and a fitted model when predicting.  The forward (explicit) step is
    x' = x - tau * grad_V(x) - tau * mean_y grad_U(x - y) + sqrt(2 tau beta) * n,
with the interaction averaged over the full current population, self included
(the difference at zero follows the kink convention of the energy).  The
backward (implicit) step instead solves x' = x - tau * grad_V(x', t') per
particle, which is what a minimizing-movement update looks like to first
order; it is the right generator when the potential changes over time.

Noise is counter-based: the normal draw for step t depends only on
(seed, t, particle index), so trajectories are reproducible regardless of
how many steps are taken or in which order snapshots are inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functionals import EnergySpec, GroundTruthFunction
from .measures import EmpiricalSnapshot, PopulationTrajectory, pairwise_mean, uniform_snapshot

IMPLICIT_TOL = 1e-8
IMPLICIT_MAX_ITERS = 200
IMPLICIT_DAMPING = 0.5
SCHEMES = ("explicit", "implicit")
# where each kind of energy keeps its interaction term: MlpEnergyModel,
# LinearEnergyModel, EnergySpec
_INTERACTION_TERMS = ("interaction_net", "interaction_map", "interaction")

GradFn = Callable[[np.ndarray, float | None], np.ndarray]


@dataclass
class GenConfig:
    """Recipe for one synthetic dataset."""

    spec: EnergySpec
    n_particles: int = 2000  # total; the first half becomes train, the rest test
    dim: int = 2
    timesteps: int = 5
    tau: float = 0.01
    init_low: float = -4.0
    init_high: float = 4.0
    seed: int = 0
    scheme: str = "explicit"

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if not (self.init_low < self.init_high):
            raise ValueError("init_low must be strictly below init_high")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be 'explicit' or 'implicit', got {self.scheme!r}")
        if self.scheme == "implicit" and (
            self.spec.interaction is not None or self.spec.beta > 0
        ):
            raise ValueError("implicit generation supports potential-only energies")
        spec_dim = self.spec.dim
        if spec_dim is not None and spec_dim != self.dim:
            raise ValueError(f"energy dim {spec_dim} does not match requested dim {self.dim}")


def _step_rng(seed: int, t: int) -> np.random.Generator:
    # Philox is counter-based; keying by (seed, step) decorrelates steps exactly.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1, t))))


def interaction_gradient_mean(
    fn: GroundTruthFunction, points: np.ndarray, population: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted mean of grad_U(x - y) over the population, for each row x."""
    n = population.shape[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return pairwise_mean(fn.gradient, points, population, weights, points.shape[1])


def implicit_step(
    points: np.ndarray,
    grad_fn: GradFn,
    tau: float,
    t_next: float | None = None,
) -> np.ndarray:
    """Solve x' = x - tau * grad(x', t_next) for each particle.

    Damped fixed-point iteration from the warm start x; rows that have not
    reached the residual tolerance afterwards are polished by adaptive
    gradient descent on the proximal objective (whose gradient is exactly the
    fixed-point residual).  Raises if any row still violates the tolerance.
    """
    x = points.copy()
    for _ in range(IMPLICIT_MAX_ITERS):
        residual = x - points + tau * grad_fn(x, t_next)
        if np.linalg.norm(residual, axis=1).max() < IMPLICIT_TOL:
            return x
        x = x - IMPLICIT_DAMPING * residual
    # fallback: per-row step sizes, shrink on any residual increase and
    # regrow after accepted steps so a single bad transient cannot stall rows
    eta = np.full(points.shape[0], IMPLICIT_DAMPING)
    residual = x - points + tau * grad_fn(x, t_next)
    norms = np.linalg.norm(residual, axis=1)
    for _ in range(IMPLICIT_MAX_ITERS):
        if norms.max() < IMPLICIT_TOL:
            return x
        proposal = x - eta[:, None] * residual
        new_residual = proposal - points + tau * grad_fn(proposal, t_next)
        new_norms = np.linalg.norm(new_residual, axis=1)
        worse = new_norms > norms
        eta[worse] *= 0.5
        keep = ~worse
        eta[keep] = np.minimum(eta[keep] * 1.25, 1.0)
        x[keep] = proposal[keep]
        residual[keep] = new_residual[keep]
        norms[keep] = new_norms[keep]
    raise RuntimeError(
        f"implicit step failed to converge: worst residual {norms.max():.3e} "
        f"(tolerance {IMPLICIT_TOL})"
    )


def predict(
    model,
    initial: EmpiricalSnapshot,
    steps: int,
    tau: float,
    scheme: str = "explicit",
    beta_noise: bool = False,
    seed: int = 0,
    time_offset: int | None = None,
    time_scale: int | None = None,
) -> PopulationTrajectory:
    """Roll an energy forward ``steps`` steps from ``initial``.

    ``model`` is a fitted energy model or the true energies (an
    :class:`EnergySpec` or :class:`GatedQuadratic`): anything with
    ``grad_potential``, ``grad_interaction_mean``, ``time_conditioned`` and
    ``beta``.

    ``scheme="explicit"`` subtracts tau times the drift at the current cloud
    (the interaction term averages over the predicted population itself); a
    time-conditioned potential is read at the step's own time,
    ``(time_offset + k) / time_scale``.  Diffusion noise is off by default:
    rollouts are deterministic unless ``beta_noise`` is set, in which case
    counter-based noise scaled by beta (a negative fitted beta counts as 0) is
    added.  ``beta_noise`` on an energy whose beta is 0 raises.

    ``scheme="implicit"`` solves the balance condition
    x' = x - tau * grad_V(x', t') per particle, at the time stepped into,
    t' = ``(time_offset + k + 1) / time_scale``.  Potential-only energies, no noise.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be 'explicit' or 'implicit', got {scheme!r}")
    if scheme == "implicit":
        if any(getattr(model, term, None) is not None for term in _INTERACTION_TERMS):
            raise ValueError("implicit prediction supports potential-only models")
        if beta_noise:
            raise ValueError("beta_noise applies to explicit prediction only")
    if beta_noise and model.beta == 0:
        raise ValueError("beta_noise needs an energy with a diffusion term (beta is 0)")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    offset = initial.time_index if time_offset is None else time_offset
    time_conditioned = model.time_conditioned
    if time_conditioned and time_scale is None:
        raise ValueError("time-conditioned model needs time_scale")

    points = initial.points.copy()
    frames = [points]
    for k in range(steps):
        if scheme == "implicit":
            t_next = (offset + k + 1) / time_scale if time_conditioned else None
            new = implicit_step(points, model.grad_potential, tau, t_next)
        else:
            time_value = (offset + k) / time_scale if time_conditioned else None
            drift = model.grad_potential(points, time_value=time_value)
            drift = drift + model.grad_interaction_mean(points, points, initial.weights)
            new = points - tau * drift
            beta = max(float(model.beta), 0.0)
            if beta_noise and beta > 0:
                noise = _step_rng(seed, offset + k).standard_normal(points.shape)
                new = new + np.sqrt(2.0 * tau * beta) * noise
        if not np.isfinite(new).all():
            raise RuntimeError(f"non-finite state at rollout step {k + 1}")
        points = new
        frames.append(points)
    snaps = [EmpiricalSnapshot(f, initial.weights, k) for k, f in enumerate(frames)]
    return PopulationTrajectory(snaps, tau)


def _simulate(
    energy, seed: int, n_particles: int, dim: int, box: tuple[float, float], tau: float,
    steps: int, scheme: str, **rollout,
) -> tuple[PopulationTrajectory, PopulationTrajectory]:
    """The generators' shared body: the initial draw, uniform in ``box``, one
    :func:`predict` of the true energies over the whole population, and the
    train/test split (the first half of the particle axis, rounded up, is train)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))
    initial = uniform_snapshot(rng.uniform(*box, size=(n_particles, dim)), 0)
    frames = predict(energy, initial, steps, tau, scheme, seed=seed, **rollout).snapshots
    n_train = (n_particles + 1) // 2
    train = [uniform_snapshot(s.points[:n_train], s.time_index) for s in frames]
    test = [uniform_snapshot(s.points[n_train:], s.time_index) for s in frames]
    return PopulationTrajectory(train, tau), PopulationTrajectory(test, tau)


def generate(cfg: GenConfig) -> tuple[PopulationTrajectory, PopulationTrajectory]:
    """Simulate the population and split it into train/test trajectories.

    All particles are initialized uniformly in the box and stepped together
    (the interaction term sees the full population); the first half of the
    particle axis becomes the train trajectory, the second half test.
    """
    box = (cfg.init_low, cfg.init_high)
    return _simulate(
        cfg.spec, cfg.seed, cfg.n_particles, cfg.dim, box, cfg.tau, cfg.timesteps, cfg.scheme,
        beta_noise=cfg.spec.beta > 0,
    )


# ---------------------------------------------------------------------------
# time-varying 1-D benchmark

TIME_VARYING_STEPS = 10
TIME_VARYING_TAU = 1.0 / TIME_VARYING_STEPS
_WINDOWS = ((0.2, 0.3), (0.7, 0.8))
_WINDOW_TOL = 1e-9


def gated_quadratic_value(x: np.ndarray, t: float) -> np.ndarray:
    """Repulsive quadratic -0.75 x^2 that switches off inside two time windows."""
    x = np.asarray(x, dtype=np.float64)
    if _in_window(t):
        return np.zeros(x.shape[0])
    return -0.75 * (x**2).sum(axis=1)


def gated_quadratic_grad(x: np.ndarray, t: float | None) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if t is None:
        raise ValueError("time-varying potential needs a time argument")
    if _in_window(t):
        return np.zeros_like(x)
    return -1.5 * x


def _in_window(t: float) -> bool:
    return any(lo - _WINDOW_TOL <= t <= hi + _WINDOW_TOL for lo, hi in _WINDOWS)


class GatedQuadratic:
    """The gated quadratic as an energy :func:`predict` rolls out: a
    time-conditioned potential, with no interaction or diffusion term."""

    time_conditioned = True
    beta = 0.0

    def grad_potential(self, x: np.ndarray, time_value: float | None = None) -> np.ndarray:
        return gated_quadratic_grad(x, time_value)

    def grad_interaction_mean(self, x, points, weights) -> np.ndarray:
        return np.zeros_like(x)


def generate_time_varying_1d(
    n_particles: int = 200,
    seed: int = 0,
    init_low: float = 0.8,
    init_high: float = 1.4,
) -> tuple[PopulationTrajectory, PopulationTrajectory]:
    """Implicitly-generated 1-D data under the gated quadratic on t in [0, 1].

    Ten uniform steps of size 0.1; the step into time t' uses the potential
    at t'.  Returns (train, test) halves like :func:`generate`.
    """
    box = (init_low, init_high)
    return _simulate(
        GatedQuadratic(), seed, n_particles, 1, box, TIME_VARYING_TAU, TIME_VARYING_STEPS,
        "implicit", time_scale=TIME_VARYING_STEPS,
    )
