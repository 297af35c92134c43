"""Synthetic population data: particles driven by drift, pairwise interaction
and diffusion.

The forward (explicit) step is
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


def explicit_step(
    points: np.ndarray,
    spec: EnergySpec,
    tau: float,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """One forward step of the whole population."""
    drift = np.zeros_like(points)
    if spec.potential is not None:
        drift += spec.potential.gradient(points)
    if spec.interaction is not None:
        drift += interaction_gradient_mean(spec.interaction, points, points)
    new = points - tau * drift
    if spec.beta > 0:
        if noise is None:
            raise ValueError("beta > 0 requires a noise array")
        new = new + np.sqrt(2.0 * tau * spec.beta) * noise
    if not np.all(np.isfinite(new)):
        raise FloatingPointError(
            "explicit step produced non-finite positions; tau is too large for "
            "this energy"
        )
    return new


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


def _simulate(
    seed: int, n_particles: int, dim: int, box: tuple[float, float], tau: float,
    steps: int, step: Callable[[np.ndarray, int], np.ndarray],
) -> tuple[PopulationTrajectory, PopulationTrajectory]:
    """The generators' shared body: the initial draw, uniform in ``box``,
    ``steps`` calls of ``step(points, t)``, and the train/test split."""
    init_rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,)))
    )
    points = init_rng.uniform(*box, size=(n_particles, dim))
    frames = [points]
    for t in range(steps):
        points = step(points, t)
        frames.append(points)
    n_train = (n_particles + 1) // 2
    train = [uniform_snapshot(f[:n_train], t) for t, f in enumerate(frames)]
    test = [uniform_snapshot(f[n_train:], t) for t, f in enumerate(frames)]
    return PopulationTrajectory(train, tau), PopulationTrajectory(test, tau)


def generate(cfg: GenConfig) -> tuple[PopulationTrajectory, PopulationTrajectory]:
    """Simulate the population and split it into train/test trajectories.

    All particles are initialized uniformly in the box and stepped together
    (the interaction term sees the full population); the first half of the
    particle axis becomes the train trajectory, the second half test.
    """

    def step(points: np.ndarray, t: int) -> np.ndarray:
        if cfg.scheme == "implicit":
            potential = cfg.spec.potential
            return implicit_step(points, lambda x, _t: potential.gradient(x), cfg.tau)
        noise = None
        if cfg.spec.beta > 0:
            noise = _step_rng(cfg.seed, t).standard_normal(points.shape)
        return explicit_step(points, cfg.spec, cfg.tau, noise)

    box = (cfg.init_low, cfg.init_high)
    return _simulate(cfg.seed, cfg.n_particles, cfg.dim, box, cfg.tau, cfg.timesteps, step)


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

    def step(points: np.ndarray, k: int) -> np.ndarray:
        t_next = (k + 1) / TIME_VARYING_STEPS
        return implicit_step(points, gated_quadratic_grad, TIME_VARYING_TAU, t_next)

    box = (init_low, init_high)
    return _simulate(seed, n_particles, 1, box, TIME_VARYING_TAU, TIME_VARYING_STEPS, step)
