"""Analytic energy landscapes used to drive and benchmark the learners.

Each function is defined for arbitrary dimension d (a few need d >= 2, see
``_NEEDS_HALF_SPLIT``) together with its exact gradient.  Non-smooth points
use a fixed subgradient choice: 0 at every kink.  Several functions compress
the input through two half-space averages before a 2-D formula; the second
half runs over indices floor(d/2)+1 .. d so the averaging weights match the
block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import as_batch

KINDS = (
    "styblinski_tang",
    "holder_table",
    "flowers",
    "oakley_ohagan",
    "watershed",
    "ishigami",
    "friedman",
    "sphere",
    "bohachevsky",
    "wavy_plateau",
    "zigzag_ridge",
    "double_exp",
    "relu",
    "rotational",
    "flat",
)

# functions whose formula averages the first/second halves of the coordinates
_NEEDS_HALF_SPLIT = {"holder_table", "ishigami", "friedman", "bohachevsky", "rotational"}


def _half_averages(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    d = x.shape[1]
    h = d // 2
    z1 = x[:, :h].mean(axis=1)
    z2 = x[:, h:].mean(axis=1)
    return z1, z2, h, d - h


def _spread_half_gradient(
    x: np.ndarray, df_dz1: np.ndarray, df_dz2: np.ndarray
) -> np.ndarray:
    d = x.shape[1]
    h = d // 2
    g = np.empty_like(x)
    g[:, :h] = df_dz1[:, None] / h
    g[:, h:] = df_dz2[:, None] / (d - h)
    return g


def _sign0(a: np.ndarray) -> np.ndarray:
    """sign with sign(0) = 0, the subgradient convention used throughout."""
    return np.sign(a)


# --- per-kind batched (B, d) implementations -------------------------------


def _styblinski_tang(x):
    return 0.5 * (x**4 - 16.0 * x**2 + 5.0 * x).sum(axis=1)


def _styblinski_tang_grad(x):
    return 2.0 * x**3 - 16.0 * x + 2.5


def _sphere(x):
    return -10.0 * (x**2).sum(axis=1)


def _sphere_grad(x):
    return -20.0 * x


def _flat(x):
    return np.zeros(x.shape[0])


def _flat_grad(x):
    return np.zeros_like(x)


def _oakley_ohagan(x):
    return 5.0 * (np.sin(x) + np.cos(x) + x**2 + x).sum(axis=1)


def _oakley_ohagan_grad(x):
    return 5.0 * (np.cos(x) - np.sin(x) + 2.0 * x + 1.0)


def _flowers(x):
    return (x + 2.0 * np.sin(np.abs(x) ** 1.2)).sum(axis=1)


def _flowers_grad(x):
    a = np.abs(x)
    # d/dv |v|^1.2 = 1.2 |v|^0.2 sign(v), taken as 0 at v = 0
    with np.errstate(invalid="ignore"):
        inner = 1.2 * a**0.2 * _sign0(x)
    inner = np.where(a == 0, 0.0, inner)
    return 1.0 + 2.0 * np.cos(a**1.2) * inner


def _wavy_plateau(x):
    return (np.cos(np.pi * x) + 0.5 * x**4 - 3.0 * x**2 + 1.0).sum(axis=1)


def _wavy_plateau_grad(x):
    return -np.pi * np.sin(np.pi * x) + 2.0 * x**3 - 6.0 * x


def _relu(x):
    return -50.0 * np.maximum(0.0, x).sum(axis=1)


def _relu_grad(x):
    return -50.0 * (x > 0).astype(np.float64)


def _watershed(x):
    head, tail = x[:, :-1], x[:, 1:]
    return 0.1 * (head + head**2 * (tail + 4.0)).sum(axis=1)


def _watershed_grad(x):
    head, tail = x[:, :-1], x[:, 1:]
    g = np.zeros_like(x)
    g[:, :-1] += 0.1 * (1.0 + 2.0 * head * (tail + 4.0))
    g[:, 1:] += 0.1 * head**2
    return g


def _zigzag_ridge(x):
    head, tail = x[:, :-1], x[:, 1:]
    return ((head - tail) ** 2 + np.cos(head) * (head + tail) + head**2 * tail).sum(axis=1)


def _zigzag_ridge_grad(x):
    head, tail = x[:, :-1], x[:, 1:]
    g = np.zeros_like(x)
    g[:, :-1] += (
        2.0 * (head - tail)
        - np.sin(head) * (head + tail)
        + np.cos(head)
        + 2.0 * head * tail
    )
    g[:, 1:] += -2.0 * (head - tail) + np.cos(head) + head**2
    return g


_DOUBLE_EXP_SIGMA = 20.0
_DOUBLE_EXP_SHIFT = 3.0


def _double_exp(x):
    # note the asymmetry: squared distance in the first well, plain distance in the second
    sq = ((x - _DOUBLE_EXP_SHIFT) ** 2).sum(axis=1)
    dist = np.sqrt(((x + _DOUBLE_EXP_SHIFT) ** 2).sum(axis=1))
    return 200.0 * np.exp(-sq / _DOUBLE_EXP_SIGMA) + np.exp(-dist / _DOUBLE_EXP_SIGMA)


def _double_exp_grad(x):
    diff_minus = x - _DOUBLE_EXP_SHIFT
    diff_plus = x + _DOUBLE_EXP_SHIFT
    sq = (diff_minus**2).sum(axis=1)
    dist = np.sqrt((diff_plus**2).sum(axis=1))
    g = 200.0 * np.exp(-sq / _DOUBLE_EXP_SIGMA)[:, None] * (-2.0 / _DOUBLE_EXP_SIGMA) * diff_minus
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = diff_plus / dist[:, None]
    unit = np.where(dist[:, None] == 0, 0.0, unit)
    g += np.exp(-dist / _DOUBLE_EXP_SIGMA)[:, None] * (-1.0 / _DOUBLE_EXP_SIGMA) * unit
    return g


def _holder_table(x):
    z1, z2, _, _ = _half_averages(x)
    r = np.sqrt((x**2).sum(axis=1))
    return 10.0 * np.abs(np.sin(z1) * np.cos(z2)) * np.exp(np.abs(1.0 - r / np.pi))


def _holder_table_grad(x):
    z1, z2, _, _ = _half_averages(x)
    r = np.sqrt((x**2).sum(axis=1))
    inner = np.sin(z1) * np.cos(z2)
    envelope = np.exp(np.abs(1.0 - r / np.pi))
    df_dz1 = 10.0 * _sign0(inner) * np.cos(z1) * np.cos(z2) * envelope
    df_dz2 = -10.0 * _sign0(inner) * np.sin(z1) * np.sin(z2) * envelope
    g = _spread_half_gradient(x, df_dz1, df_dz2)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = x / r[:, None]
    unit = np.where(r[:, None] == 0, 0.0, unit)
    radial = 10.0 * np.abs(inner) * envelope * _sign0(1.0 - r / np.pi) * (-1.0 / np.pi)
    return g + radial[:, None] * unit


def _ishigami(x):
    z1, z2, _, _ = _half_averages(x)
    w = 0.5 * (z1 + z2)
    return np.sin(z1) + 7.0 * np.sin(z2) ** 2 + 0.1 * w**4 * np.sin(z1)


def _ishigami_grad(x):
    z1, z2, _, _ = _half_averages(x)
    w = 0.5 * (z1 + z2)
    df_dz1 = np.cos(z1) + 0.1 * (2.0 * w**3 * np.sin(z1) + w**4 * np.cos(z1))
    df_dz2 = 7.0 * np.sin(2.0 * z2) + 0.2 * w**3 * np.sin(z1)
    return _spread_half_gradient(x, df_dz1, df_dz2)


def _friedman(x):
    z1, z2, _, _ = _half_averages(x)
    a, b = z1 - 7.0, z2 - 7.0
    return 0.01 * (
        10.0 * np.sin(2.0 * np.pi * a * b)
        + 20.0 * (2.0 * a * np.sin(b) - 0.5) ** 2
        + 10.0 * (2.0 * a * np.cos(b) - 1.0) ** 2
        + 0.1 * b * np.sin(2.0 * a)
    )


def _friedman_grad(x):
    z1, z2, _, _ = _half_averages(x)
    a, b = z1 - 7.0, z2 - 7.0
    cos_ab = np.cos(2.0 * np.pi * a * b)
    s_term = 2.0 * a * np.sin(b) - 0.5
    c_term = 2.0 * a * np.cos(b) - 1.0
    df_da = 0.01 * (
        20.0 * np.pi * b * cos_ab
        + 80.0 * s_term * np.sin(b)
        + 40.0 * c_term * np.cos(b)
        + 0.2 * b * np.cos(2.0 * a)
    )
    df_db = 0.01 * (
        20.0 * np.pi * a * cos_ab
        + 80.0 * a * s_term * np.cos(b)
        - 40.0 * a * c_term * np.sin(b)
        + 0.1 * np.sin(2.0 * a)
    )
    return _spread_half_gradient(x, df_da, df_db)


def _bohachevsky(x):
    z1, z2, _, _ = _half_averages(x)
    return 10.0 * (
        z1**2
        + 2.0 * z2**2
        - 0.3 * np.cos(3.0 * np.pi * z1)
        - 0.4 * np.cos(4.0 * np.pi * z2)
    )


def _bohachevsky_grad(x):
    z1, z2, _, _ = _half_averages(x)
    df_dz1 = 10.0 * (2.0 * z1 + 0.9 * np.pi * np.sin(3.0 * np.pi * z1))
    df_dz2 = 10.0 * (4.0 * z2 + 1.6 * np.pi * np.sin(4.0 * np.pi * z2))
    return _spread_half_gradient(x, df_dz1, df_dz2)


def _rotational(x):
    z1, z2, _, _ = _half_averages(x)
    angle = np.arctan2(z2 + 5.0, z1 + 5.0) + np.pi
    return 10.0 * np.maximum(0.0, angle)


def _rotational_grad(x):
    z1, z2, _, _ = _half_averages(x)
    px, py = z1 + 5.0, z2 + 5.0
    r2 = px**2 + py**2
    # angle lies in (0, 2pi], so the ramp is active everywhere except the origin
    with np.errstate(invalid="ignore", divide="ignore"):
        df_dz1 = 10.0 * (-py / r2)
        df_dz2 = 10.0 * (px / r2)
    df_dz1 = np.where(r2 == 0, 0.0, df_dz1)
    df_dz2 = np.where(r2 == 0, 0.0, df_dz2)
    return _spread_half_gradient(x, df_dz1, df_dz2)


_REGISTRY = {
    "styblinski_tang": (_styblinski_tang, _styblinski_tang_grad),
    "holder_table": (_holder_table, _holder_table_grad),
    "flowers": (_flowers, _flowers_grad),
    "oakley_ohagan": (_oakley_ohagan, _oakley_ohagan_grad),
    "watershed": (_watershed, _watershed_grad),
    "ishigami": (_ishigami, _ishigami_grad),
    "friedman": (_friedman, _friedman_grad),
    "sphere": (_sphere, _sphere_grad),
    "bohachevsky": (_bohachevsky, _bohachevsky_grad),
    "wavy_plateau": (_wavy_plateau, _wavy_plateau_grad),
    "zigzag_ridge": (_zigzag_ridge, _zigzag_ridge_grad),
    "double_exp": (_double_exp, _double_exp_grad),
    "relu": (_relu, _relu_grad),
    "rotational": (_rotational, _rotational_grad),
    "flat": (_flat, _flat_grad),
}


@dataclass(frozen=True)
class GroundTruthFunction:
    """One named analytic landscape, fixed to a dimension."""

    kind: str
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in _REGISTRY:
            raise ValueError(f"unknown function kind {self.kind!r}; choose from {KINDS}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind in _NEEDS_HALF_SPLIT and self.dim < 2:
            raise ValueError(f"{self.kind} requires dim >= 2")

    def value(self, x: np.ndarray) -> np.ndarray | float:
        xb, single = as_batch(x, self.dim)
        out = _REGISTRY[self.kind][0](xb)
        return float(out[0]) if single else out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        xb, single = as_batch(x, self.dim)
        out = _REGISTRY[self.kind][1](xb)
        return out[0] if single else out


@dataclass(frozen=True)
class EnergySpec:
    """Which energy terms drive a population: drift potential, pairwise
    interaction (evaluated on particle differences), and diffusion strength.

    A spec answers the members ``datagen.predict`` reads from a fitted model,
    so the true energies roll out through the same step as learned ones."""

    potential: GroundTruthFunction | None = None
    interaction: GroundTruthFunction | None = None
    beta: float = 0.0

    time_conditioned = False

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.potential is None and self.interaction is None and self.beta == 0:
            raise ValueError("at least one energy term must be active")
        dims = {
            f.dim for f in (self.potential, self.interaction) if f is not None
        }
        if len(dims) > 1:
            raise ValueError(f"potential and interaction disagree on dim: {sorted(dims)}")

    @property
    def dim(self) -> int | None:
        for f in (self.potential, self.interaction):
            if f is not None:
                return f.dim
        return None

    def grad_potential(self, x: np.ndarray, time_value: float | None = None) -> np.ndarray:
        if self.potential is None:
            return np.zeros_like(x)
        return self.potential.gradient(x)

    def grad_interaction_mean(
        self, x: np.ndarray, points: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        if self.interaction is None:
            return np.zeros_like(x)
        # datagen imports this module, and the benchmark tracer replaces the
        # kernel on datagen, so it is looked up there at call time
        from . import datagen

        return datagen.interaction_gradient_mean(self.interaction, x, points, weights)
