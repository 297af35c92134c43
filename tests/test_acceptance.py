"""Acceptance suite: eleven end-to-end correctness gates, one test each.

Every test prints a single verdict line (shown on failure, or with -s) of the
form ``[acceptance NN] label: PASS/FAIL (details)`` and pins its tolerances
inline.  Oracles are independent of the code under test: enumeration over
transport plans, central finite differences, and closed-form laws.

These run at realistic budgets; the whole module takes a few minutes.
"""

import itertools
import math
import time

import numpy as np
import pytest

from jkoflow import ot
from jkoflow.datagen import GenConfig, generate, predict
from jkoflow.density import fit_gmm, score
from jkoflow.experiments import run_observability, run_time_varying
from jkoflow.features import polynomial_map
from jkoflow.functionals import EnergySpec, GroundTruthFunction
from jkoflow.measures import EmpiricalSnapshot, uniform_snapshot
from jkoflow.nn import build_model, loss_and_param_gradient
from jkoflow.trainer import TrainConfig, evaluate, fit


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {label}: {status} ({detail})")
    assert ok, f"acceptance {number:02d} {label}: {detail}"


def _enumeration_min_cost(a, b, cost) -> float:
    """Exact minimum transport cost by enumerating extreme plans.

    Recursively pushes min(remaining row, remaining column) mass into every
    still-open cell.  Each push exhausts a row or a column, which is exactly
    how extreme plans peel off leaves of their support forest, so every
    vertex of the feasible polytope is reachable and the minimum over leaves
    equals the linear-program optimum.  Memoized on the remaining marginals.
    """
    tol = 1e-12
    memo: dict = {}

    def best(a_rem, b_rem):
        key = (a_rem, b_rem)
        if key in memo:
            return memo[key]
        rows = [i for i, v in enumerate(a_rem) if v > tol]
        cols = [j for j, v in enumerate(b_rem) if v > tol]
        if not rows or not cols:
            return 0.0
        out = math.inf
        for i in rows:
            for j in cols:
                push = min(a_rem[i], b_rem[j])
                a2 = list(a_rem)
                a2[i] = round(a2[i] - push, 12)
                b2 = list(b_rem)
                b2[j] = round(b2[j] - push, 12)
                val = push * cost[i][j] + best(tuple(a2), tuple(b2))
                if val < out:
                    out = val
        memo[key] = out
        return out

    return best(tuple(round(v, 12) for v in a), tuple(round(v, 12) for v in b))


def test_01_exact_transport_matches_enumeration():
    # 200 instances, at most 6 particles per side, uniform and non-uniform
    # weights; objective within 1e-9 of the brute-force minimum, under 10 s
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0

    for k in range(100):  # uniform weights, equal sides: permutation oracle
        n = 1 + k % 6
        xa = rng.normal(size=(n, 3))
        xb = rng.normal(size=(n, 3))
        sa, sb = uniform_snapshot(xa, 0), uniform_snapshot(xb, 1)
        plan = ot.solve_exact(sa, sb)
        got = ot.transport_cost(plan, sa, sb)
        cost = ot.cost_matrix(xa, xb)
        want = min(
            sum(cost[i, perm[i]] for i in range(n)) / n
            for perm in itertools.permutations(range(n))
        )
        worst = max(worst, abs(got - want))

    sizes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3),
             (4, 4), (2, 5), (5, 2), (2, 6), (6, 2)]
    for k in range(100):  # non-uniform weights, unequal sides: vertex oracle
        n, m = sizes[k % len(sizes)]
        xa = rng.normal(size=(n, 2))
        xb = rng.normal(size=(m, 2))
        wa = rng.uniform(0.2, 1.0, n)
        wb = rng.uniform(0.2, 1.0, m)
        sa = EmpiricalSnapshot(xa, wa / wa.sum(), 0)
        sb = EmpiricalSnapshot(xb, wb / wb.sum(), 1)
        plan = ot.solve_exact(sa, sb)
        got = ot.transport_cost(plan, sa, sb)
        want = _enumeration_min_cost(sa.weights, sb.weights, ot.cost_matrix(xa, xb))
        worst = max(worst, abs(got - want))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _verdict(1, "exact transport vs enumeration", ok,
             f"worst gap {worst:.2e}, {elapsed:.1f}s for 200 instances")


def test_02_emd_is_a_metric():
    # symmetry, identity, and triangle inequality on 100 random triples
    rng = np.random.default_rng(1)
    worst_sym = 0.0
    worst_id = 0.0
    worst_triangle = -math.inf
    for k in range(100):
        d = 1 + k % 3
        snaps = []
        for t in range(3):
            n = rng.integers(3, 16)
            points = rng.normal(size=(n, d)) * (1.0 + t)
            if k % 2:
                w = rng.uniform(0.2, 1.0, n)
                snaps.append(EmpiricalSnapshot(points, w / w.sum(), t))
            else:
                snaps.append(uniform_snapshot(points, t))
        ab = ot.emd(snaps[0], snaps[1])
        ba = ot.emd(snaps[1], snaps[0])
        bc = ot.emd(snaps[1], snaps[2])
        ac = ot.emd(snaps[0], snaps[2])
        worst_sym = max(worst_sym, abs(ab - ba))
        worst_id = max(worst_id, ot.emd(snaps[0], snaps[0]))
        worst_triangle = max(worst_triangle, ac - (ab + bc))
    ok = worst_sym < 1e-9 and worst_id < 1e-12 and worst_triangle < 1e-8
    _verdict(2, "transport distance metric axioms", ok,
             f"symmetry gap {worst_sym:.1e}, identity {worst_id:.1e}, "
             f"triangle slack {worst_triangle:.1e}")


def test_03_parameter_gradients_match_finite_differences():
    # every parameter of a 2->3->3->1 potential net, an interaction net, and
    # the diffusion weight, on a 4-pair batch; central differences, h=1e-5
    rng = np.random.default_rng(2)
    model = build_model(dim=2, seed=5, with_interaction=True, with_internal=True,
                        hidden=(3, 3))
    x_start = rng.normal(size=(4, 2))
    x_end = x_start + 0.1 * rng.normal(size=(4, 2))
    masses = rng.uniform(0.1, 1.0, 4)
    masses /= masses.sum()
    pop = rng.normal(size=(7, 2))
    pop_w = np.full(7, 1.0 / 7)
    gmm = fit_gmm(rng.normal(size=(30, 2)), k=2, seed=0)
    args = dict(scores=score(gmm, x_end), populations=[(pop, pop_w)])

    def loss_now() -> float:
        return loss_and_param_gradient(model, x_start, x_end, masses, 0.1, **args)[0]

    _, grads = loss_and_param_gradient(model, x_start, x_end, masses, 0.1, **args)
    h = 1e-5
    worst = 0.0
    n_params = 0
    for param, grad in zip(model.parameters(), grads):
        flat_p = param.reshape(-1)
        flat_g = np.asarray(grad).reshape(-1)
        for idx in range(flat_p.size):
            keep = flat_p[idx]
            flat_p[idx] = keep + h
            up = loss_now()
            flat_p[idx] = keep - h
            down = loss_now()
            flat_p[idx] = keep
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(flat_g[idx] - fd) / max(abs(fd), 1e-8))
            n_params += 1
    ok = worst < 1e-4
    _verdict(3, "analytic gradients vs finite differences", ok,
             f"max relative error {worst:.2e} over {n_params} parameters")


class _Quadratic1D:
    """Plain one-dimensional quadratic drift for data generation."""

    dim = 1

    @staticmethod
    def value(z):
        return (z**2).sum(axis=1)

    @staticmethod
    def gradient(z):
        return 2.0 * z


def _fit_quartic_basis(scheme: str, tau: float) -> np.ndarray:
    spec = EnergySpec(potential=_Quadratic1D())
    train, _ = generate(GenConfig(
        spec=spec, n_particles=40, dim=1, timesteps=3, tau=tau, seed=3, scheme=scheme,
    ))
    result = fit(train, TrainConfig(
        variant="star_linear_potential",
        ridge_lambda=0.0,
        potential_features=polynomial_map(1, 4),
        seed=0,
    ))
    theta, _, _ = result.model.theta_blocks()
    return theta


def test_04_closed_form_recovery_and_forward_scheme_bias():
    # fixed-point-generated data: coefficients on {x, x^2, x^3, x^4} come
    # back as (0, 1, 0, 0) within 1e-6 at zero ridge
    theta = _fit_quartic_basis("implicit", 0.01)
    gap = np.abs(theta - np.array([0.0, 1.0, 0.0, 0.0])).max()

    # forward-generated data leaves a step-size-proportional bias on the
    # quadratic coefficient: shrinking tau tenfold shrinks it about tenfold
    bias_coarse = abs(_fit_quartic_basis("explicit", 1e-2)[1] - 1.0)
    bias_fine = abs(_fit_quartic_basis("explicit", 1e-3)[1] - 1.0)
    ratio = bias_coarse / bias_fine

    ok = gap < 1e-6 and 8.0 < ratio < 12.0
    _verdict(4, "closed-form quadratic recovery", ok,
             f"coefficient gap {gap:.2e}, bias ratio {ratio:.2f} for tau 1e-2 vs 1e-3")


class _FrozenGradientModel:
    """Known drift field packaged like a fitted potential-only model."""

    time_conditioned = False
    beta = 0.0

    def __init__(self, fn: GroundTruthFunction):
        self._fn = fn

    def grad_potential(self, x, time_value=None):
        return self._fn.gradient(x)

    def grad_interaction_mean(self, x, points, weights=None):
        return np.zeros_like(x)


def test_05_network_potential_recovery_at_scale():
    # d=2, 1000 train / 1000 test particles, tau=0.01, 5 steps, 1000 epochs
    truth = GroundTruthFunction("styblinski_tang", 2)
    train, test = generate(GenConfig(
        spec=EnergySpec(potential=truth),
        n_particles=2000, dim=2, timesteps=5, tau=0.01, seed=0,
    ))
    result = fit(train, TrainConfig(variant="star_potential", epochs=1000, seed=0))

    loss_ratio = result.loss_history[-1] / result.loss_history[0]

    # yardstick: the true drift field scored under the same evaluation.  The
    # forward rollout of the true field reproduces forward-simulated data
    # bit-for-bit (distance zero), which cannot anchor a ratio, so both
    # predictors are scored with the fixed-point scheme instead.
    model_emd = evaluate(result.model, test, scheme="implicit")["mean_emd"]
    truth_emd = evaluate(_FrozenGradientModel(truth), test, scheme="implicit")["mean_emd"]

    ok = model_emd <= 2.0 * truth_emd and loss_ratio < 0.01
    _verdict(5, "network potential recovery", ok,
             f"test emd {model_emd:.4g} vs true-field {truth_emd:.4g} "
             f"(ratio {model_emd / truth_emd:.3f}), loss ratio {loss_ratio:.2e}")


def test_06_combined_energy_recovery():
    # quadratic potential + quadratic interaction + diffusion 0.1; the linear
    # fit must land in the right sign and magnitude bands
    spec = EnergySpec(
        potential=GroundTruthFunction("sphere", 2),
        interaction=GroundTruthFunction("sphere", 2),
        beta=0.1,
    )
    train, _ = generate(GenConfig(
        spec=spec, n_particles=2000, dim=2, timesteps=5, tau=0.01, seed=0,
    ))
    result = fit(train, TrainConfig(
        variant="star_linear",
        seed=0,
        potential_features=polynomial_map(2, 4),
        interaction_features=polynomial_map(2, 4),
    ))
    theta_pot, _, theta_beta = result.model.theta_blocks()
    # degree-major basis over 2 coordinates: entries 2 and 3 are the
    # quadratic coefficients, truth -10, tolerance 50 percent
    quad = theta_pot[2:4]
    quad_ok = np.all(quad < -5.0) and np.all(quad > -15.0)
    beta_ok = 0.05 <= theta_beta <= 0.2
    ok = bool(quad_ok and beta_ok)
    _verdict(6, "combined energy recovery", ok,
             f"quadratic coefficients {quad[0]:.2f}, {quad[1]:.2f} (truth -10), "
             f"diffusion weight {theta_beta:.3f} (truth 0.1)")


def test_07_time_varying_fixed_point_prediction():
    rows = run_time_varying(seed=0)
    by_key = {(r["model"], r["prediction"]): r["max_deviation"] for r in rows}
    trained_implicit = by_key[("trained", "implicit")]
    trained_explicit = by_key[("trained", "explicit")]
    ok = trained_implicit < 0.1 and trained_implicit < trained_explicit
    _verdict(7, "time-varying rollout fidelity", ok,
             f"fixed-point max deviation {trained_implicit:.3f} (< 0.1), "
             f"forward scheme {trained_explicit:.3f} (must be worse)")


def test_08_couplings_are_precomputed_once():
    train, _ = generate(GenConfig(
        spec=EnergySpec(potential=GroundTruthFunction("sphere", 2)),
        n_particles=200, dim=2, timesteps=5, tau=0.01, seed=1,
    ))
    ot.reset_solve_count()
    fit(train, TrainConfig(variant="star_potential", epochs=1000, seed=0))
    solves = ot.get_solve_count()
    ok = solves == train.n_steps
    _verdict(8, "one transport solve per snapshot pair", ok,
             f"{solves} solves for {train.n_steps} transitions over 1000 epochs")


def test_09_diffusion_variance_law():
    # pure diffusion from a point mass: variance grows as 2 * beta * tau * t
    beta, tau = 0.1, 0.01
    train, _ = generate(GenConfig(
        spec=EnergySpec(potential=GroundTruthFunction("flat", 1), beta=beta),
        n_particles=20000, dim=1, timesteps=5, tau=tau,
        init_low=-1e-12, init_high=1e-12, seed=2,
    ))
    n = train.snapshots[0].n_particles
    worst_sigma = 0.0
    for t in range(1, 6):
        target = 2.0 * beta * tau * t
        se = target * math.sqrt(2.0 / (n - 1))
        observed = train.snapshots[t].points.var()
        worst_sigma = max(worst_sigma, abs(observed - target) / se)
    ok = worst_sigma < 3.0
    _verdict(9, "diffusion variance law", ok,
             f"worst deviation {worst_sigma:.2f} standard errors over 5 steps, "
             f"n={n}")


def test_10_drift_diffusion_ambiguity():
    report = run_observability(seed=0)
    ratio = report["emd_ratio_two_snapshots"]
    gap_two = report["theta_beta_gap_two_snapshots"]
    gap_three = report["theta_beta_gap_three_snapshots"]
    ok = 0.5 <= ratio <= 2.0 and gap_three > 0.2 and gap_three > gap_two
    _verdict(10, "two-snapshot ambiguity and its resolution", ok,
             f"emd ratio {ratio:.3f} in [0.5, 2], diffusion-weight gap "
             f"{gap_two:.4f} -> {gap_three:.3f} with a third snapshot")


def _fit_sphere_pair_quadratics(scheme: str, tau: float) -> np.ndarray:
    # sphere potential + sphere interaction, beta 0: the whole initial draw
    # is the train cloud, so the interaction averages over exactly the
    # particles it moves (generate's split would average over twice as many)
    sphere = GroundTruthFunction("sphere", 2)
    spec = EnergySpec(potential=sphere, interaction=sphere)
    rng = np.random.default_rng(11)
    initial = uniform_snapshot(rng.uniform(-4.0, 4.0, size=(300, 2)), 0)
    result = fit(predict(spec, initial, 3, tau, scheme), TrainConfig(
        variant="star_linear",
        ridge_lambda=0.0,
        pin_internal=True,
        potential_features=polynomial_map(2, 2),
        interaction_features=polynomial_map(2, 2),
        seed=0,
    ))
    theta_pot, theta_int, _ = result.model.theta_blocks()
    # degree-major basis over 2 coordinates: entries 2 and 3 are the x^2
    # coefficients, truth -10 in both blocks
    return np.concatenate([theta_pot[2:4], theta_int[2:4]])


def test_11_jko_consistent_interaction_recovery():
    # implicit data meet the first-order condition of the JKO step that the
    # loss encodes, so the four x^2 coefficients come back within 1e-6
    gap = np.abs(_fit_sphere_pair_quadratics("implicit", 1e-2) + 10.0).max()

    # explicit data leave a bias: the dynamics are linear, and the fitted
    # coefficients are -10 / (1 + 20 tau) (potential) and
    # -10 / ((1 + 20 tau)(1 + 40 tau)) (interaction), so shrinking tau from
    # 1e-2 to 1e-3 shrinks the bias 8.50 and 7.06 times
    bias_coarse = np.abs(_fit_sphere_pair_quadratics("explicit", 1e-2) + 10.0)
    bias_fine = np.abs(_fit_sphere_pair_quadratics("explicit", 1e-3) + 10.0)
    ratio = bias_coarse / bias_fine
    ratio_pot, ratio_int = ratio[:2], ratio[2:]

    ok = (
        gap < 1e-6
        and np.all(np.abs(ratio_pot - 8.50) < 0.01)
        and np.all(np.abs(ratio_int - 7.06) < 0.01)
    )
    _verdict(11, "JKO-consistent interaction recovery", ok,
             f"coefficient gap {gap:.2e}, bias ratios {ratio_pot.min():.3f}-"
             f"{ratio_pot.max():.3f} (potential, 8.50) and {ratio_int.min():.3f}-"
             f"{ratio_int.max():.3f} (interaction, 7.06) for tau 1e-2 vs 1e-3")
