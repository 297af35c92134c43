"""Tests for the dense-network energies and the hand-rolled differentiation.

The engine computes parameter gradients of losses built from INPUT gradients
of the nets (mixed second order), so the load-bearing oracles here are
central finite differences: of the forward pass for input_gradient, and of
the full residual loss for every parameter entry.  The forward pass itself
is checked against a separate naive reimplementation.
"""

from __future__ import annotations

import json
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from jkoflow import measures, nn
from jkoflow.density import GaussianMixture, score
from jkoflow.measures import pair_chunks
from jkoflow.nn import (
    AdamState,
    Mlp,
    MlpEnergyModel,
    adam_step,
    build_model,
    gradient_and_adjoint,
    init_mlp,
    input_gradient,
    loss_and_param_gradient,
    sigmoid,
    softplus,
    softplus_inverse,
)

from oracles import forward, forward_cache, softplus_and_sigmoid


def _naive_forward(mlp: Mlp, x: np.ndarray) -> float:
    # straight-line reimplementation, plain formulas, one sample
    a = np.asarray(x, dtype=np.float64)
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = w @ a + b
        a = np.log(1.0 + np.exp(z)) if l < len(mlp.weights) - 1 else z
    return float(a[0])


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# activations


def test_softplus_matches_naive_and_is_stable():
    z = np.linspace(-20, 20, 101)
    np.testing.assert_allclose(softplus(z), np.log(1.0 + np.exp(z)), rtol=1e-12, atol=1e-15)
    assert softplus(np.array([1000.0]))[0] == 1000.0
    assert softplus(np.array([-1000.0]))[0] == 0.0


def test_sigmoid_matches_naive_and_is_stable():
    z = np.linspace(-20, 20, 101)
    np.testing.assert_allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-12)
    assert sigmoid(np.array([1000.0]))[0] == 1.0
    assert sigmoid(np.array([-1000.0]))[0] == 0.0


def test_fused_activation_matches_softplus_and_sigmoid_bit_for_bit():
    edges = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 1000.0, -1000.0, np.nan]
    z = np.concatenate([np.array(edges), _rng(30).normal(size=5000) * 20.0])
    # thousands of rows, and several columns
    z = np.tile(z[:, None], (1, 3))
    z[:, 1] = -z[:, 1]
    acts, sigs = softplus_and_sigmoid(z)
    np.testing.assert_array_equal(acts, softplus(z))
    np.testing.assert_array_equal(sigs, sigmoid(z))


def _where_sigmoid(z: np.ndarray) -> np.ndarray:
    # the branching numerator the activations used before np.maximum
    e = np.exp(-np.abs(z))
    den = e + 1.0
    return np.where(z >= 0, 1.0, e) / den


def test_branch_free_sigmoid_is_bit_identical_to_the_where_form():
    edges = [0.0, -0.0, 1e-300, -1e-300, 1000.0, -1000.0, np.inf, -np.inf, np.nan]
    z = np.concatenate([np.array(edges), _rng(34).normal(size=200) * 30.0])
    want = _where_sigmoid(z).view(np.int64)
    block = np.tile(z[:, None], (1, 3))
    np.testing.assert_array_equal(sigmoid(z).view(np.int64), want)
    np.testing.assert_array_equal(softplus_and_sigmoid(block)[1][:, 1].view(np.int64), want)
    over = nn._sigmoid_over(block.copy(), np.empty(block.size))
    np.testing.assert_array_equal(over[:, 2].view(np.int64), want)


def test_softplus_inverse_round_trip():
    for y in (0.01, 0.5, 3.0, 50.0):
        assert softplus(np.array([softplus_inverse(y)]))[0] == pytest.approx(y, rel=1e-12)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_zero_output_layer_gives_zero():
    mlp = init_mlp([2, 4, 1], _rng(1))
    mlp.weights[-1][:] = 0.0
    assert forward(mlp, np.array([0.3, -1.2]))[0] == 0.0


def test_forward_single_linear_layer():
    # one affine layer, identity output: w.x + b
    mlp = Mlp([np.array([[2.0, -1.0]])], [np.array([0.5])])
    out = forward(mlp, np.array([[3.0, 4.0], [0.0, 0.0]]))
    np.testing.assert_allclose(out, [2.5, 0.5], rtol=1e-15)


def test_forward_matches_naive_reimplementation():
    rng = _rng(2)
    mlp = init_mlp([3, 5, 4, 1], rng)
    xs = rng.normal(size=(20, 3))
    got = forward(mlp, xs)
    want = [_naive_forward(mlp, x) for x in xs]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_forward_batch_matches_single():
    rng = _rng(3)
    mlp = init_mlp([2, 6, 1], rng)
    xs = rng.normal(size=(7, 2))
    batch = forward(mlp, xs)
    singles = [forward(mlp, x)[0] for x in xs]
    # batched and single matmuls may take different BLAS paths
    np.testing.assert_allclose(batch, singles, rtol=1e-14)


def test_mlp_validation():
    with pytest.raises(ValueError, match="non-empty"):
        Mlp([], [])
    with pytest.raises(ValueError, match="aligned"):
        Mlp([np.ones((1, 2))], [])
    with pytest.raises(ValueError, match="scalar"):
        Mlp([np.ones((2, 3))], [np.zeros(2)])
    with pytest.raises(ValueError, match="last layer"):
        init_mlp([2, 4, 3], _rng(0))


def test_init_mlp_shapes_and_scaling():
    mlp = init_mlp([8, 64, 64, 1], _rng(4))
    assert [w.shape for w in mlp.weights] == [(64, 8), (64, 64), (1, 64)]
    assert all(np.all(b == 0.0) for b in mlp.biases)
    # std sqrt(1/fan_in) on the 64x64 layer, loose statistical band
    assert mlp.weights[1].std() == pytest.approx(np.sqrt(1 / 64), rel=0.15)


# ---------------------------------------------------------------------------
# input gradient


def test_input_gradient_zero_output_layer_is_zero():
    mlp = init_mlp([3, 5, 1], _rng(5))
    mlp.weights[-1][:] = 0.0
    np.testing.assert_array_equal(input_gradient(mlp, np.ones(3)), np.zeros(3))


def test_input_gradient_linear_layer_is_weight_row():
    mlp = Mlp([np.array([[2.0, -1.0, 0.5]])], [np.array([7.0])])
    np.testing.assert_array_equal(input_gradient(mlp, np.zeros(3)), [2.0, -1.0, 0.5])


def test_input_gradient_of_softplus_chain_is_sigmoid():
    # 1 -> 1 -> 1 with unit weights: output softplus(x), derivative sigmoid(x)
    mlp = Mlp([np.array([[1.0]]), np.array([[1.0]])], [np.zeros(1), np.zeros(1)])
    xs = np.linspace(-3, 3, 11)[:, None]
    np.testing.assert_allclose(input_gradient(mlp, xs), sigmoid(xs), rtol=1e-12)


def test_input_gradient_matches_finite_differences():
    rng = _rng(6)
    mlp = init_mlp([3, 8, 6, 1], rng)
    h = 1e-5
    worst = 0.0
    for x in rng.normal(size=(100, 3)):
        g = input_gradient(mlp, x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (forward(mlp, x + e)[0] - forward(mlp, x - e)[0]) / (2 * h)
            worst = max(worst, abs(fd - g[i]) / max(abs(fd), 1e-8))
    assert worst < 1e-6


def test_input_gradient_batch_matches_single():
    rng = _rng(7)
    mlp = init_mlp([2, 5, 1], rng)
    xs = rng.normal(size=(6, 2))
    batch = input_gradient(mlp, xs)
    singles = np.stack([input_gradient(mlp, x) for x in xs])
    np.testing.assert_allclose(batch, singles, rtol=1e-13, atol=1e-16)


def test_input_gradient_peak_memory():
    # the pass keeps S of each hidden layer plus the backward products, and
    # its activations work in two arrays of the widest layer; kept
    # activations, or a third such array, would lift the peak past this
    rng = _rng(31)
    mlp = init_mlp([2, 64, 64, 1], rng)
    x = rng.normal(size=(22_500, 2))
    input_gradient(mlp, x)
    tracemalloc.start()
    try:
        input_gradient(mlp, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 22_500 * 64 * 8


HIDDEN_CASES = [(), (16,), (64, 64), (8, 8, 8)]


def _reference_input_gradient(mlp: Mlp, xb: np.ndarray) -> np.ndarray:
    # the pass before the dead work was cut: the whole net forward, the last
    # softplus and the output included, then P^L = 1 and 1 W^L as full arrays
    _, sigmoids = forward_cache(mlp, xb)
    p = np.ones((xb.shape[0], 1))
    for l in range(len(mlp.weights) - 1, 0, -1):
        p = (p @ mlp.weights[l]) * sigmoids[l - 1]
    return p @ mlp.weights[0]


@pytest.mark.parametrize("hidden", HIDDEN_CASES)
@pytest.mark.parametrize("rows", [1, 7, 2100])
def test_input_gradient_matches_a_pass_that_runs_the_last_softplus(hidden, rows):
    rng = _rng(35)
    mlp = init_mlp([3, *hidden, 1], rng)
    for b in mlp.biases:
        b[:] = 0.3 * rng.normal(size=b.shape)
    x = 2.0 * rng.normal(size=(rows, 3))
    np.testing.assert_array_equal(input_gradient(mlp, x), _reference_input_gradient(mlp, x))


# ---------------------------------------------------------------------------
# parameter gradients of <cotangent, input_gradient>


def test_gradient_and_adjoint_returns_same_input_gradient():
    rng = _rng(8)
    mlp = init_mlp([2, 4, 3, 1], rng)
    xs = rng.normal(size=(5, 2))
    grads, _, _ = gradient_and_adjoint(mlp, xs, np.ones_like(xs))
    np.testing.assert_array_equal(grads, input_gradient(mlp, xs))


def test_gradient_and_adjoint_parameter_grads_match_fd():
    rng = _rng(9)
    mlp = init_mlp([2, 4, 3, 1], rng)
    xs = rng.normal(size=(4, 2))
    cot = rng.normal(size=(4, 2))

    def phi() -> float:
        return float((input_gradient(mlp, xs) * cot).sum())

    _, dw, db = gradient_and_adjoint(mlp, xs, cot)
    h = 1e-6
    for arrays, danalytic in ((mlp.weights, dw), (mlp.biases, db)):
        for arr, d in zip(arrays, danalytic):
            flat = arr.ravel()
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                up = phi()
                flat[i] = old - h
                down = phi()
                flat[i] = old
                fd = (up - down) / (2 * h)
                assert d.ravel()[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_gradient_and_adjoint_is_additive_over_batch():
    rng = _rng(10)
    mlp = init_mlp([2, 3, 1], rng)
    xs = rng.normal(size=(5, 2))
    cot = rng.normal(size=(5, 2))
    _, dw, db = gradient_and_adjoint(mlp, xs, cot)
    dw_sum = [np.zeros_like(w) for w in mlp.weights]
    db_sum = [np.zeros_like(b) for b in mlp.biases]
    for x, c in zip(xs, cot):
        _, dws, dbs = gradient_and_adjoint(mlp, x[None], c[None])
        for acc, d in zip(dw_sum, dws):
            acc += d
        for acc, d in zip(db_sum, dbs):
            acc += d
    for a, b in zip(dw, dw_sum):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    for a, b in zip(db, db_sum):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


def _reference_tape(mlp: Mlp, xb: np.ndarray):
    # the tape before the dead work was cut: the whole net forward, P^L = 1
    # and Q^L = 1 W^L as full arrays, and the output row's gradient as a
    # product with P^L like every other weight gradient
    n_layers = len(mlp.weights)
    activations, sigmoids = forward_cache(mlp, xb)
    ps = [None] * (n_layers + 1)
    qs = [None] * (n_layers + 1)
    ps[n_layers] = np.ones((xb.shape[0], 1))
    for l in range(n_layers - 1, 0, -1):
        qs[l + 1] = ps[l + 1] @ mlp.weights[l]
        ps[l] = qs[l + 1] * sigmoids[l - 1]
    grads = ps[1] @ mlp.weights[0]

    def pullback(cot):
        d_weights = [np.zeros_like(w) for w in mlp.weights]
        d_biases = [np.zeros_like(b) for b in mlp.biases]
        d_weights[0] += ps[1].T @ cot
        p_bar = cot @ mlp.weights[0].T
        s_bar = [None] * n_layers
        for l in range(1, n_layers):
            s_bar[l] = p_bar * qs[l + 1]
            q_bar = p_bar * sigmoids[l - 1]
            d_weights[l] += ps[l + 1].T @ q_bar
            p_bar = q_bar @ mlp.weights[l].T
        a_bar = None
        for l in range(n_layers - 1, 0, -1):
            s = sigmoids[l - 1]
            z_bar = s_bar[l] * s * (1.0 - s)
            if a_bar is not None:
                z_bar = z_bar + a_bar * s
            d_weights[l - 1] += z_bar.T @ activations[l - 1]
            d_biases[l - 1] += z_bar.sum(axis=0)
            if l > 1:
                a_bar = z_bar @ mlp.weights[l - 1]
        return d_weights, d_biases

    return grads, pullback


def _reference_adjoint(mlp: Mlp, x: np.ndarray, cotangent: np.ndarray):
    grads, pullback = _reference_tape(mlp, x)
    return (grads, *pullback(cotangent))


def _assert_close_to_reference(got, want):
    # the output row's gradient is a column sum in place of a product with
    # ones, which rounds differently
    assert np.shape(got) == np.shape(want)
    assert np.abs(np.asarray(got) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("hidden", HIDDEN_CASES)
@pytest.mark.parametrize("rows", [5, 2100])
def test_tape_matches_the_reference_tape(hidden, rows):
    rng = _rng(36)
    mlp = init_mlp([2, *hidden, 1], rng)
    x = rng.normal(size=(rows, 2))
    cot = rng.normal(size=(rows, 2))
    grads, pullback = nn._tape(mlp, x)
    want_grads, want_pullback = _reference_tape(mlp, x)
    np.testing.assert_array_equal(grads, want_grads)
    first = list(chain(*pullback(cot)))
    # a second pullback reuses the tape's arrays but not its results: the
    # first call's gradients stay as they were
    again = list(chain(*pullback(2.0 * cot)))
    for got, twice, want in zip(first, again, chain(*want_pullback(cot))):
        _assert_close_to_reference(got, want)
        np.testing.assert_array_equal(twice, 2.0 * got)


# ---------------------------------------------------------------------------
# energy model


def test_model_dim_and_beta_properties():
    model = build_model(dim=3, seed=0, with_internal=True)
    assert model.dim == 3
    assert model.beta == pytest.approx(0.01, rel=1e-10)
    timed = build_model(dim=3, seed=0, time_conditioned=True)
    assert timed.potential_net.input_dim == 4
    assert timed.dim == 3
    assert timed.beta == 0.0


def test_model_beta_is_nonnegative_for_any_raw_value():
    for raw in (-50.0, -1.0, 0.0, 2.0):
        model = build_model(dim=1, seed=0, with_internal=True)
        model.beta_raw[...] = raw
        assert model.beta >= 0.0


def test_time_conditioned_model_requires_time():
    model = build_model(dim=2, seed=1, time_conditioned=True)
    with pytest.raises(ValueError, match="time value"):
        model.grad_potential(np.zeros((1, 2)))


def test_grad_potential_strips_time_column():
    model = build_model(dim=2, seed=2, time_conditioned=True, hidden=(4,))
    x = _rng(11).normal(size=(3, 2))
    g = model.grad_potential(x, time_value=0.4)
    assert g.shape == (3, 2)
    full = input_gradient(
        model.potential_net, np.hstack([x, np.full((3, 1), 0.4)])
    )
    np.testing.assert_array_equal(g, full[:, :2])


@pytest.mark.parametrize("time_conditioned", [False, True])
def test_grad_potential_runs_in_pair_blocks_that_match_the_whole_pass(
    time_conditioned, monkeypatch
):
    # the pass is the pair mean against a unit mass at 0: a budget of 300
    # rows at the net's width of 64 splits 1,000 rows into four blocks
    model = build_model(dim=2, seed=15, time_conditioned=time_conditioned)
    net = model.potential_net
    x = 2.0 * _rng(16).normal(size=(1000, 2))
    time_value = 0.4 if time_conditioned else None
    whole = input_gradient(net, model._with_time(x, time_value))[:, :2]
    blocks = []
    monkeypatch.setattr(
        nn, "input_gradient", lambda mlp, x: blocks.append(len(x)) or input_gradient(mlp, x)
    )
    monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 300 * net.width)
    got = model.grad_potential(x, time_value)
    assert blocks == [300, 300, 300, 100]
    assert max(blocks) <= measures.budget_rows(net.width)
    np.testing.assert_allclose(got, whole, rtol=1e-15, atol=1e-15 * np.abs(whole).max())


def test_grad_potential_peak_memory_stays_within_a_pair_block():
    # a 2,048-row pair block of the default (64, 64) net takes 5.2 MB of
    # slab; one pass over all 20,000 rows would peak above 30 MB
    model = build_model(dim=2, seed=17)
    x = _rng(18).normal(size=(20_000, 2))
    model.grad_potential(x)
    tracemalloc.start()
    try:
        model.grad_potential(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_grad_interaction_mean_matches_direct_loop():
    model = build_model(dim=2, seed=3, with_interaction=True, hidden=(4,))
    rng = _rng(12)
    x = rng.normal(size=(3, 2))
    pop = rng.normal(size=(5, 2))
    w = rng.uniform(0.1, 1.0, size=5)
    w /= w.sum()
    got = model.grad_interaction_mean(x, pop, w)
    want = np.zeros_like(x)
    for j in range(5):
        want += w[j] * input_gradient(model.interaction_net, x - pop[j])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_grad_interaction_mean_chunked_matches_unchunked(monkeypatch):
    # a budget of 25 rows per block against 200 points, at the net's width
    # of 4: 60 queries span three blocks
    model = build_model(dim=2, seed=4, with_interaction=True, hidden=(4,))
    rng = _rng(13)
    x = rng.normal(size=(60, 2))
    pop = rng.normal(size=(200, 2))
    w = np.full(200, 1 / 200)
    blocks = []
    monkeypatch.setattr(
        nn, "input_gradient", lambda mlp, x: blocks.append(len(x)) or input_gradient(mlp, x)
    )
    monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 25 * 200 * 4)
    got = model.grad_interaction_mean(x, pop, w)
    assert blocks == [25 * 200, 25 * 200, 10 * 200]
    diff = (x[:, None, :] - pop[None, :, :]).reshape(-1, 2)
    g = input_gradient(model.interaction_net, diff).reshape(60, 200, 2)
    np.testing.assert_allclose(got, g.mean(axis=1), rtol=1e-10)


def test_float32_interaction_mean_matches_float64_over_blocks(monkeypatch):
    # the default (64, 64) nets of a star model; a budget of 25 rows per
    # block against 200 points, so 60 queries span three float32 blocks
    model = build_model(dim=2, seed=14, with_interaction=True)
    rng = _rng(15)
    x = rng.normal(size=(60, 2)) * 2
    pop = rng.normal(size=(200, 2)) * 2
    w = rng.uniform(0.1, 1.0, size=200)
    w /= w.sum()
    want = model.grad_interaction_mean(x, pop, w)
    blocks = []
    monkeypatch.setattr(
        nn, "input_gradient",
        lambda mlp, diff: blocks.append((len(diff), diff.dtype, mlp.weights[0].dtype))
        or input_gradient(mlp, diff),
    )
    monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 25 * 200 * model.interaction_net.width)
    got = model.grad_interaction_mean(x, pop, w, dtype=np.float32)
    assert blocks == [(n * 200, np.float32, np.float32) for n in (25, 25, 10)]
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    # the master net is not touched by the cast
    assert all(p.dtype == np.float64 for p in model.parameters())


def test_input_gradient_computes_in_its_nets_dtype():
    mlp = init_mlp([3, 16, 16, 1], _rng(16))
    x = _rng(17).normal(size=(5, 3))
    want = input_gradient(mlp, x)
    got = input_gradient(nn._cast(mlp, np.float32), x)
    assert want.dtype == np.float64 and got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    one = input_gradient(nn._cast(mlp, np.float32), x[0])
    assert one.shape == (3,) and one.dtype == np.float32
    # a float64 net reads float32 input in float64
    assert input_gradient(mlp, x.astype(np.float32)).dtype == np.float64


def test_parameters_order_and_liveness():
    model = build_model(dim=2, seed=5, with_interaction=True, with_internal=True)
    params = model.parameters()
    n_pot = len(model.potential_net.weights) + len(model.potential_net.biases)
    n_int = len(model.interaction_net.weights) + len(model.interaction_net.biases)
    assert len(params) == n_pot + n_int + 1
    assert params[0] is model.potential_net.weights[0]
    assert params[-1] is model.beta_raw
    params[0][0, 0] = 123.0
    assert model.potential_net.weights[0][0, 0] == 123.0


# ---------------------------------------------------------------------------
# residual loss and its parameter gradients


def _unit_gmm(dim: int) -> GaussianMixture:
    return GaussianMixture(
        weights=np.array([1.0]),
        means=np.zeros((1, dim)),
        covariances=np.eye(dim)[None],
    )


def test_loss_zero_net_reduces_to_displacement_term():
    model = build_model(dim=2, seed=6, hidden=(4,))
    model.potential_net.weights[-1][:] = 0.0
    rng = _rng(14)
    x0 = rng.normal(size=(5, 2))
    x1 = rng.normal(size=(5, 2))
    masses = rng.uniform(0.1, 0.4, size=5)
    tau = 0.05
    loss, grads = loss_and_param_gradient(model, x0, x1, masses, tau)
    expected = float(masses @ (((x1 - x0) / tau) ** 2).sum(axis=1))
    assert loss == pytest.approx(expected, rel=1e-12)
    # with a zero output layer the input gradient is identically zero, so
    # every parameter it multiplies is detached; only the output weights move
    assert np.any(grads[1] != 0.0)  # output layer weights
    np.testing.assert_array_equal(grads[0], 0.0)  # first layer weights
    np.testing.assert_array_equal(grads[2], 0.0)  # first layer biases
    np.testing.assert_array_equal(grads[3], 0.0)  # output bias, never read


def test_loss_vanishes_on_exact_linear_drift_data():
    # linear potential net: grad is the constant weight row w, and data built
    # as x' = x - tau w makes the residual identically zero
    w = np.array([[1.5, -0.5]])
    model = MlpEnergyModel(Mlp([w.copy()], [np.zeros(1)]))
    rng = _rng(15)
    x1 = rng.normal(size=(6, 2))
    x0 = x1 + 0.05 * w[0]
    loss, _ = loss_and_param_gradient(model, x0, x1, np.full(6, 1 / 6), tau=0.05)
    assert loss < 1e-12


def test_loss_value_matches_direct_assembly():
    model = build_model(dim=2, seed=7, with_interaction=True, with_internal=True, hidden=(3,))
    rng = _rng(16)
    x0, x1 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    masses = rng.uniform(0.1, 0.5, size=4)
    pop = rng.normal(size=(6, 2))
    pw = np.full(6, 1 / 6)
    gmm = _unit_gmm(2)
    tau = 0.1
    loss, grads = loss_and_param_gradient(
        model, x0, x1, masses, tau, scores=score(gmm, x1), populations=[(pop, pw)]
    )
    residual = (
        model.grad_potential(x1)
        + model.grad_interaction_mean(x1, pop, pw)
        + model.beta * score(gmm, x1)
        + (x1 - x0) / tau
    )
    assert loss == pytest.approx(float(masses @ (residual**2).sum(axis=1)), rel=1e-12)
    assert len(grads) == len(model.parameters())
    for g, p in zip(grads, model.parameters()):
        assert np.asarray(g).shape == p.shape


def test_loss_param_gradients_match_fd_all_components():
    # the central correctness check of the engine: every parameter of a model
    # with potential, interaction and diffusion jointly active
    model = build_model(dim=2, seed=8, with_interaction=True, with_internal=True, hidden=(3,))
    rng = _rng(17)
    x0, x1 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    masses = np.array([0.6, 0.4])
    pop = rng.normal(size=(4, 2))
    pw = np.array([0.1, 0.2, 0.3, 0.4])
    gmm = _unit_gmm(2)
    kwargs = dict(scores=score(gmm, x1), populations=[(pop, pw)])

    _, grads = loss_and_param_gradient(model, x0, x1, masses, 0.1, **kwargs)
    h = 1e-5
    for p, g in zip(model.parameters(), grads):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up, _ = loss_and_param_gradient(model, x0, x1, masses, 0.1, **kwargs)
            flat[i] = old - h
            down, _ = loss_and_param_gradient(model, x0, x1, masses, 0.1, **kwargs)
            flat[i] = old
            fd = (up - down) / (2 * h)
            assert gflat[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_loss_param_gradients_match_fd_time_conditioned():
    model = build_model(dim=1, seed=9, time_conditioned=True, hidden=(3,))
    rng = _rng(18)
    x0, x1 = rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
    masses = np.full(3, 1 / 3)
    _, grads = loss_and_param_gradient(model, x0, x1, masses, 0.1, times=np.full(3, 0.7))
    h = 1e-5
    for p, g in zip(model.parameters(), grads):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up, _ = loss_and_param_gradient(model, x0, x1, masses, 0.1, times=np.full(3, 0.7))
            flat[i] = old - h
            down, _ = loss_and_param_gradient(model, x0, x1, masses, 0.1, times=np.full(3, 0.7))
            flat[i] = old
            assert gflat[i] == pytest.approx((up - down) / (2 * h), rel=1e-4, abs=1e-7)


def test_loss_is_permutation_invariant_and_additive():
    model = build_model(dim=2, seed=10, hidden=(4,))
    rng = _rng(19)
    x0, x1 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    masses = rng.uniform(0.05, 0.3, size=6)
    loss, _ = loss_and_param_gradient(model, x0, x1, masses, 0.1)
    perm = rng.permutation(6)
    loss_p, _ = loss_and_param_gradient(model, x0[perm], x1[perm], masses[perm], 0.1)
    assert loss_p == pytest.approx(loss, rel=1e-12)
    a, _ = loss_and_param_gradient(model, x0[:3], x1[:3], masses[:3], 0.1)
    b, _ = loss_and_param_gradient(model, x0[3:], x1[3:], masses[3:], 0.1)
    assert a + b == pytest.approx(loss, rel=1e-12)


def test_loss_missing_inputs_raise():
    with_int = build_model(dim=2, seed=11, with_interaction=True, hidden=(3,))
    x = np.zeros((2, 2))
    m = np.full(2, 0.5)
    with pytest.raises(ValueError, match="next snapshot"):
        loss_and_param_gradient(with_int, x, x, m, 0.1)
    with_beta = build_model(dim=2, seed=11, with_internal=True, hidden=(3,))
    with pytest.raises(ValueError, match="density"):
        loss_and_param_gradient(with_beta, x, x, m, 0.1)


def test_interaction_subsample_full_size_is_exact_and_smaller_needs_rng():
    model = build_model(dim=2, seed=12, with_interaction=True, hidden=(3,))
    rng = _rng(20)
    x0, x1 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    masses = np.full(3, 1 / 3)
    pop = rng.normal(size=(5, 2))
    pw = np.full(5, 0.2)
    full, _ = loss_and_param_gradient(model, x0, x1, masses, 0.1, populations=[(pop, pw)])
    capped, _ = loss_and_param_gradient(
        model, x0, x1, masses, 0.1, populations=[(pop, pw)],
        interaction_subsample=5,
    )
    assert capped == full
    with pytest.raises(ValueError, match="rng"):
        loss_and_param_gradient(
            model, x0, x1, masses, 0.1, populations=[(pop, pw)],
            interaction_subsample=2,
        )
    sub, _ = loss_and_param_gradient(
        model, x0, x1, masses, 0.1, populations=[(pop, pw)],
        interaction_subsample=2, subsample_rng=np.random.default_rng(0),
    )
    assert np.isfinite(sub)


def _two_pass_loss(
    model, x0, x1, masses, tau, pop=None, pw=None, gmm=None, time_input=None,
    adjoint=gradient_and_adjoint,
):
    # the residual from input gradients, then every net's passes again inside
    # ``adjoint`` for the parameter gradients
    d = model.dim
    inputs_v = model._with_time(x1, time_input)
    residual = input_gradient(model.potential_net, inputs_v)[:, :d] + (x1 - x0) / tau
    if pop is not None:
        residual = residual + model.grad_interaction_mean(x1, pop, pw)
    if gmm is not None:
        score_vals = score(gmm, x1)
        residual = residual + model.beta * score_vals
    loss = float(masses @ (residual**2).sum(axis=1))
    cot = 2.0 * masses[:, None] * residual
    cot_v = np.hstack([cot, np.zeros((cot.shape[0], 1))]) if model.time_conditioned else cot
    _, dw, db = adjoint(model.potential_net, inputs_v, cot_v)
    grads = dw + db
    if pop is not None:
        dw_int = [np.zeros_like(w) for w in model.interaction_net.weights]
        db_int = [np.zeros_like(b) for b in model.interaction_net.biases]
        for rows, diff in pair_chunks(x1, pop, model.interaction_net.width):
            pair_cot = (cot[rows, None, :] * pw[None, :, None]).reshape(-1, d)
            _, dws, dbs = adjoint(model.interaction_net, diff, pair_cot)
            for acc, delta in zip(dw_int + db_int, dws + dbs):
                acc += delta
        grads += dw_int + db_int
    if gmm is not None:
        grads.append(np.asarray(float((cot * score_vals).sum()) * float(sigmoid(model.beta_raw))))
    return loss, grads


@pytest.mark.parametrize("case", ["potential", "time", "interaction_beta_chunked", "subsample"])
def test_loss_matches_two_pass_reference_bit_for_bit(case, monkeypatch):
    rng = _rng(32)
    n, tau = 40, 0.1
    kwargs, ref = {}, {}
    tapes = []
    if case == "potential":
        model = build_model(dim=2, seed=22)
    elif case == "time":
        model = build_model(dim=1, seed=23, time_conditioned=True, hidden=(6, 5))
        kwargs = {"times": np.full(n, 0.7)}
        ref = {"time_input": 0.7}
    elif case == "interaction_beta_chunked":
        # a budget of 20 rows per block against 200 points, at the net's width
        # of 3: three blocks over 60 rows
        model = build_model(dim=2, seed=24, with_interaction=True, with_internal=True, hidden=(3, 3))
        n = 60
        pop = rng.normal(size=(200, 2))
        pw = rng.uniform(0.5, 1.0, size=200)
        pw /= pw.sum()
        monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 20 * 200 * 3)
        tape = nn._tape
        monkeypatch.setattr(nn, "_tape", lambda mlp, xb: tapes.append(len(xb)) or tape(mlp, xb))
        gmm = _unit_gmm(2)
        kwargs = {"populations": [(pop, pw)]}
        ref = {"pop": pop, "pw": pw, "gmm": gmm}
    else:
        model = build_model(dim=2, seed=25, with_interaction=True, with_internal=True, hidden=(5, 4))
        pop = rng.normal(size=(30, 2))
        pw = rng.uniform(0.5, 1.0, size=30)
        pw /= pw.sum()
        gmm = _unit_gmm(2)
        kwargs = {
            "populations": [(pop, pw)],
            "interaction_subsample": 10, "subsample_rng": np.random.default_rng(3),
        }
        idx = np.random.default_rng(3).choice(30, size=10, replace=False, p=pw)
        ref = {"pop": pop[idx], "pw": np.full(10, 0.1), "gmm": gmm}
    x0 = rng.normal(size=(n, model.dim))
    x1 = rng.normal(size=(n, model.dim))
    masses = rng.uniform(0.1, 1.0, size=n)
    if "gmm" in ref:
        kwargs["scores"] = score(ref["gmm"], x1)
    loss, grads = loss_and_param_gradient(model, x0, x1, masses, tau, **kwargs)
    if case == "interaction_beta_chunked":
        # the potential net's tape over the batch, then one per pair block
        assert tapes == [60, 20 * 200, 20 * 200, 20 * 200]
    want_loss, want_grads = _two_pass_loss(model, x0, x1, masses, tau, **ref)
    assert loss == want_loss
    assert len(grads) == len(want_grads) == len(model.parameters())
    for got, want in zip(grads, want_grads):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("hidden", [(16,), (8, 8, 8)])
def test_pair_tape_loss_matches_the_reference_tape(hidden):
    # 40 rows against 120 points: one pair block of 4,800 pair rows
    model = build_model(dim=2, seed=29, with_interaction=True, with_internal=True, hidden=hidden)
    rng = _rng(37)
    n = 40
    pop = rng.normal(size=(120, 2))
    pw = rng.uniform(0.5, 1.0, size=120)
    pw /= pw.sum()
    x0, x1 = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    masses = rng.uniform(0.1, 1.0, size=n)
    gmm = _unit_gmm(2)
    loss, grads = loss_and_param_gradient(
        model, x0, x1, masses, 0.1, scores=score(gmm, x1), populations=[(pop, pw)]
    )
    want_loss, want_grads = _two_pass_loss(
        model, x0, x1, masses, 0.1, pop=pop, pw=pw, gmm=gmm, adjoint=_reference_adjoint
    )
    assert loss == want_loss
    assert len(grads) == len(want_grads) == len(model.parameters())
    for got, want in zip(grads, want_grads):
        _assert_close_to_reference(got, want)


@pytest.mark.parametrize("case", ["potential", "time", "interaction_beta", "subsample"])
def test_multi_step_batch_matches_sum_of_single_step_calls(case, monkeypatch):
    # a batch whose rows end on four different snapshots, in shuffled order,
    # against one call per step with that step's rows, scores, times and
    # population; the subsample draws come from equally seeded rngs and are
    # taken in ascending step order on both sides
    rng = _rng(33)
    n, n_steps, tau = 48, 4, 0.1
    subsample = 0
    if case == "potential":
        model = build_model(dim=2, seed=26, hidden=(6, 5))
    elif case == "time":
        model = build_model(dim=2, seed=27, time_conditioned=True, hidden=(6, 5))
    else:
        model = build_model(dim=2, seed=28, with_interaction=True, with_internal=True, hidden=(5, 4))
        subsample = 7 if case == "subsample" else 0
    steps = rng.permutation(np.arange(n) % n_steps)
    x0 = rng.normal(size=(n, 2))
    x1 = rng.normal(size=(n, 2))
    masses = rng.uniform(0.1, 1.0, size=n)
    scores = rng.normal(size=(n, 2)) if model.beta_raw is not None else None
    times = (steps + 1) / n_steps if model.time_conditioned else None
    populations = None
    if model.interaction_net is not None:
        populations = []
        for count in (9, 12, 10, 11):
            pw = rng.uniform(0.5, 1.0, size=count)
            populations.append((rng.normal(size=(count, 2)), pw / pw.sum()))

    tapes = []
    tape = nn._tape
    monkeypatch.setattr(nn, "_tape", lambda mlp, xb: tapes.append(len(xb)) or tape(mlp, xb))
    loss, grads = loss_and_param_gradient(
        model, x0, x1, masses, tau, scores=scores, times=times, populations=populations,
        steps=steps, interaction_subsample=subsample, subsample_rng=np.random.default_rng(4),
    )
    if model.interaction_net is None:
        assert tapes == [n]  # one potential tape for the whole batch
    else:
        assert tapes[0] == n and len(tapes) == 1 + n_steps

    want_loss, want_grads = 0.0, [np.zeros_like(p) for p in model.parameters()]
    step_rng = np.random.default_rng(4)
    for t in range(n_steps):
        sel = steps == t
        part, part_grads = loss_and_param_gradient(
            model, x0[sel], x1[sel], masses[sel], tau,
            scores=None if scores is None else scores[sel],
            times=None if times is None else times[sel],
            populations=None if populations is None else [populations[t]],
            interaction_subsample=subsample, subsample_rng=step_rng,
        )
        want_loss += part
        want_grads = [acc + g for acc, g in zip(want_grads, part_grads)]
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert len(grads) == len(want_grads) == len(model.parameters())
    for got, want in zip(grads, want_grads):
        assert np.abs(np.asarray(got) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("case", ["potential", "time", "star"])
def test_float32_tapes_match_float64_loss_and_gradients(case, monkeypatch):
    # (64, 64) nets and a 250-pair batch, as training runs them; the star
    # batch mixes three steps and spans several pair blocks a step
    rng = _rng(38)
    n, tau = 250, 0.01
    kwargs = {}
    if case == "potential":
        model = build_model(dim=2, seed=30)
    elif case == "time":
        model = build_model(dim=2, seed=31, time_conditioned=True)
        kwargs = {"times": rng.integers(1, 6, size=n) / 5}
    else:
        model = build_model(dim=2, seed=32, with_interaction=True, with_internal=True)
        populations = []
        for count in (150, 140, 160):
            pw = rng.uniform(0.5, 1.0, size=count)
            populations.append((2.0 * rng.normal(size=(count, 2)), pw / pw.sum()))
        kwargs = {
            "scores": rng.normal(size=(n, 2)),
            "populations": populations,
            "steps": rng.integers(0, 3, size=n),
        }
    x0 = 2.0 * rng.normal(size=(n, 2))
    x1 = x0 + tau * rng.normal(size=(n, 2))
    masses = np.full(n, 1.0 / n)
    want_loss, want_grads = loss_and_param_gradient(model, x0, x1, masses, tau, **kwargs)

    tapes = []
    tape = nn._tape
    monkeypatch.setattr(
        nn, "_tape",
        lambda mlp, xb: tapes.append({xb.dtype, *(a.dtype for a in mlp.weights + mlp.biases)})
        or tape(mlp, xb),
    )
    loss, grads = loss_and_param_gradient(model, x0, x1, masses, tau, dtype=np.float32, **kwargs)
    assert all(dtypes == {np.dtype(np.float32)} for dtypes in tapes)
    if case == "star":
        assert len(tapes) > 1 + 2 * len(populations)
    assert isinstance(loss, float)
    assert [np.asarray(g).dtype for g in grads] == [np.dtype(np.float64)] * len(grads)
    assert [np.shape(g) for g in grads] == [np.shape(p) for p in model.parameters()]
    assert loss == pytest.approx(want_loss, rel=1e-6)
    got = np.concatenate([np.ravel(g) for g in grads])
    want = np.concatenate([np.ravel(g) for g in want_grads])
    assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


def test_float32_tapes_leave_the_nets_float64():
    model = build_model(dim=2, seed=33, with_interaction=True, with_internal=True, hidden=(6,))
    before = [p.copy() for p in model.parameters()]
    rng = _rng(39)
    x0, x1 = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    loss_and_param_gradient(
        model, x0, x1, np.full(8, 0.125), 0.1, scores=rng.normal(size=(8, 2)),
        populations=[(rng.normal(size=(5, 2)), np.full(5, 0.2))], dtype=np.float32,
    )
    for p, q in zip(model.parameters(), before):
        assert p.dtype == np.float64
        np.testing.assert_array_equal(p, q)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_only_advances_step():
    p = np.array([1.0, -2.0])
    state = AdamState.for_params([p])
    adam_step(state, [p], [np.zeros(2)])
    np.testing.assert_array_equal(p, [1.0, -2.0])
    assert state.step == 1


def test_adam_matches_scalar_recursion_oracle():
    p = np.array([1.0])
    state = AdamState.for_params([p], lr=1e-3)
    g = np.array([2.0])
    # hand-iterated textbook recursion
    m = v = 0.0
    q = 1.0
    for t in range(1, 6):
        adam_step(state, [p], [g.copy()])
        m = 0.9 * m + 0.1 * 2.0
        v = 0.999 * v + 0.001 * 4.0
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        q -= 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p[0] == pytest.approx(q, rel=1e-14)
    assert state.step == 5


def test_adam_clips_global_norm_before_moments():
    p = np.array([0.0, 0.0])
    state = AdamState.for_params([p])
    g = np.array([12.0, 16.0])  # norm 20, clip 10 halves it
    adam_step(state, [p], [g])
    np.testing.assert_allclose(state.first, 0.1 * g / 2, rtol=1e-15)
    np.testing.assert_allclose(state.second, 0.001 * (g / 2) ** 2, rtol=1e-15)
    np.testing.assert_array_equal(g, [12.0, 16.0])  # caller's array untouched


def test_adam_clip_uses_joint_norm_across_params():
    p1, p2 = np.zeros(1), np.zeros(1)
    state = AdamState.for_params([p1, p2])
    adam_step(state, [p1, p2], [np.array([12.0]), np.array([16.0])])
    np.testing.assert_allclose(state.first, [0.6, 0.8], rtol=1e-15)


def test_adam_no_clip_below_threshold():
    p = np.zeros(1)
    state = AdamState.for_params([p])
    adam_step(state, [p], [np.array([9.0])])
    np.testing.assert_allclose(state.first, [0.9], rtol=1e-15)


def test_adam_descends_quadratic_toy_objective():
    p = np.array([3.0, -4.0])
    state = AdamState.for_params([p], lr=1e-3)
    before = float((p**2).sum())
    adam_step(state, [p], [2.0 * p])
    assert float((p**2).sum()) < before


def _reference_adam(params, grads_seq, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, clip_norm=10.0):
    # Adam array by array, as the optimizer was written before its moments
    # became flat vectors
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    for step, grads in enumerate(grads_seq, start=1):
        total = np.sqrt(sum(float((g**2).sum()) for g in grads))
        if total > clip_norm:
            grads = [g * (clip_norm / total) for g in grads]
        correction1 = 1.0 - beta1**step
        correction2 = 1.0 - beta2**step
        for p, g, m, v in zip(params, grads, first, second):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g**2
            p -= lr * (m / correction1) / (np.sqrt(v / correction2) + eps)
    return first, second


@pytest.mark.parametrize("scale, clipped", [(0.1, 0), (100.0, 50)])
def test_flat_adam_matches_a_per_array_loop(scale, clipped):
    rng = _rng(38)
    shapes = [(4, 3), (5,), ()]
    start = [np.array(rng.normal(size=shape)) for shape in shapes]
    grads_seq = [[scale * rng.normal(size=shape) for shape in shapes] for _ in range(50)]
    params = [p.copy() for p in start]
    state = AdamState.for_params(params)
    clips = 0
    for grads in grads_seq:
        clips += np.sqrt(sum(float((g**2).sum()) for g in grads)) > state.clip_norm
        adam_step(state, params, grads)
    assert clips == clipped
    assert state.step == 50
    want_params = [p.copy() for p in start]
    want_first, want_second = _reference_adam(want_params, grads_seq)
    # the moments are flat vectors over the parameters' entries, in order
    want_moments = [np.concatenate([np.ravel(m) for m in ms]) for ms in (want_first, want_second)]
    for got, want in zip(params + [state.first, state.second], want_params + want_moments):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("with_interaction,with_internal,timed", [
    (False, False, False),
    (True, True, False),
    (False, True, True),
])
def test_checkpoint_json_round_trip(with_interaction, with_internal, timed):
    model = build_model(
        dim=2, seed=13, with_interaction=with_interaction,
        with_internal=with_internal, time_conditioned=timed, hidden=(4, 3),
    )
    blob = json.loads(json.dumps(model.to_json()))
    clone = MlpEnergyModel.from_json(blob)
    assert clone.time_conditioned == timed
    assert clone.beta == model.beta
    x = _rng(21).normal(size=(5, model.potential_net.input_dim))
    np.testing.assert_array_equal(forward(clone.potential_net, x), forward(model.potential_net, x))
    if with_interaction:
        y = x[:, :2]
        np.testing.assert_array_equal(
            forward(clone.interaction_net, y), forward(model.interaction_net, y)
        )
    else:
        assert clone.interaction_net is None
