"""Small dense networks whose INPUT gradient is the learned quantity.

The fitting objective penalizes a residual built from gradients of the
networks, so training needs d(loss)/d(parameters) of expressions containing
d(net)/d(input).  Rather than pulling in an autodiff framework, the two-pass
computation (forward pass, then input-gradient backward pass) is written out
as explicit primitives and reverse-differentiated by hand.  ``_tape`` runs
both passes once over a batch and returns the input gradients together with
a pullback that maps a cotangent on them to parameter gradients, reusing the
pass's activations instead of recomputing them; ``gradient_and_adjoint`` and
the fitting loss are built on it.  ``input_gradient`` runs the same passes
without keeping a tape.  Everything is float64 numpy.

Architecture: affine layers with softplus hidden activations and a linear
scalar output.  Weights start Gaussian with std sqrt(1/fan_in), biases zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .density import score  # noqa: F401 - unused; perfbench's tracer looks up nn.score
from .measures import pair_chunks, pairwise_mean

HIDDEN_WIDTHS = (64, 64)

# rows per block of the fused activation, so its temporaries stay small
ACTIVATION_BLOCK_ROWS = 2048


def softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) computed without overflow on either tail
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _sigmoid_from_exp(
    z: np.ndarray, e: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    # sigmoid(z) given e = exp(-|z|): 1/(1+e) for z >= 0, e/(1+e) below, so
    # neither tail overflows
    den = np.add(e, 1.0, out=out)
    return np.divide(np.where(z >= 0, 1.0, e), den, out=out)


def sigmoid(z: np.ndarray) -> np.ndarray:
    return _sigmoid_from_exp(z, np.exp(-np.abs(z)))


def _softplus_and_sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(z) and sigmoid(z) for a 2-d z, bit for bit, from one
    exp(-|z|).  Each row block is computed in place in the outputs, so beside
    z only the two outputs are as large as z."""
    acts = np.empty_like(z)
    sigs = np.empty_like(z)
    for start in range(0, z.shape[0], ACTIVATION_BLOCK_ROWS):
        rows = slice(start, start + ACTIVATION_BLOCK_ROWS)
        e = acts[rows]  # exp(-|z|) first, then softplus over it
        np.abs(z[rows], out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        _sigmoid_from_exp(z[rows], e, out=sigs[rows])
        np.log1p(e, out=e)
        e += np.maximum(z[rows], 0.0)
    return acts, sigs


@dataclass
class Mlp:
    """Weights (n_out, n_in) and biases per layer; scalar output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must be non-empty and aligned")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("output layer must be scalar")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def width(self) -> int:
        """Widest layer, input included: entries per row of a pass's widest array."""
        return max(max(w.shape) for w in self.weights)


def init_mlp(layer_sizes: list[int], rng: np.random.Generator) -> Mlp:
    """Fresh network for the given [in, hidden..., 1] widths."""
    if layer_sizes[-1] != 1:
        raise ValueError("last layer size must be 1")
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(1.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases)


def _forward_cache(mlp: Mlp, x: np.ndarray):
    """Activations A and hidden sigmoids S for a batch."""
    activations = [x]
    sigmoids = []
    n_layers = len(mlp.weights)
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = activations[-1] @ w.T + b
        if l < n_layers - 1:
            act, sig = _softplus_and_sigmoid(z)
            sigmoids.append(sig)
            activations.append(act)
        else:
            activations.append(z)
    return activations, sigmoids


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Scalar outputs, shape (B,)."""
    activations, _ = _forward_cache(mlp, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return activations[-1][:, 0]


def input_gradient(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """d(output)/d(input), shape matching x."""
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    # the backward pass reads only the hidden sigmoids: keep no activation
    a, sigmoids = xb, []
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        a, sig = _softplus_and_sigmoid(a @ w.T + b)
        sigmoids.append(sig)
    p = np.ones((xb.shape[0], 1))
    for l in range(len(mlp.weights) - 1, 0, -1):
        p = (p @ mlp.weights[l]) * sigmoids[l - 1]
    g = p @ mlp.weights[0]
    return g[0] if np.asarray(x).ndim == 1 else g


def _tape(mlp: Mlp, xb: np.ndarray):
    """Input gradients G of a 2-d batch, and the pullback
    cot -> (d_weights, d_biases) of sum_b <cot_b, G_b>.

    The pullback closes over this pass's activations, sigmoids and P/Q
    arrays, so they stay alive as long as it does; see
    ``gradient_and_adjoint`` for the equations.
    """
    n_layers = len(mlp.weights)
    activations, sigmoids = _forward_cache(mlp, xb)

    ps: list[np.ndarray | None] = [None] * (n_layers + 1)
    qs: list[np.ndarray | None] = [None] * (n_layers + 1)
    ps[n_layers] = np.ones((xb.shape[0], 1))
    for l in range(n_layers - 1, 0, -1):
        qs[l + 1] = ps[l + 1] @ mlp.weights[l]
        ps[l] = qs[l + 1] * sigmoids[l - 1]
    grads = ps[1] @ mlp.weights[0]

    def pullback(cot: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        d_weights = [np.zeros_like(w) for w in mlp.weights]
        d_biases = [np.zeros_like(b) for b in mlp.biases]
        d_weights[0] += ps[1].T @ cot
        p_bar = cot @ mlp.weights[0].T
        s_bar: list[np.ndarray | None] = [None] * n_layers
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


def gradient_and_adjoint(
    mlp: Mlp, x: np.ndarray, cotangent: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Input gradients G plus parameter gradients of sum_b <cotangent_b, G_b>:
    one ``_tape`` over the batch, then its pullback of ``cotangent``.

    The tape records the pair of passes
        forward:   Z^l = A^{l-1} W^l^T + b^l,  A^l = softplus(Z^l),  A^L = Z^L
        backward:  P^L = 1,  Q^{l+1} = P^{l+1} W^{l+1},  P^l = Q^{l+1} * S^l,
                   G = P^1 W^1
    with S^l = sigmoid(Z^l), and keeps A, S, P and Q.  The pullback
    differentiates that graph in reverse for phi = <cotangent, G>:
        Pbar^1 = cotangent W^1^T,            Wbar^1 += P^1^T cotangent
        Sbar^l = Pbar^l * Q^{l+1},           Qbar^{l+1} = Pbar^l * S^l
        Wbar^{l+1} += P^{l+1}^T Qbar^{l+1},  Pbar^{l+1} = Qbar^{l+1} W^{l+1}
    ascending l, then descending through the forward chain:
        Zbar^l = Sbar^l * S^l (1 - S^l) + Abar^l * S^l
        Wbar^l += Zbar^l^T A^{l-1},  bbar^l += sum_b Zbar^l,
        Abar^{l-1} = Zbar^l W^l
    (the output layer's Z carries no adjoint: phi never reads the net's value).
    """
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    cot = np.atleast_2d(np.asarray(cotangent, dtype=np.float64))
    grads, pullback = _tape(mlp, xb)
    d_weights, d_biases = pullback(cot)
    return grads, d_weights, d_biases


# ---------------------------------------------------------------------------
# the trainable energy model


@dataclass
class MlpEnergyModel:
    """Potential net, optional interaction net, optional diffusion parameter.

    ``beta_raw`` is the pre-softplus parameter (kept as a 0-d array so the
    optimizer can update it in place); the effective diffusion strength is
    softplus(beta_raw) >= 0.  ``time_conditioned`` nets take normalized time
    as one extra trailing input coordinate.
    """

    potential_net: Mlp
    interaction_net: Mlp | None = None
    beta_raw: np.ndarray | None = None
    time_conditioned: bool = False

    def __post_init__(self) -> None:
        if self.beta_raw is not None:
            self.beta_raw = np.asarray(self.beta_raw, dtype=np.float64).reshape(())

    @property
    def dim(self) -> int:
        return self.potential_net.input_dim - (1 if self.time_conditioned else 0)

    @property
    def beta(self) -> float:
        if self.beta_raw is None:
            return 0.0
        return float(softplus(self.beta_raw))

    def _with_time(self, x: np.ndarray, time_value: float | np.ndarray | None) -> np.ndarray:
        if not self.time_conditioned:
            return x
        if time_value is None:
            raise ValueError("time-conditioned model needs a time value")
        return np.hstack([x, np.broadcast_to(np.reshape(time_value, (-1, 1)), (len(x), 1))])

    def grad_potential(self, x: np.ndarray, time_value: float | None = None) -> np.ndarray:
        g = input_gradient(self.potential_net, self._with_time(np.atleast_2d(x), time_value))
        return g[:, : self.dim]

    def grad_interaction_mean(
        self, x: np.ndarray, points: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        net = self.interaction_net
        if net is None:
            return np.zeros_like(x)
        return pairwise_mean(lambda diff: input_gradient(net, diff), x, points, weights, net.width)

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays, in a fixed order the optimizer relies on."""
        params = list(self.potential_net.weights) + list(self.potential_net.biases)
        if self.interaction_net is not None:
            params += list(self.interaction_net.weights) + list(self.interaction_net.biases)
        if self.beta_raw is not None:
            params.append(self.beta_raw)
        return params

    def to_json(self) -> dict:
        def dump(net: Mlp) -> dict:
            return {
                "layer_sizes": [net.weights[0].shape[1]] + [w.shape[0] for w in net.weights],
                "weights": [w.ravel().tolist() for w in net.weights],  # row-major
                "biases": [b.tolist() for b in net.biases],
            }

        return {
            "kind": "mlp",
            "time_conditioned": self.time_conditioned,
            "potential": dump(self.potential_net),
            "interaction": dump(self.interaction_net) if self.interaction_net else None,
            "beta_raw": None if self.beta_raw is None else float(self.beta_raw),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MlpEnergyModel":
        def load(blob: dict) -> Mlp:
            sizes = blob["layer_sizes"]
            weights = [
                np.asarray(w, dtype=np.float64).reshape(n_out, n_in)
                for w, n_in, n_out in zip(blob["weights"], sizes[:-1], sizes[1:])
            ]
            biases = [np.asarray(b, dtype=np.float64) for b in blob["biases"]]
            return Mlp(weights, biases)

        return cls(
            potential_net=load(data["potential"]),
            interaction_net=load(data["interaction"]) if data.get("interaction") else None,
            beta_raw=None if data.get("beta_raw") is None else np.float64(data["beta_raw"]),
            time_conditioned=bool(data.get("time_conditioned", False)),
        )


def build_model(
    dim: int,
    seed: int,
    with_interaction: bool = False,
    with_internal: bool = False,
    time_conditioned: bool = False,
    hidden: tuple[int, ...] = HIDDEN_WIDTHS,
) -> MlpEnergyModel:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xE0,)))
    in_dim = dim + (1 if time_conditioned else 0)
    potential = init_mlp([in_dim, *hidden, 1], rng)
    interaction = init_mlp([dim, *hidden, 1], rng) if with_interaction else None
    beta_raw = np.float64(softplus_inverse(0.01)) if with_internal else None
    return MlpEnergyModel(potential, interaction, beta_raw, time_conditioned)


def softplus_inverse(y: float) -> float:
    # z with softplus(z) = y, for y > 0
    return float(np.log(np.expm1(y))) if y < 30 else y


# ---------------------------------------------------------------------------
# the fitting objective


def loss_and_param_gradient(
    model: MlpEnergyModel,
    x_start: np.ndarray,
    x_end: np.ndarray,
    masses: np.ndarray,
    tau: float,
    scores: np.ndarray | None = None,
    times: np.ndarray | None = None,
    populations: list[tuple[np.ndarray, np.ndarray]] | None = None,
    steps: np.ndarray | None = None,
    interaction_subsample: int = 0,
    subsample_rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Mass-weighted squared residual over coupled pairs, with exact parameter
    gradients.

    The residual of pair b, which ends on step ``steps[b]`` (default 0), is
        grad_V(x_end [, t]) + mean_y grad_U(x_end - y) + beta * score(x_end)
        + (x_end - x_start) / tau
    where the mean runs over ``populations[steps[b]]`` (points, weights), and
    ``scores[b]`` and ``times[b]`` are the pair's density score and time
    input: fixed data, so only the beta factor in front of the score is
    learnable.  Returns (loss, grads) with grads aligned to
    ``model.parameters()``.

    ``interaction_subsample`` > 0 replaces each step's interaction mean by a
    weighted subsample of that size, drawn from ``subsample_rng`` once per
    step in ascending step order.

    Each net runs once per call: one ``_tape`` serves both the residual and
    the parameter gradients.  The interaction net gets one tape per step and
    pair block of ``measures.pair_chunks``, whose budget bounds each of that
    tape's arrays.
    """
    x_start = np.atleast_2d(np.asarray(x_start, dtype=np.float64))
    x_end = np.atleast_2d(np.asarray(x_end, dtype=np.float64))
    masses = np.asarray(masses, dtype=np.float64)
    d = model.dim

    inputs_v = model._with_time(x_end, times)
    grad_v, pullback_v = _tape(model.potential_net, inputs_v)
    residual = grad_v[:, :d] + (x_end - x_start) / tau

    net_int = model.interaction_net
    blocks = [(slice(None), None, None)]  # without pairs, all rows are one block
    if net_int is not None:
        if populations is None:
            raise ValueError("interaction term needs the next snapshots")
        steps = np.zeros(x_end.shape[0], dtype=np.int64) if steps is None else steps
        blocks = _pair_blocks(
            x_end, steps, populations, net_int.width, interaction_subsample, subsample_rng
        )
        grads_int = [np.zeros_like(p) for p in (*net_int.weights, *net_int.biases)]

    if model.beta_raw is not None:
        if scores is None:
            raise ValueError("internal-energy term needs the score of a density estimate")
        beta = model.beta

    # Residual rows are finished and pulled back one pair block at a time, so
    # only one block's interaction tape is alive at once.
    cot = np.empty_like(residual)
    for rows, diff, pop_weights in blocks:
        if net_int is not None:
            g, pullback_int = _tape(net_int, diff)
            g = g.reshape(-1, pop_weights.shape[0], d)
            residual[rows] += np.einsum("bnd,n->bd", g, pop_weights)
        if model.beta_raw is not None:
            residual[rows] += beta * scores[rows]
        cot[rows] = 2.0 * masses[rows, None] * residual[rows]
        if net_int is not None:
            # pair (i, j) contributes weight w_j inside the mean, so its
            # cotangent is w_j * cot_i
            pair_cot = (cot[rows, None, :] * pop_weights[None, :, None]).reshape(-1, d)
            for acc, delta in zip(grads_int, chain(*pullback_int(pair_cot))):
                acc += delta
            del diff, g, pullback_int, pair_cot  # free the tape before the next block's

    loss = float(masses @ (residual**2).sum(axis=1))

    if model.time_conditioned:
        cot_v = np.hstack([cot, np.zeros((cot.shape[0], 1))])
    else:
        cot_v = cot
    dw_pot, db_pot = pullback_v(cot_v)

    grads = list(dw_pot) + list(db_pot)
    if net_int is not None:
        grads += grads_int
    if model.beta_raw is not None:
        d_beta = float((cot * scores).sum()) * float(sigmoid(model.beta_raw))
        grads.append(np.asarray(d_beta))
    return loss, grads


def _pair_blocks(x_end, steps, populations, width, subsample, rng):
    """(rows, pair differences, population weights) per block, steps ascending."""
    for t in np.unique(steps):
        group = np.flatnonzero(steps == t)
        points, weights = populations[t]
        if subsample and points.shape[0] > subsample:
            if rng is None:
                raise ValueError("interaction_subsample needs an rng")
            idx = rng.choice(points.shape[0], size=subsample, replace=False, p=weights)
            points = points[idx]
            weights = np.full(subsample, 1.0 / subsample)
        for rows, diff in pair_chunks(x_end[group], points, width):
            yield group[rows], diff, weights


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam moments for a fixed list of parameter arrays."""

    first: list[np.ndarray]
    second: list[np.ndarray]
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 10.0

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-3) -> "AdamState":
        return cls(
            first=[np.zeros_like(p) for p in params],
            second=[np.zeros_like(p) for p in params],
            lr=lr,
        )


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One in-place update.  Gradients are jointly clipped to a global norm of
    ``clip_norm`` before touching the moments, so the moments never see the
    unclipped spike."""
    total = np.sqrt(sum(float((g**2).sum()) for g in grads))
    if total > state.clip_norm:
        factor = state.clip_norm / total
        grads = [g * factor for g in grads]
    state.step += 1
    correction1 = 1.0 - state.beta1**state.step
    correction2 = 1.0 - state.beta2**state.step
    for p, g, m, v in zip(params, grads, state.first, state.second):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g**2
        m_hat = m / correction1
        v_hat = v / correction2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
