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

The passes do only the work a gradient reads.  No gradient reads the net's
value, so they compute neither the output nor the last hidden layer's
softplus, only that layer's sigmoid; the scalar output's weight row W^L
enters as a row broadcast over the batch, and its own gradient is the
column sums of its cotangent.  ``forward`` and ``_forward_cache`` still run
the whole net: they are the reference that the tests difference.  Each pass
takes its batch-sized arrays from one allocation (``_Slab``).

Architecture: affine layers with softplus hidden activations and a linear
scalar output.  Weights start Gaussian with std sqrt(1/fan_in), biases zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import prod

import numpy as np

from .density import score  # noqa: F401 - unused; perfbench's tracer looks up nn.score
from .measures import pair_chunks, pairwise_mean

HIDDEN_WIDTHS = (64, 64)

# rows per block of the fused activation, so its temporaries stay small
ACTIVATION_BLOCK_ROWS = 2048


def softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) computed without overflow on either tail
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _exp_neg_abs(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.abs(z, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def _sigmoid_from_exp(
    z: np.ndarray, e: np.ndarray, out: np.ndarray | None = None, den: np.ndarray | None = None
) -> np.ndarray:
    # sigmoid(z) given e = exp(-|z|): 1/(1+e) for z >= 0, e/(1+e) below, so
    # neither tail overflows.  As e <= 1, max(e, z >= 0) is that numerator
    # without a branch, and NaN stays NaN.  ``out`` may be z itself and
    # ``den``, which receives 1 + e, may be e itself.
    num = np.maximum(e, z >= 0, out=out)
    return np.divide(num, np.add(e, 1.0, out=den), out=out)


def sigmoid(z: np.ndarray) -> np.ndarray:
    return _sigmoid_from_exp(z, np.exp(-np.abs(z)))


def _softplus_and_sigmoid_over(z: np.ndarray, sigs: np.ndarray, buffer: np.ndarray) -> None:
    """sigmoid(z) into ``sigs`` and softplus(z) over z, for a 2-d z, bit for
    bit, from one exp(-|z|) per row block; ``buffer`` is flat and holds two
    blocks."""
    for start in range(0, z.shape[0], ACTIVATION_BLOCK_ROWS):
        rows = slice(start, start + ACTIVATION_BLOCK_ROWS)
        block = z[rows]
        n = block.size
        e = _exp_neg_abs(block, out=buffer[:n].reshape(block.shape))
        _sigmoid_from_exp(block, e, out=sigs[rows], den=buffer[n : 2 * n].reshape(block.shape))
        np.maximum(block, 0.0, out=block)
        block += np.log1p(e, out=e)


def _sigmoid_over(z: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """sigmoid(z) over a 2-d z, bit for bit; ``buffer`` is flat and holds
    one row block."""
    for start in range(0, z.shape[0], ACTIVATION_BLOCK_ROWS):
        block = z[start : start + ACTIVATION_BLOCK_ROWS]
        e = _exp_neg_abs(block, out=buffer[: block.size].reshape(block.shape))
        _sigmoid_from_exp(block, e, out=block, den=e)
    return z


def _buffer_size(rows: int, widths: list[int]) -> int:
    # the two row blocks of the widest layer that the activations work in
    return 2 * min(rows, ACTIVATION_BLOCK_ROWS) * max(widths, default=0)


def _softplus_and_sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(z) and sigmoid(z) for a 2-d z, bit for bit, from one
    exp(-|z|).  Beside z only the two outputs are as large as z."""
    acts = z.copy()
    sigs = np.empty_like(z)
    _softplus_and_sigmoid_over(acts, sigs, np.empty(_buffer_size(z.shape[0], [z.shape[1]])))
    return acts, sigs


class _Slab:
    """The batch-sized float64 arrays of one pass, cut in turn from a single
    allocation.

    glibc serves a large request by mmap and, when such a block is freed,
    lifts its mmap threshold to that block's size and its trim threshold to
    twice that.  A pass whose arrays come and go as one block is then served
    from the heap without trimming it.  Separate arrays, each a fraction of
    the pass's total, left the thresholds low: the heap was trimmed after
    every pair block and its pages faulted in again on the next one.
    """

    def __init__(self, size: int) -> None:
        self._flat = np.empty(size)
        self.used = 0

    def take(self, *shape: int) -> np.ndarray:
        start, self.used = self.used, self.used + prod(shape)
        return self._flat[start : self.used].reshape(shape)


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


def _hidden_widths(mlp: Mlp) -> tuple[list[int], int, int]:
    """Hidden widths, and the entries per batch row of the A^l (all but the
    last hidden layer) and of the S^l (all hidden layers)."""
    widths = [w.shape[0] for w in mlp.weights[:-1]]
    return widths, sum(widths[:-1]), sum(widths)


def _hidden_sigmoids(
    mlp: Mlp, xb: np.ndarray, slab: _Slab, activations: list[np.ndarray]
) -> list[np.ndarray]:
    """Sigmoids S^l = sigmoid(Z^l) of the hidden layers for a 2-d batch, in
    arrays taken from ``slab``.

    The hidden layers' inputs A^0 = xb, A^1, ... are appended to
    ``activations``; A^l = softplus(Z^l) is written over Z^l.  The last
    hidden layer's softplus would feed only the net's value, which no
    gradient reads, so that layer computes its sigmoid alone, over its Z.
    """
    rows = xb.shape[0]
    widths, _, _ = _hidden_widths(mlp)
    buffer = slab.take(_buffer_size(rows, widths))
    sigmoids = []
    a = xb
    for l, (w, b) in enumerate(zip(mlp.weights[:-1], mlp.biases[:-1])):
        activations.append(a)
        z = np.matmul(a, w.T, out=slab.take(rows, w.shape[0]))
        z += b
        if l == len(widths) - 1:
            sigmoids.append(_sigmoid_over(z, buffer))
        else:
            sigmoids.append(slab.take(rows, w.shape[0]))
            _softplus_and_sigmoid_over(z, sigmoids[-1], buffer)
            a = z
    return sigmoids


def _constant_gradient(mlp: Mlp, rows: int) -> np.ndarray:
    # a net without hidden layers is affine: its gradient is the weight row
    return np.repeat(mlp.weights[0], rows, axis=0)


def input_gradient(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """d(output)/d(input), shape matching x."""
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    rows = xb.shape[0]
    widths, inner, total = _hidden_widths(mlp)
    activations: list[np.ndarray] = []
    sigmoids = _hidden_sigmoids(
        mlp, xb, _Slab(rows * (inner + total) + _buffer_size(rows, widths)), activations
    )
    # Q^L = W^L, then Q^l = (Q^{l+1} * S^l) W^l; the product is written over
    # S^l and Q^l over A^{l-1}, which nothing reads again
    q = mlp.weights[-1]
    for l in range(len(widths), 0, -1):
        p = np.multiply(sigmoids[l - 1], q, out=sigmoids[l - 1])
        w = mlp.weights[l - 1]
        q = p @ w if l == 1 else np.matmul(p, w, out=activations[l - 1])
    g = q if widths else _constant_gradient(mlp, rows)
    return g[0] if np.asarray(x).ndim == 1 else g


def _tape(mlp: Mlp, xb: np.ndarray):
    """Input gradients G of a 2-d batch, and the pullback
    cot -> (d_weights, d_biases) of sum_b <cot_b, G_b>.

    The pullback closes over this pass's activations, sigmoids and P/Q
    arrays, so they stay alive as long as it does; see
    ``gradient_and_adjoint`` for the equations.  Its own batch-sized arrays
    come from the tape's slab too, so a loss call allocates one block per
    net; a second call overwrites them, but returns fresh gradients.
    """
    n_layers = len(mlp.weights)
    rows = xb.shape[0]
    widths, inner, total = _hidden_widths(mlp)
    # forward A, S; backward P, Q; pullback Pbar (then Sbar), Qbar and Abar
    slab = _Slab(rows * (3 * inner + 4 * total) + _buffer_size(rows, widths))
    activations: list[np.ndarray] = []
    sigmoids = _hidden_sigmoids(mlp, xb, slab, activations)

    ps: list[np.ndarray | None] = [None] * n_layers
    qs: list[np.ndarray | None] = [None] * (n_layers + 1)
    q = mlp.weights[-1]  # Q^L: the output row, broadcast over the batch
    for l in range(n_layers - 1, 0, -1):
        qs[l + 1] = q
        ps[l] = np.multiply(q, sigmoids[l - 1], out=slab.take(rows, widths[l - 1]))
        w = mlp.weights[l - 1]
        q = ps[l] @ w if l == 1 else np.matmul(ps[l], w, out=slab.take(rows, w.shape[1]))
    grads = q if widths else _constant_gradient(mlp, rows)

    forward_used = slab.used

    def pullback(cot: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        slab.used = forward_used  # every call takes the same arrays
        d_weights: list[np.ndarray] = [None] * n_layers
        d_biases: list[np.ndarray] = [None] * n_layers
        s_bars: list[np.ndarray | None] = [None] * n_layers
        q_bars: list[np.ndarray | None] = [None] * n_layers
        q_bar = cot
        for l in range(1, n_layers):
            w = mlp.weights[l - 1]
            d_weights[l - 1] = ps[l].T @ q_bar
            p_bar = np.matmul(q_bar, w.T, out=slab.take(rows, w.shape[0]))
            q_bar = q_bars[l] = np.multiply(p_bar, sigmoids[l - 1], out=slab.take(*p_bar.shape))
            s_bars[l] = np.multiply(p_bar, qs[l + 1], out=p_bar)
        d_weights[-1] = q_bar.sum(axis=0, keepdims=True)  # the column sums of Qbar^L
        d_biases[-1] = np.zeros_like(mlp.biases[-1])

        a_bar = None
        for l in range(n_layers - 1, 0, -1):
            s = sigmoids[l - 1]
            z_bar = np.multiply(s_bars[l], s, out=s_bars[l])
            z_bar *= np.subtract(1.0, s, out=q_bars[l])  # Qbar^{l+1} is spent
            if a_bar is not None:
                z_bar += np.multiply(a_bar, s, out=a_bar)
            d_weights[l - 1] += z_bar.T @ activations[l - 1]
            d_biases[l - 1] = z_bar.sum(axis=0)
            if l > 1:
                w = mlp.weights[l - 1]
                a_bar = np.matmul(z_bar, w, out=slab.take(rows, w.shape[1]))
        return d_weights, d_biases

    return grads, pullback


def gradient_and_adjoint(
    mlp: Mlp, x: np.ndarray, cotangent: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Input gradients G plus parameter gradients of sum_b <cotangent_b, G_b>:
    one ``_tape`` over the batch, then its pullback of ``cotangent``.

    With W^L the (1, h) output row, broadcast over the batch, the tape
    records the pair of passes
        forward:   Z^l = A^{l-1} W^l^T + b^l,  S^l = sigmoid(Z^l),
                   A^l = softplus(Z^l)  for l < L - 1
        backward:  Q^L = W^L,  P^l = Q^{l+1} * S^l,  Q^l = P^l W^l,
                   G = Q^1
    and keeps A, S, P and Q.  No gradient reads the net's value, so neither
    A^{L-1} nor the output is computed.  The pullback differentiates that
    graph in reverse for phi = <cotangent, G>:
        Qbar^1 = cotangent
        Wbar^l = P^l^T Qbar^l,   Pbar^l = Qbar^l W^l^T,
        Sbar^l = Pbar^l * Q^{l+1},  Qbar^{l+1} = Pbar^l * S^l
    ascending l < L, with the output row's gradient Wbar^L = sum_b Qbar^L
    (the column sums), then descending through the forward chain:
        Zbar^l = Sbar^l * S^l (1 - S^l) + Abar^l * S^l
        Wbar^l += Zbar^l^T A^{l-1},  bbar^l = sum_b Zbar^l,
        Abar^{l-1} = Zbar^l W^l
    and bbar^L = 0.  A net with no hidden layer has G = W^1 on every row
    and Wbar^1 = sum_b cotangent.
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
    """Adam moments for a fixed list of parameter arrays.

    Each moment is one flat vector over the parameters' entries, in order, so
    a step makes the same numpy calls however many arrays there are;
    ``first`` and ``second`` are per-parameter views into those vectors.
    """

    first: list[np.ndarray]
    second: list[np.ndarray]
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 10.0
    _first_flat: np.ndarray = field(init=False, repr=False)
    _second_flat: np.ndarray = field(init=False, repr=False)
    _slices: list[slice] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ends = np.cumsum([np.size(m) for m in self.first]).tolist()
        self._slices = [slice(end - np.size(m), end) for m, end in zip(self.first, ends)]
        self._first_flat = np.concatenate([np.ravel(m) for m in self.first])
        self._second_flat = np.concatenate([np.ravel(v) for v in self.second])
        self.first = self._views(self._first_flat, self.first)
        self.second = self._views(self._second_flat, self.second)

    def _views(self, flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
        return [flat[sl].reshape(np.shape(a)) for sl, a in zip(self._slices, like)]

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
    unclipped spike.  The gradients are concatenated once, the moment and
    step arithmetic runs on the flat vectors, and each parameter then takes
    its slice of the step."""
    g = np.concatenate([np.ravel(grad) for grad in grads])
    total = np.sqrt(g @ g)
    if total > state.clip_norm:
        g *= state.clip_norm / total
    state.step += 1
    correction1 = 1.0 - state.beta1**state.step
    correction2 = 1.0 - state.beta2**state.step
    m, v = state._first_flat, state._second_flat
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    g *= g
    g *= 1.0 - state.beta2
    v += g
    step = state.lr * (m / correction1)
    step /= np.sqrt(v / correction2) + state.eps
    for p, update in zip(params, state._views(step, params)):
        p -= update
