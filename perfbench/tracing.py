"""Spans around jkoflow's layer functions, for the traced benchmark run.

While a ``Tracer`` is active, each traced function is replaced by a wrapper
at the name its callers look it up by (``jkoflow.trainer.fit_gmm``,
``jkoflow.nn.score``, ``jkoflow.ot.solve_exact`` ...); leaving the context
puts the originals back.  The program's source is not touched.  Spans are
kept in memory: name, start, end, parent and per-call counts.  A span's self
time is its duration minus the time its child spans cover.  Tracing assumes
one thread, as the benchmark runs the pipeline.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jkoflow import datagen, linear_solver, measures, nn, ot, trainer

# layer -> the counts it reports besides calls and self_s
LAYERS = {
    "datagen.generate": (),
    "datagen.interaction_gradient_mean": ("rows",),
    "measures.save_trajectory": ("bytes",),
    "measures.load_trajectory": ("bytes",),
    "trainer.fit": (),
    "trainer.evaluate": (),
    "ot.couple_trajectory": (),
    "ot.couple_snapshots": ("failed",),
    "ot.assignment": ("rows",),
    "ot.transport_simplex": ("rows",),
    "ot.solve_sinkhorn": ("rows", "unconverged"),
    "ot.cost_matrix": ("rows",),
    "ot.emd": (),
    "density.fit_gmm": ("rows",),
    "density.score": ("rows",),
    "nn.input_gradient": ("rows", "flops"),
    "nn.gradient_and_adjoint": ("rows", "flops"),
    "nn.loss_and_param_gradient": ("rows", "flops"),
    "nn.grad_interaction_mean": ("rows",),
    "nn.adam_step": ("clipped",),
    "nn.sigmoid": ("rows",),
    "features.jacobian_features": ("rows",),
    "linear_solver.accumulate": (),
    "linear_solver.build_row": (),
    "linear_solver.solve": (),
    "linear_solver.grad_interaction_mean": ("rows",),
}

UNITS = {"self_s": "s", "bytes": "B", "flops": "flop"}  # every other stat is a count


def _rows(x) -> int:
    return np.atleast_2d(x).shape[0]


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _products(mlp) -> list[int]:
    """Flops of one row through each layer's matrix product, 2 * in * out."""
    return [2 * w.shape[0] * w.shape[1] for w in mlp.weights]


def _input_gradient_flops(mlp, rows: int) -> int:
    # forward products, then one product per layer walking back
    return 2 * rows * sum(_products(mlp))


def _adjoint_flops(mlp, rows: int) -> int:
    # the two primal passes, two products per layer for the input-gradient
    # adjoint, then the forward-chain adjoint: a weight product for every
    # hidden layer and an input product for all but the first
    per = _products(mlp)
    return rows * (4 * sum(per) + sum(per[:-1]) + sum(per[1:-1]))


def _adam_clipped(a, _result) -> dict:
    total = np.sqrt(sum(float((g**2).sum()) for g in a["grads"]))
    return {"clipped": int(total > a["state"].clip_norm)}


def _solve_exact_name(a) -> str:
    # the path solve_exact takes, by its own rule
    src, tgt = a["source"], a["target"]
    uniform = ot._is_uniform(src.weights) and ot._is_uniform(tgt.weights)
    if src.n_particles == tgt.n_particles and uniform:
        return "ot.assignment"
    return "ot.transport_simplex"


# (span name or namer, [(owner, attribute) the callers look it up by], counts)
def _sites():
    def pairs(kernel: str):
        # models without the interaction term return zeros without pairing
        def count(a, _result):
            live = getattr(a["self"], kernel) is not None
            return {"rows": _rows(a["x"]) * a["points"].shape[0] if live else 0}

        return count

    return [
        ("datagen.generate", [(datagen, "generate")], None),
        (
            "datagen.interaction_gradient_mean",
            [(datagen, "interaction_gradient_mean")],
            lambda a, r: {"rows": a["points"].shape[0] * a["population"].shape[0]},
        ),
        (
            "measures.save_trajectory",
            [(measures, "save_trajectory")],
            lambda a, r: {"bytes": _dir_bytes(a["directory"])},
        ),
        (
            "measures.load_trajectory",
            [(measures, "load_trajectory")],
            lambda a, r: {"bytes": _dir_bytes(a["directory"])},
        ),
        ("trainer.fit", [(trainer, "fit")], None),
        ("trainer.evaluate", [(trainer, "evaluate")], None),
        ("ot.couple_trajectory", [(ot, "couple_trajectory")], None),
        ("ot.couple_snapshots", [(ot, "couple_snapshots")], None),
        (_solve_exact_name, [(ot, "solve_exact")], lambda a, r: {"rows": a["source"].n_particles}),
        (
            "ot.solve_sinkhorn",
            [(ot, "solve_sinkhorn")],
            lambda a, r: {"rows": a["source"].n_particles, "unconverged": int(not r.converged)},
        ),
        ("ot.cost_matrix", [(ot, "cost_matrix")], lambda a, r: {"rows": _rows(a["x"])}),
        ("ot.emd", [(ot, "emd")], None),
        ("density.fit_gmm", [(trainer, "fit_gmm")], lambda a, r: {"rows": _rows(a["points"])}),
        (
            "density.score",
            [(nn, "score"), (linear_solver, "score")],
            lambda a, r: {"rows": _rows(a["x"])},
        ),
        (
            "nn.input_gradient",
            [(nn, "input_gradient")],
            lambda a, r: {
                "rows": _rows(a["x"]),
                "flops": _input_gradient_flops(a["mlp"], _rows(a["x"])),
            },
        ),
        (
            "nn.gradient_and_adjoint",
            [(nn, "gradient_and_adjoint")],
            lambda a, r: {"rows": _rows(a["x"]), "flops": _adjoint_flops(a["mlp"], _rows(a["x"]))},
        ),
        (
            "nn.loss_and_param_gradient",
            [(trainer, "loss_and_param_gradient")],
            lambda a, r: {"rows": _rows(a["x_end"])},
        ),
        (
            "nn.grad_interaction_mean",
            [(nn.MlpEnergyModel, "grad_interaction_mean")],
            pairs("interaction_net"),
        ),
        ("nn.adam_step", [(trainer, "adam_step")], _adam_clipped),
        ("nn.sigmoid", [(nn, "sigmoid")], lambda a, r: {"rows": _rows(a["z"])}),
        (
            "features.jacobian_features",
            [(linear_solver, "jacobian_features")],
            lambda a, r: {"rows": _rows(a["x"])},
        ),
        ("linear_solver.accumulate", [(linear_solver, "accumulate")], None),
        ("linear_solver.build_row", [(linear_solver, "build_row")], None),
        ("linear_solver.solve", [(linear_solver, "solve")], None),
        (
            "linear_solver.grad_interaction_mean",
            [(linear_solver.LinearEnergyModel, "grad_interaction_mean")],
            pairs("interaction_map"),
        ),
    ]


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    start: float
    end: float = float("nan")
    stats: dict = field(default_factory=dict)


class Tracer:
    """Records spans while active (``with tracer:``)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if callable(name) or counts is not None:
                bound = signature.bind(*args, **kwargs).arguments
            span = Span(
                name(bound) if callable(name) else name,
                self._open[-1] if self._open else -1,
                0.0,
            )
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.stats["failed"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.stats.update(counts(bound, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, owners, counts in _sites():
            original = getattr(*owners[0])
            traced = self._wrap(name, original, counts)
            for owner, attr in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def child_seconds(spans: list[Span]) -> list[float]:
    """For each span, the summed duration of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return covered


def accounting_errors(spans: list[Span]) -> list[str]:
    """Malformed parent links, negative self times, and parents whose
    children sum to more than the parent."""
    errors = []
    covered = child_seconds(spans)
    for i, span in enumerate(spans):
        if span.parent >= i or span.parent < -1:
            errors.append(f"span {i} ({span.name}) has parent {span.parent}")
            continue
        if span.parent >= 0:
            outer = spans[span.parent]
            if span.start < outer.start or span.end > outer.end:
                errors.append(f"span {i} ({span.name}) lies outside its parent {outer.name}")
        duration = span.end - span.start
        if duration < 0 or covered[i] > duration:
            errors.append(
                f"span {i} ({span.name}): duration {duration:.3e}s, children {covered[i]:.3e}s"
            )
    return errors


def layer_table(spans: list[Span]) -> dict[str, float]:
    """``<layer>.<stat>`` for every layer in LAYERS, zero where not called.

    ``nn.loss_and_param_gradient.flops`` is the flops of the net passes it
    makes, summed over its descendant spans.
    """
    table = {}
    for layer, stats in LAYERS.items():
        for stat in ("calls", "self_s") + stats:
            table[f"{layer}.{stat}"] = 0.0 if stat == "self_s" else 0
    covered = child_seconds(spans)
    subtree_flops = [span.stats.get("flops", 0) for span in spans]
    for i in range(len(spans) - 1, -1, -1):  # children come after their parent
        if spans[i].parent >= 0:
            subtree_flops[spans[i].parent] += subtree_flops[i]
    for i, span in enumerate(spans):
        table[f"{span.name}.calls"] += 1
        table[f"{span.name}.self_s"] += (span.end - span.start) - covered[i]
        stats = dict(span.stats)
        if span.name == "nn.loss_and_param_gradient":
            stats["flops"] = subtree_flops[i]
        for stat, value in stats.items():
            key = f"{span.name}.{stat}"
            if key in table:
                table[key] += value
    return table


def unit(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


def fit_coverage(spans: list[Span]) -> float:
    """Share of trainer.fit time covered by its child spans."""
    covered = child_seconds(spans)
    total = inside = 0.0
    for i, span in enumerate(spans):
        if span.name == "trainer.fit":
            total += span.end - span.start
            inside += covered[i]
    return inside / total if total else float("nan")
