#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for jkoflow.

    python3 perfbench/run.py --workload lightspeed_mlp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from any directory of a checkout; the program is imported from the
checkout's ``src/``.  An untraced run (``--trace 0``) repeats instances of the
workload, each made from a seed derived from ``--seed``, one at a time (a
closed loop with one client) until ``--seconds`` are spent, and reports
medians over the instances.  A traced run (``--trace 1``) runs the first
instance untraced, then traced, then traced again in a child process with
``OPENBLAS_NUM_THREADS=1``, and reports per-layer numbers.  Report lines come
first; the last line of standard output is one JSON object with the metrics
that BENCHMARK.json names for the mode.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the end-to-end metrics of a workload, all lower-is-better
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "evaluate_s": "s",
    "couple_s": "s",
    "peak_rss_mb": "MB",
    "mean_emd": "model",
    "beta_abs_err": "model",
    "final_loss": "model",
    "error_rate": "ratio",
}


def _openblas_threads() -> int | None:
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(load_1m: float) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m_at_start": load_1m,
    }


def _child(args, mode: str, extra_env: dict | None = None) -> dict:
    """Run this script in a child process; returns the JSON of its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--child", mode]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **(extra_env or {}))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _number(value: float) -> float | None:
    return None if value != value else value  # NaN -> null


def _print_failures(ledger) -> None:
    for op in ledger.ops:
        if op.error is not None:
            print(f"failed  {op.label}: {op.error}")
    print(f"operations attempted {ledger.attempted}, failed {ledger.failed}")


def _result_line(ledger, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _contract_metrics(kind: str, table: dict[str, float], units) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json lists under ``kind``, read from the table."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]
    return {name: (table[name], units(name)) for name in names}


def measure(args, w, workdir: Path) -> None:
    from workloads import Ledger, instance_seed, run_instance

    ledger = Ledger()
    setup = []
    for k in range(SETUP_REPEATS):
        _, sample = ledger.run(f"setup child {k}", lambda: _child(args, "setup")["setup_s"])
        if sample is not None:
            setup.append(sample)

    warm_up(w, workdir)
    samples: dict[str, list[float]] = {}
    loop_start = time.perf_counter()
    last = 0.0
    index = 0
    # start another instance only if it is expected to end within the window
    while index == 0 or time.perf_counter() - loop_start + last <= args.seconds:
        start = time.perf_counter()
        rec = run_instance(w, instance_seed(args.seed, index), workdir, ledger)
        for key, value in rec.items():
            samples.setdefault(key, []).append(value)
        last = time.perf_counter() - start
        index += 1

    table = {name: _median(samples.get(name, [])) for name in END_TO_END}
    table["setup_s"] = _median(setup)
    table["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    table["error_rate"] = ledger.failed / ledger.attempted
    applies = {"couple_s": w.sinkhorn_couple, "beta_abs_err": w.beta > 0}

    print(f"workload {w.name} seed {args.seed}: {index} instances, closed loop, one client")
    for name, unit in END_TO_END.items():
        values = setup if name == "setup_s" else samples.get(name, [])
        if not applies.get(name, True):
            print(f"metric  {name:<13} n/a {unit} (lower is better)")
            continue
        spread = f" [min {min(values):.6g}, max {max(values):.6g}, n={len(values)}]" if values else ""
        print(f"metric  {name:<13} {table[name]:.6g} {unit} (lower is better){spread}")
    if "zero_drift_emd" in samples:
        print(f"check   mean_emd vs zero-drift predictor: {_median(samples['zero_drift_emd']):.6g}")
    _print_failures(ledger)
    print(_result_line(ledger, _contract_metrics("end_to_end", table, END_TO_END.get)))


def warm_up(w, workdir: Path) -> None:
    """One untimed instance at full size but a single epoch, so lazy set-up
    and first-touch allocation of the large arrays happen before timing."""
    from workloads import Ledger, run_instance

    run_instance(dataclasses.replace(w, epochs=1), 0, workdir, Ledger())


def traced_instance(args, w, workdir: Path, ledger, tracer) -> dict:
    from workloads import instance_seed, run_instance

    return run_instance(w, instance_seed(args.seed, 0), workdir, ledger, tracer)


def trace(args, w, workdir: Path, env: dict) -> None:
    import tracing
    from workloads import Ledger

    ledger = Ledger()
    warm_up(w, workdir)
    plain = traced_instance(args, w, workdir, ledger, None)
    tracer = tracing.Tracer()
    traced = traced_instance(args, w, workdir, ledger, tracer)
    _, single = ledger.run(
        "single-thread baseline", lambda: _child(args, "trace", {"OPENBLAS_NUM_THREADS": "1"})
    )

    for key in ("mean_emd", "final_loss"):
        ledger.verify(f"traced {key} identical to untraced", plain.get(key) == traced.get(key),
                      f"traced {traced.get(key)!r} != untraced {plain.get(key)!r}")
    errors = tracing.accounting_errors(tracer.spans)
    ledger.verify("trace accounting", not errors, "; ".join(errors[:3]))

    table = tracing.layer_table(tracer.spans)
    table["ot.solves_per_transition"] = traced.get("solves_per_transition", float("nan"))
    table["trace.fit_overhead_s"] = traced.get("fit_s", float("nan")) - plain.get("fit_s", float("nan"))
    table["trace.fit_coverage"] = tracing.fit_coverage(tracer.spans)
    single = single or {}
    table["single_thread.fit_s"] = single.get("fit_s", float("nan"))
    table["single_thread.evaluate_s"] = single.get("evaluate_s", float("nan"))
    units = {"ot.solves_per_transition": "ratio", "trace.fit_overhead_s": "s",
             "trace.fit_coverage": "ratio", "single_thread.fit_s": "s",
             "single_thread.evaluate_s": "s"}

    def unit(name: str) -> str:
        return units.get(name) or tracing.unit(name)

    print(f"workload {w.name} seed {args.seed}: traced run of instance 0, {len(tracer.spans)} spans")
    print(f"trace   fit_s untraced {plain.get('fit_s', float('nan')):.6g} s, "
          f"traced {traced.get('fit_s', float('nan')):.6g} s, "
          f"single-thread traced {table['single_thread.fit_s']:.6g} s")
    single_layers = single.get("layers", {})
    for name, value in table.items():
        if value or name.endswith(".calls"):
            one = single_layers.get(name)
            extra = f"   (OPENBLAS_NUM_THREADS=1: {one:.6g})" if name.endswith("self_s") and one else ""
            print(f"layer   {name:<45} {value:.6g} {unit(name)}{extra}")
    _print_failures(ledger)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{w.name}_seed{args.seed}.json"
    spans = [[s.name, s.start, s.end, s.parent, s.stats] for s in tracer.spans]
    path.write_text(json.dumps({"workload": w.name, "seed": args.seed, "env": env, "spans": spans}))
    print(f"spans written to {path.relative_to(ROOT)}")
    print(_result_line(ledger, _contract_metrics("per_layer", table, unit)))


def child(args, w, workdir: Path, import_start: float) -> None:
    """Work done in a child process; prints one JSON line."""
    if args.child == "setup":
        from workloads import instance_seed, make_data

        make_data(w, instance_seed(args.seed, 0), workdir)
        print(json.dumps({"setup_s": time.perf_counter() - import_start}))
        return
    import tracing
    from workloads import Ledger

    ledger = Ledger()
    tracer = tracing.Tracer()
    warm_up(w, workdir)
    rec = traced_instance(args, w, workdir, ledger, tracer)
    table = tracing.layer_table(tracer.spans)
    layers = {k: v for k, v in table.items() if k.endswith(".self_s")}
    print(json.dumps({"fit_s": rec.get("fit_s"), "evaluate_s": rec.get("evaluate_s"),
                      "failed": ledger.failed, "layers": layers}))


def run_all(args) -> int:
    """The four workloads of ALL_WORKLOADS, each in its own process."""
    from workloads import ALL_WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ALL_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="run each workload at a tiny size")
    parser.add_argument("--child", choices=("setup", "trace"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "jkoflow" / "__init__.py").is_file():
        print(f"error: no jkoflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import_start = time.perf_counter()
    from workloads import WORKLOADS  # imports jkoflow, numpy and scipy

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload].tiny() if args.tiny else WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.child:
            child(args, w, workdir, import_start)
            return 0
        import jkoflow

        if Path(jkoflow.__file__).resolve().parent != SRC / "jkoflow":
            print(f"error: imported jkoflow from {jkoflow.__file__}, not {SRC}", file=sys.stderr)
            return 2
        env = environment(load_1m)
        print("env     " + json.dumps(env))
        if args.trace:
            trace(args, w, workdir, env)
        else:
            measure(args, w, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
