"""Command-line interface: generate, couple, train, evaluate, predict, experiment.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.  Every
flag can also be supplied through a JSON config file (``--config``); explicit
flags win over the file, the file wins over built-in defaults, and the fully
resolved configuration is echoed as ``<command>_config.json`` into the
command's output directory so runs can be reproduced from their artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import logging
import os
import sys
from pathlib import Path

from . import experiments, ot, trainer
from .datagen import SCHEMES, GenConfig, generate
from .features import polynomial_map
from .functionals import KINDS, EnergySpec, GroundTruthFunction
from .measures import load_trajectory, read_json, save_coupling, save_trajectory, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

logger = logging.getLogger("jkoflow")

_VERBOSITY = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems instead of exiting."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _jobs(given: int | None) -> int:
    """The worker count: ``given``, else ``JKO_FLOW_JOBS``, else the CPU count."""
    if given is None:
        env = os.environ.get("JKO_FLOW_JOBS")
        if not env:
            return os.cpu_count() or 1
        try:
            given = int(env)
        except ValueError as exc:
            raise _UsageError(f"JKO_FLOW_JOBS must be an integer, got {env!r}") from exc
    if given < 1:
        raise _UsageError("jobs must be >= 1")
    return given


def _flag(default=None, **kwargs) -> tuple:
    """One table entry: the key's default and its argparse keywords."""
    return default, kwargs


_BOOL = argparse.BooleanOptionalAction

_ABOUT = {
    "generate": "sample a synthetic snapshot dataset",
    "couple": "precompute optimal couplings for a dataset",
    "train": "fit an energy model to a dataset",
    "evaluate": "one-step-ahead transport error on a test set",
    "predict": "roll a fitted model forward and save the result",
    "experiment": "run one of the scripted studies",
}

# One table per subcommand, one entry per key; key ``init_low`` is the flag
# ``--init-low``.  Defaults live here, not in argparse, so config files can
# override them; a default that a config dataclass owns is read from it.
_FLAGS: dict[str, dict[str, tuple]] = {
    "generate": {
        "potential": _flag(choices=KINDS, help="ground-truth potential energy"),
        "interaction": _flag(choices=KINDS, help="ground-truth interaction energy"),
        "beta": _flag(EnergySpec.beta, type=float, help="diffusion strength (default 0)"),
        "dim": _flag(GenConfig.dim, type=int, help="state dimension"),
        "particles": _flag(GenConfig.n_particles, type=int,
                           help="total particle count (half train, half test)"),
        "steps": _flag(GenConfig.timesteps, type=int, help="number of transitions T"),
        "tau": _flag(GenConfig.tau, type=float, help="step size"),
        "init_low": _flag(GenConfig.init_low, type=float),
        "init_high": _flag(GenConfig.init_high, type=float),
        "scheme": _flag(GenConfig.scheme, choices=SCHEMES),
        "seed": _flag(type=int, help="required: generation is randomized"),
        "out": _flag(help="output directory (train/ and test/ subdirs)"),
    },
    "couple": {
        "data": _flag(help="trajectory directory (train/ subdir preferred)"),
        "ot_method": _flag(ot.OtConfig.method, choices=ot.METHODS),
        "epsilon": _flag(ot.OtConfig.epsilon, type=float, help="entropic regularization strength"),
        "max_iters": _flag(ot.OtConfig.max_iters, type=int),
        "tolerance": _flag(ot.OtConfig.tolerance, type=float),
        "batch_size": _flag(ot.OtConfig.batch_size, type=int),
        "seed": _flag(ot.OtConfig.seed, type=int, help="seed for batched coupling shuffles"),
        "jobs": _flag(type=int, help="parallel workers (env JKO_FLOW_JOBS)"),
    },
    "train": {
        "data": _flag(help="trajectory directory (train/ subdir preferred)"),
        "variant": _flag(trainer.TrainConfig.variant, choices=trainer.VARIANTS),
        "epochs": _flag(trainer.TrainConfig.epochs, type=int),
        "batch_pairs": _flag(trainer.TrainConfig.batch_pairs, type=int),
        "learning_rate": _flag(trainer.TrainConfig.learning_rate, type=float),
        "gmm_k": _flag(trainer.TrainConfig.gmm_k, type=int),
        "ridge_lambda": _flag(trainer.TrainConfig.ridge_lambda, type=float),
        "hidden": _flag(",".join(map(str, trainer.TrainConfig.hidden)),
                        help="comma-separated hidden widths, e.g. 64,64"),
        "interaction_subsample": _flag(trainer.TrainConfig.interaction_subsample, type=int),
        "pin_internal": _flag(trainer.TrainConfig.pin_internal, action=_BOOL,
                              help="drop the diffusion term even for star/star_linear"),
        "poly_degree": _flag(type=int, help="linear variants: replace the default basis "
                             "with pure per-coordinate polynomials"),
        "seed": _flag(type=int, help="required: shuffling and init are randomized"),
        "ot_method": _flag(ot.OtConfig.method, choices=ot.METHODS),
        "epsilon": _flag(ot.OtConfig.epsilon, type=float),
        "batch_size": _flag(ot.OtConfig.batch_size, type=int),
        "jobs": _flag(type=int),
        "out": _flag(help="model checkpoint path (JSON)"),
    },
    "evaluate": {
        "data": _flag(help="trajectory directory (test/ subdir preferred)"),
        "model": _flag(help="model checkpoint path"),
        "report": _flag(help="output report path (JSON)"),
        "scheme": _flag("explicit", choices=SCHEMES),
        "beta_noise": _flag(False, action=_BOOL),
        "seed": _flag(type=int, help="required with --beta-noise"),
    },
    "predict": {
        "data": _flag(help="trajectory directory providing the starting snapshot"),
        "model": _flag(help="model checkpoint path"),
        "steps": _flag(type=int, help="rollout length (default: rest of the trajectory)"),
        "from_index": _flag(0, type=int, help="starting snapshot index"),
        "scheme": _flag("explicit", choices=SCHEMES),
        "beta_noise": _flag(False, action=_BOOL),
        "seed": _flag(type=int, help="required with --beta-noise"),
        "out": _flag(help="output trajectory directory"),
    },
    "experiment": {
        # the one positional argument: the entry with nargs
        "name": _flag(nargs="?", choices=sorted(experiments.RUNNERS), help="which study to run"),
        "seed": _flag(type=int, help="required: experiments are randomized"),
        "full": _flag(False, action=_BOOL, help="large-scale grids"),
        "epochs": _flag(type=int, help="override the study's default epoch budget"),
        "potential": _flag(choices=KINDS, help="override the study's potential"),
        "interaction": _flag(choices=KINDS, help="override the study's interaction"),
        "jobs": _flag(type=int),
        "out": _flag(help="output directory for tables and reports"),
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="jko-flow", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, flags in _FLAGS.items():
        p = sub.add_parser(command, help=_ABOUT[command])
        p.add_argument("--config", help="JSON file mirroring this command's flags")
        p.add_argument(
            "--verbosity",
            choices=sorted(_VERBOSITY),
            default="info",
            help="log level for stderr output",
        )
        for key, (_, kwargs) in flags.items():
            p.add_argument(key if "nargs" in kwargs else "--" + key.replace("_", "-"), **kwargs)
    return parser


def _check_file_value(key: str, value, kwargs: dict) -> None:
    """A config-file value must have the JSON type its flag parses to."""
    if kwargs.get("action") is _BOOL:
        ok, kind = isinstance(value, bool), "true or false"
    elif kwargs.get("type") is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif kwargs.get("type") is float:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise _UsageError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise _UsageError(
            f"config key {key!r} must be one of {list(kwargs['choices'])}, got {json.dumps(value)}"
        )


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    resolved = {key: default for key, (default, _) in _FLAGS[command].items()}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise _UsageError(f"config file not found: {path}")
        try:
            file_cfg = read_json(path)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise _UsageError(f"config keys not recognized for {command}: {sorted(unknown)}")
        for key, value in file_cfg.items():
            # null leaves the key unset, as an absent flag does
            if value is not None:
                kwargs = _FLAGS[command][key][1]
                _check_file_value(key, value, kwargs)
                # typed as argparse types a flag, so an integer given for a real is a real
                resolved[key] = kwargs["type"](value) if "type" in kwargs else value
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise _UsageError(f"missing required argument(s): {flags}")


def _echo_config(cfg: dict, command: str, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / f"{command}_config.json", dict(sorted(cfg.items())))


def _trajectory_dir(data: str, prefer: str) -> Path:
    """Pick data/<prefer> when the dataset has train/test subdirectories."""
    base = Path(data)
    sub = base / prefer
    if (sub / "metadata.json").is_file():
        return sub
    if (base / "metadata.json").is_file():
        return base
    raise ValueError(f"no trajectory found under {base} (looked for {prefer}/ and .)")


# CLI keys whose config field has another name; every other key names its field
_FIELD_OF = {"particles": "n_particles", "steps": "timesteps", "ot_method": "method"}


def _build(cls, cfg: dict, **given):
    """A ``cls`` config from every set key of ``cfg`` that names one of its
    fields, with ``given`` fields taking precedence."""
    fields = {f.name for f in dataclasses.fields(cls)}
    named = {_FIELD_OF.get(k, k): v for k, v in cfg.items() if v is not None}
    return cls(**{**{f: v for f, v in named.items() if f in fields}, **given})


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_generate(cfg: dict) -> int:
    _require(cfg, "seed", "out")
    dim = cfg["dim"]
    spec = EnergySpec(
        potential=GroundTruthFunction(cfg["potential"], dim) if cfg["potential"] else None,
        interaction=GroundTruthFunction(cfg["interaction"], dim) if cfg["interaction"] else None,
        beta=cfg["beta"],
    )
    train, test = generate(_build(GenConfig, cfg, spec=spec))
    out = Path(cfg["out"])
    label = "+".join(
        filter(None, [cfg["potential"], cfg["interaction"], f"beta={cfg['beta']}"])
    )
    save_trajectory(train, out / "train", generator=label, seed=cfg["seed"])
    save_trajectory(test, out / "test", generator=label, seed=cfg["seed"])
    _echo_config(cfg, "generate", out)
    logger.info(
        "wrote %d train + %d test particles x %d snapshots to %s",
        train.snapshots[0].n_particles,
        test.snapshots[0].n_particles,
        train.n_snapshots,
        out,
    )
    return EXIT_OK


def _cmd_couple(cfg: dict) -> int:
    _require(cfg, "data")
    traj_dir = _trajectory_dir(cfg["data"], "train")
    traj = load_trajectory(traj_dir)
    couplings = ot.couple_trajectory(traj, _build(ot.OtConfig, cfg, jobs=_jobs(cfg["jobs"])))
    for coupling in couplings:
        save_coupling(coupling, traj_dir)
    _echo_config(cfg, "couple", traj_dir)
    logger.info("wrote %d coupling files to %s", len(couplings), traj_dir)
    return EXIT_OK


def _cmd_train(cfg: dict) -> int:
    _require(cfg, "data", "seed", "out")
    traj_dir = _trajectory_dir(cfg["data"], "train")
    train = load_trajectory(traj_dir)
    features = None
    if cfg["poly_degree"] is not None:
        features = polynomial_map(train.dim, cfg["poly_degree"])
    train_cfg = _build(
        trainer.TrainConfig, cfg,
        hidden=tuple(int(w) for w in cfg["hidden"].split(",") if w.strip()),
        ot=_build(ot.OtConfig, cfg, jobs=_jobs(cfg["jobs"])),
        potential_features=features,
        interaction_features=features,
    )
    result = trainer.fit(train, train_cfg)
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    trainer.save_model(
        result.model, out,
        loss_history=result.loss_history,
        couple_seconds=result.couple_seconds,
        train_seconds=result.train_seconds,
        em=[dataclasses.asdict(report) for report in result.em],
    )
    _echo_config(cfg, "train", out.parent)
    logger.info(
        "fitted %s in %.2fs (coupling %.2fs), final loss %.4g, model at %s",
        cfg["variant"], result.train_seconds, result.couple_seconds,
        result.loss_history[-1], out,
    )
    return EXIT_OK


def _load_for_rollout(cfg: dict, *required: str):
    """The checks and loads that evaluate and predict share: the test-side
    trajectory directory, its trajectory, the model and its checkpoint's
    payload."""
    _require(cfg, "data", "model", *required)
    if cfg["beta_noise"] and cfg["seed"] is None:
        raise _UsageError("--beta-noise requires --seed")
    traj_dir = _trajectory_dir(cfg["data"], "test")
    return traj_dir, load_trajectory(traj_dir), *trainer.load_checkpoint(cfg["model"])


def _cmd_evaluate(cfg: dict) -> int:
    traj_dir, test, model, model_payload = _load_for_rollout(cfg, "report")
    report = trainer.evaluate(
        model, test, scheme=cfg["scheme"], beta_noise=cfg["beta_noise"], seed=cfg["seed"] or 0
    )
    report["model"] = str(cfg["model"])
    report["data"] = str(traj_dir)
    for key in ("loss_history", "couple_seconds", "train_seconds", "em"):
        if key in model_payload:
            report[key] = model_payload[key]
    report_path = Path(cfg["report"])
    report_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(report_path, report)
    _echo_config(cfg, "evaluate", report_path.parent)
    logger.info("mean EMD %.6g +- %.3g (%s)", report["mean_emd"], report["std_emd"], cfg["scheme"])
    return EXIT_OK


def _cmd_predict(cfg: dict) -> int:
    _, traj, model, _ = _load_for_rollout(cfg, "out")
    start_index = cfg["from_index"]
    if not 0 <= start_index < traj.n_snapshots:
        raise ValueError(f"from_index {start_index} out of range for {traj.n_snapshots} snapshots")
    steps = cfg["steps"]
    if steps is None:
        steps = max(1, traj.n_steps - start_index)
    rollout = trainer.predict(
        model, traj.snapshots[start_index], steps, traj.tau, cfg["scheme"],
        beta_noise=cfg["beta_noise"], seed=cfg["seed"] or 0,
        time_offset=start_index, time_scale=traj.n_steps,
    )
    out = Path(cfg["out"])
    save_trajectory(rollout, out, generator=f"predict:{cfg['scheme']}", seed=cfg["seed"])
    _echo_config(cfg, "predict", out)
    logger.info("wrote %d predicted snapshots to %s", rollout.n_snapshots, out)
    return EXIT_OK


def _cmd_experiment(cfg: dict) -> int:
    _require(cfg, "name", "seed", "out")
    runner = experiments.RUNNERS.get(cfg["name"])
    if runner is None:
        raise _UsageError(f"unknown study {cfg['name']!r}")
    kwargs = {"seed": cfg["seed"], "out_dir": cfg["out"], "full": cfg["full"]}
    # a study takes an override exactly when its runner has a parameter of that name
    takes = inspect.signature(runner).parameters
    for key in ("epochs", "potential", "interaction", "jobs"):
        if cfg[key] is not None:
            if key not in takes:
                raise _UsageError(f"study {cfg['name']} does not take --{key}")
            kwargs[key] = cfg[key]
    if "jobs" in takes:
        kwargs["jobs"] = _jobs(kwargs.get("jobs"))
    runner(**kwargs)
    _echo_config(cfg, "experiment", Path(cfg["out"]))
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "couple": _cmd_couple,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("jko-flow: a subcommand is required", file=sys.stderr)
            return EXIT_USAGE
        logging.basicConfig(
            stream=sys.stderr,
            level=_VERBOSITY[args.verbosity],
            format="%(levelname)s %(name)s: %(message)s",
        )
        cfg = _resolve(args.command, args)
        return _COMMANDS[args.command](cfg)
    except _UsageError as exc:
        print(f"jko-flow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FileNotFoundError) as exc:
        logger.error("%s", exc)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.error("%s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
