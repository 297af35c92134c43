"""End-to-end tests of the jko-flow command line.

Commands run in-process through main(argv) for speed. Three smoke tests run
in a subprocess: one through `python -m jkoflow.cli`, and two through the
console script to cover the entry-point wiring. The latter run the installed
`jko-flow` when it is on PATH. Otherwise they run the
`[project.scripts]` target declared in pyproject.toml the way the generated
console script does, `sys.exit(<target>())`, so an uninstalled checkout still
checks that the target resolves, parses the process's own arguments and turns
its return value into the exit status.
"""

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jkoflow
from jkoflow import cli, experiments
from jkoflow.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from jkoflow.datagen import GenConfig
from jkoflow.measures import (
    PopulationTrajectory,
    load_coupling,
    load_trajectory,
    save_trajectory,
)
from jkoflow.ot import OtConfig
from jkoflow.trainer import TrainConfig


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def flat_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("flat_data")
    code = run(
        "generate",
        "--potential", "flat",
        "--dim", "2",
        "--particles", "200",
        "--steps", "5",
        "--tau", "0.01",
        "--seed", "1",
        "--out", str(out),
    )
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def sphere_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("sphere_data")
    code = run(
        "generate",
        "--potential", "sphere",
        "--particles", "60",
        "--steps", "3",
        "--seed", "2",
        "--out", str(out),
    )
    assert code == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_six_snapshots_per_split(flat_dataset):
    for split in ("train", "test"):
        names = sorted(p.name for p in (flat_dataset / split).iterdir())
        assert names == ["metadata.json"] + [f"snapshot_{t:05d}.csv" for t in range(6)]
        traj = load_trajectory(flat_dataset / split)
        assert traj.n_snapshots == 6
        assert traj.snapshots[0].n_particles == 100
        assert traj.dim == 2
        assert traj.tau == 0.01


def test_generate_is_idempotent(tmp_path, flat_dataset):
    other = tmp_path / "again"
    code = run(
        "generate",
        "--potential", "flat",
        "--dim", "2",
        "--particles", "200",
        "--steps", "5",
        "--tau", "0.01",
        "--seed", "1",
        "--out", str(other),
    )
    assert code == EXIT_OK
    for split in ("train", "test"):
        for path in sorted((flat_dataset / split).iterdir()):
            assert path.read_bytes() == (other / split / path.name).read_bytes()


def test_generate_requires_some_energy(tmp_path):
    code = run("generate", "--seed", "1", "--out", str(tmp_path / "d"))
    assert code == EXIT_USAGE
    assert not (tmp_path / "d").exists()


def test_generate_implicit_with_interaction(tmp_path):
    out = tmp_path / "d"
    code = run(
        "generate",
        "--scheme", "implicit",
        "--interaction", "sphere",
        "--particles", "40",
        "--steps", "2",
        "--seed", "1",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert load_trajectory(out / "train").n_snapshots == 3


def test_generate_unstable_tau_is_a_runtime_failure(tmp_path):
    # cubic growth overflows within a few steps at this step size
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(
            "generate",
            "--potential", "styblinski_tang",
            "--tau", "1e8",
            "--particles", "10",
            "--seed", "1",
            "--out", str(tmp_path / "d"),
        )
    assert code == EXIT_RUNTIME


# ---------------------------------------------------------------------------
# couple


def test_couple_writes_valid_couplings(flat_dataset):
    code = run("couple", "--data", str(flat_dataset), "--ot-method", "exact")
    assert code == EXIT_OK
    train_dir = flat_dataset / "train"
    files = sorted(p.name for p in train_dir.glob("coupling_*.csv"))
    assert files == [f"coupling_{t}_{t + 1}.csv" for t in range(5)]
    # marginal oracle: mass summed per particle must equal the snapshot
    # weights on both sides
    for t in range(5):
        coupling = load_coupling(train_dir, t, t + 1)
        assert np.all(coupling.masses > 0)
        left = np.bincount(coupling.source_indices, weights=coupling.masses, minlength=100)
        right = np.bincount(coupling.target_indices, weights=coupling.masses, minlength=100)
        np.testing.assert_allclose(left, np.full(100, 0.01), atol=1e-9)
        np.testing.assert_allclose(right, np.full(100, 0.01), atol=1e-9)


def test_couple_missing_data_dir_is_usage_error(tmp_path):
    assert run("couple", "--data", str(tmp_path / "nope")) == EXIT_USAGE


# ---------------------------------------------------------------------------
# train / evaluate / predict pipeline


def test_flat_pipeline_reaches_zero_error(flat_dataset, tmp_path):
    model_path = tmp_path / "m.json"
    code = run(
        "train",
        "--data", str(flat_dataset),
        "--variant", "star_linear_potential",
        "--seed", "1",
        "--out", str(model_path),
    )
    assert code == EXIT_OK
    report_path = tmp_path / "r.json"
    code = run(
        "evaluate",
        "--data", str(flat_dataset),
        "--model", str(model_path),
        "--report", str(report_path),
    )
    assert code == EXIT_OK
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["mean_emd"] < 1e-6
    assert report["scheme"] == "explicit"
    assert len(report["per_step_emd"]) == 5
    # training metadata rides along for provenance
    assert "loss_history" in report
    assert report["model"] == str(model_path)


def test_train_is_idempotent_modulo_timing(flat_dataset, tmp_path):
    payloads = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = run(
            "train",
            "--data", str(flat_dataset),
            "--variant", "star_linear_potential",
            "--seed", "7",
            "--out", str(path),
        )
        assert code == EXIT_OK
        with open(path) as fh:
            payload = json.load(fh)
        payload.pop("couple_seconds")
        payload.pop("train_seconds")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_star_checkpoint_and_report_carry_the_em_record(sphere_dataset, tmp_path):
    # one {iterations, capped, reinits} per train snapshot after the first,
    # as FitResult.em lists them, in the checkpoint and copied into the report
    model_path = tmp_path / "m.json"
    code = run(
        "train",
        "--data", str(sphere_dataset),
        "--variant", "star",
        "--epochs", "2",
        "--hidden", "8",
        "--gmm-k", "2",
        "--seed", "3",
        "--out", str(model_path),
    )
    assert code == EXIT_OK
    with open(model_path) as fh:
        em = json.load(fh)["em"]
    train = load_trajectory(sphere_dataset / "train")
    assert len(em) == train.n_steps == 3
    for record in em:
        assert set(record) == {"iterations", "capped", "reinits"}
        assert isinstance(record["capped"], bool)
        assert record["iterations"] >= 1 and record["reinits"] >= 0
    report_path = tmp_path / "r.json"
    code = run(
        "evaluate",
        "--data", str(sphere_dataset),
        "--model", str(model_path),
        "--report", str(report_path),
    )
    assert code == EXIT_OK
    with open(report_path) as fh:
        assert json.load(fh)["em"] == em


def test_predict_rolls_out_and_saves(sphere_dataset, tmp_path):
    model_path = tmp_path / "m.json"
    code = run(
        "train",
        "--data", str(sphere_dataset),
        "--variant", "star_linear_potential",
        "--poly-degree", "2",
        "--seed", "2",
        "--out", str(model_path),
    )
    assert code == EXIT_OK
    out = tmp_path / "rollout"
    code = run(
        "predict",
        "--data", str(sphere_dataset),
        "--model", str(model_path),
        "--steps", "2",
        "--seed", "2",
        "--out", str(out),
    )
    assert code == EXIT_OK
    rollout = load_trajectory(out)
    assert rollout.n_snapshots == 3  # start plus two predicted steps
    assert (out / "predict_config.json").is_file()
    # the fitted drift tracks the data, which spreads away from the origin
    start = np.abs(rollout.snapshots[0].points).mean()
    end = np.abs(rollout.snapshots[-1].points).mean()
    assert end > start


def test_predict_implicit_scheme(sphere_dataset, tmp_path):
    model_path = tmp_path / "m.json"
    run(
        "train",
        "--data", str(sphere_dataset),
        "--variant", "star_linear_potential",
        "--poly-degree", "2",
        "--seed", "2",
        "--out", str(model_path),
    )
    out = tmp_path / "rollout"
    code = run(
        "predict",
        "--data", str(sphere_dataset),
        "--model", str(model_path),
        "--scheme", "implicit",
        "--steps", "1",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert load_trajectory(out).n_snapshots == 2


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_predict_rejects_a_rollout_without_steps(sphere_dataset, tmp_path, steps):
    model_path = tmp_path / "m.json"
    run(
        "train",
        "--data", str(sphere_dataset),
        "--variant", "star_linear_potential",
        "--poly-degree", "2",
        "--seed", "2",
        "--out", str(model_path),
    )
    out = tmp_path / "r"
    code = run(
        "predict",
        "--data", str(sphere_dataset),
        "--model", str(model_path),
        "--steps", steps,
        "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert not out.exists()


def test_predict_from_index_out_of_range(sphere_dataset, tmp_path):
    model_path = tmp_path / "m.json"
    run(
        "train",
        "--data", str(sphere_dataset),
        "--variant", "star_linear_potential",
        "--poly-degree", "2",
        "--seed", "2",
        "--out", str(model_path),
    )
    code = run(
        "predict",
        "--data", str(sphere_dataset),
        "--model", str(model_path),
        "--from-index", "99",
        "--out", str(tmp_path / "r"),
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# exit codes and argument validation


@pytest.mark.parametrize(
    "argv",
    [
        [],  # subcommand required
        ["frobnicate"],  # unknown subcommand
        ["generate", "--potential", "flat", "--seed", "1"],  # missing --out
        ["generate", "--potential", "flat", "--out", "d"],  # missing --seed
        ["generate", "--no-such-flag"],  # unknown flag
        ["generate", "--potential", "nope", "--seed", "1", "--out", "d"],  # bad choice
        ["train", "--data", "d", "--out", "m.json"],  # missing --seed
        ["experiment", "--seed", "0", "--out", "d"],  # missing study name
        ["experiment", "bogus", "--seed", "0", "--out", "d"],  # unknown study
        ["generate", "--potential", "flat", "--seed", "1", "--out", "d", "--verbosity", "loud"],
    ],
)
def test_usage_errors_exit_one(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative out paths stay sandboxed
    assert run(*argv) == EXIT_USAGE


def test_invalid_tau_exits_one(tmp_path):
    code = run(
        "generate",
        "--potential", "flat",
        "--tau", "-1",
        "--seed", "1",
        "--out", str(tmp_path / "d"),
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize(
    "name, payload",
    [
        ("list.json", [1, 2]),
        ("no_theta.json", {"kind": "linear"}),
        ("text_theta.json", {"kind": "linear", "theta": "abc"}),
        ("truncated.json", "{"),
    ],
    ids=["not-an-object", "missing-key", "misshapen-value", "not-json"],
)
def test_malformed_checkpoints_exit_one_and_name_the_file(
    flat_dataset, tmp_path, command, name, payload
):
    # a str payload is the file's text as it stands
    model_path = tmp_path / name
    model_path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    out_flag = "--report" if command == "evaluate" else "--out"
    src = str(Path(jkoflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "jkoflow.cli", command, "--data", str(flat_dataset),
         "--model", str(model_path), out_flag, str(tmp_path / "result")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert str(model_path) in proc.stderr
    assert not (tmp_path / "result").exists()


def _broken_metadata_dataset(flat_dataset, tmp_path, text="{") -> Path:
    data = tmp_path / "broken"
    shutil.copytree(flat_dataset, data)
    for split in ("train", "test"):
        (data / split / "metadata.json").write_text(text)
    return data


def _broken_metadata_argv(command: str, data: Path, tmp_path) -> list[str]:
    out = str(tmp_path / "result")
    return {
        "couple": ["couple", "--data", str(data)],
        "train": ["train", "--data", str(data), "--seed", "1", "--out", out],
        "evaluate": ["evaluate", "--data", str(data), "--model", "m.json", "--report", out],
        "predict": ["predict", "--data", str(data), "--model", "m.json", "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["couple", "train", "evaluate", "predict"])
def test_broken_metadata_exits_one_and_names_the_file(flat_dataset, tmp_path, command, caplog):
    data = _broken_metadata_dataset(flat_dataset, tmp_path)
    assert run(*_broken_metadata_argv(command, data, tmp_path)) == EXIT_USAGE
    split = "train" if command in ("couple", "train") else "test"
    assert f"{data / split / 'metadata.json'}: not valid JSON" in caplog.text
    assert not (tmp_path / "result").exists()


def test_broken_metadata_names_the_file_on_stderr(flat_dataset, tmp_path):
    data = _broken_metadata_dataset(flat_dataset, tmp_path)
    src = str(Path(jkoflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "jkoflow.cli", *_broken_metadata_argv("evaluate", data, tmp_path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert f"{data / 'test' / 'metadata.json'}: not valid JSON" in proc.stderr


@pytest.mark.parametrize("text", ["5", "[1, 2]"], ids=["number", "list"])
@pytest.mark.parametrize("command", ["couple", "train", "evaluate", "predict"])
def test_metadata_that_is_not_an_object_exits_one_and_names_the_file(
    flat_dataset, tmp_path, command, text, caplog
):
    data = _broken_metadata_dataset(flat_dataset, tmp_path, text)
    assert run(*_broken_metadata_argv(command, data, tmp_path)) == EXIT_USAGE
    split = "train" if command in ("couple", "train") else "test"
    assert f"{data / split / 'metadata.json'}: must hold a JSON object" in caplog.text
    assert not (tmp_path / "result").exists()


def test_invalid_snapshot_exits_one_and_names_the_file(flat_dataset, tmp_path, caplog):
    data = tmp_path / "nan"
    shutil.copytree(flat_dataset, data)
    path = data / "train" / "snapshot_00002.csv"
    lines = path.read_text().splitlines()
    lines[1] = "nan," + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.json"
    assert run("train", "--data", str(data), "--seed", "1", "--out", str(out)) == EXIT_USAGE
    assert f"{path}: points must be finite" in caplog.text
    assert not out.exists()


def test_beta_noise_requires_seed(flat_dataset, tmp_path):
    model_path = tmp_path / "m.json"
    run(
        "train",
        "--data", str(flat_dataset),
        "--variant", "star_linear_potential",
        "--seed", "1",
        "--out", str(model_path),
    )
    code = run(
        "evaluate",
        "--data", str(flat_dataset),
        "--model", str(model_path),
        "--report", str(tmp_path / "r.json"),
        "--beta-noise",
    )
    assert code == EXIT_USAGE
    code = run(
        "predict",
        "--data", str(flat_dataset),
        "--model", str(model_path),
        "--beta-noise",
        "--out", str(tmp_path / "p"),
    )
    assert code == EXIT_USAGE


def test_implicit_scheme_rejects_beta_noise(flat_dataset, tmp_path):
    model_path = tmp_path / "m.json"
    run(
        "train",
        "--data", str(flat_dataset),
        "--variant", "star_linear_potential",
        "--seed", "1",
        "--out", str(model_path),
    )
    report = tmp_path / "r.json"
    code = run(
        "evaluate",
        "--data", str(flat_dataset),
        "--model", str(model_path),
        "--report", str(report),
        "--scheme", "implicit",
        "--beta-noise", "--seed", "1",
    )
    assert code == EXIT_USAGE
    assert not report.exists()
    out = tmp_path / "p"
    code = run(
        "predict",
        "--data", str(flat_dataset),
        "--model", str(model_path),
        "--scheme", "implicit",
        "--beta-noise", "--seed", "1",
        "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert not out.exists()


def test_beta_noise_rejects_a_model_without_diffusion(flat_dataset, tmp_path):
    # star_linear_potential has no diffusion term, so the noise could not be drawn
    model_path = tmp_path / "m.json"
    run(
        "train",
        "--data", str(flat_dataset),
        "--variant", "star_linear_potential",
        "--seed", "1",
        "--out", str(model_path),
    )
    report = tmp_path / "r.json"
    code = run(
        "evaluate",
        "--data", str(flat_dataset),
        "--model", str(model_path),
        "--report", str(report),
        "--beta-noise", "--seed", "5",
    )
    assert code == EXIT_USAGE
    assert not report.exists()
    out = tmp_path / "p"
    code = run(
        "predict",
        "--data", str(flat_dataset),
        "--model", str(model_path),
        "--beta-noise", "--seed", "5",
        "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert not out.exists()


def test_evaluate_rejects_a_test_set_without_transitions(flat_dataset, tmp_path):
    model_path = tmp_path / "m.json"
    run(
        "train",
        "--data", str(flat_dataset),
        "--variant", "star_linear_potential",
        "--seed", "1",
        "--out", str(model_path),
    )
    test = load_trajectory(flat_dataset / "test")
    single = tmp_path / "single"
    save_trajectory(PopulationTrajectory(test.snapshots[:1], test.tau), single)
    report = tmp_path / "r.json"
    code = run(
        "evaluate",
        "--data", str(single),
        "--model", str(model_path),
        "--report", str(report),
    )
    assert code == EXIT_USAGE
    assert not report.exists()


def test_every_public_name_resolves_on_the_package():
    missing = [name for name in jkoflow.__all__ if not hasattr(jkoflow, name)]
    assert missing == []


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("--help")
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("generate", "couple", "train", "evaluate", "predict", "experiment"):
        assert command in out


def test_subcommand_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("generate", "--help")
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--potential", "--interaction", "--beta", "--init-low", "--scheme",
                 "--config", "--verbosity", "--seed", "--out"):
        assert flag in out


# the CLI contract: every key a command resolves, in order, with its default
RESOLVED_DEFAULTS = {
    "generate": {
        "potential": None, "interaction": None, "beta": 0.0, "dim": 2, "particles": 2000,
        "steps": 5, "tau": 0.01, "init_low": -4.0, "init_high": 4.0, "scheme": "explicit",
        "seed": None, "out": None,
    },
    "couple": {
        "data": None, "ot_method": "exact", "epsilon": 1.0, "max_iters": 2000,
        "tolerance": 1e-6, "batch_size": 1000, "seed": 0, "jobs": None,
    },
    "train": {
        "data": None, "variant": "star_potential", "epochs": 1000, "batch_pairs": 250,
        "learning_rate": 1e-3, "gmm_k": 10, "ridge_lambda": 0.01, "hidden": "64,64",
        "interaction_subsample": 0, "pin_internal": False, "poly_degree": None, "seed": None,
        "ot_method": "exact", "epsilon": 1.0, "batch_size": 1000, "jobs": None, "out": None,
    },
    "evaluate": {
        "data": None, "model": None, "report": None, "scheme": "explicit",
        "beta_noise": False, "seed": None,
    },
    "predict": {
        "data": None, "model": None, "steps": None, "from_index": 0, "scheme": "explicit",
        "beta_noise": False, "seed": None, "out": None,
    },
    "experiment": {
        "name": None, "seed": None, "full": False, "epochs": None, "potential": None,
        "interaction": None, "jobs": None, "out": None,
    },
}


@pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
def test_resolved_defaults_and_help_keep_the_cli_contract(command, capsys):
    parser = cli._build_parser()
    resolved = cli._resolve(command, parser.parse_args([command]))
    expected = RESOLVED_DEFAULTS[command]
    assert list(resolved) == list(expected)
    assert resolved == expected
    assert [type(v) for v in resolved.values()] == [type(v) for v in expected.values()]
    with pytest.raises(SystemExit):
        run(command, "--help")
    out = capsys.readouterr().out
    for key in expected:
        # experiment's study name is positional and shows as the study choices
        flag = "{" if key == "name" else "--" + key.replace("_", "-")
        assert flag in out, (command, key)


# ---------------------------------------------------------------------------
# config files and precedence


def test_config_file_overrides_defaults_and_flags_override_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"particles": 40, "steps": 2, "tau": 0.05}))
    out = tmp_path / "d"
    code = run(
        "generate",
        "--config", str(cfg_path),
        "--potential", "flat",
        "--steps", "3",
        "--seed", "4",
        "--out", str(out),
    )
    assert code == EXIT_OK
    traj = load_trajectory(out / "train")
    assert traj.n_snapshots == 4  # flag (3 steps) beat the config file (2)
    assert traj.snapshots[0].n_particles == 20  # config (40 total) beat default 2000
    assert traj.tau == 0.05
    with open(out / "generate_config.json") as fh:
        echoed = json.load(fh)
    assert echoed["particles"] == 40
    assert echoed["steps"] == 3
    assert echoed["tau"] == 0.05
    assert echoed["seed"] == 4


def test_config_file_route_equals_the_flag_route(tmp_path):
    # an integer given for a real in the file is read as a real, as on the command line
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"beta": 0, "tau": 1}))
    common = ["generate", "--potential", "flat", "--particles", "20", "--steps", "2", "--seed", "1"]
    assert run(*common, "--config", str(cfg_path), "--out", str(tmp_path / "file")) == EXIT_OK
    assert run(*common, "--beta", "0", "--tau", "1", "--out", str(tmp_path / "flag")) == EXIT_OK
    for split in ("train", "test"):
        names = sorted(p.name for p in (tmp_path / "flag" / split).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "file" / split).iterdir())
        for name in names:
            flag_bytes = (tmp_path / "flag" / split / name).read_bytes()
            assert flag_bytes == (tmp_path / "file" / split / name).read_bytes(), (split, name)
    echoed = []
    for route in ("file", "flag"):
        with open(tmp_path / route / "generate_config.json") as fh:
            cfg = json.load(fh)
        assert cfg.pop("out") == str(tmp_path / route)
        echoed.append(json.dumps(cfg))  # text, so 0 and 0.0 differ
    assert echoed[0] == echoed[1]


# keys a command reads itself instead of handing them to a config field
READ_BY_THE_COMMAND = {
    "data", "out", "potential", "interaction", "beta", "hidden", "poly_degree", "jobs",
}


@pytest.mark.parametrize(
    "command, configs",
    [("generate", [GenConfig]), ("couple", [OtConfig]), ("train", [TrainConfig, OtConfig])],
)
def test_every_flag_reaches_a_config_field_or_its_command(command, configs):
    fields = {f.name for cls in configs for f in dataclasses.fields(cls)}
    for key in cli._FLAGS[command]:
        assert cli._FIELD_OF.get(key, key) in fields or key in READ_BY_THE_COMMAND, key


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "config file not found"),
        ({"bogus_key": 1}, "not recognized"),
        ([1, 2, 3], "JSON object"),
        ({"steps": 1.7}, "'steps' must be an integer, got 1.7"),
        ({"steps": True}, "'steps' must be an integer, got true"),
        ({"dim": [2]}, "'dim' must be an integer"),
        ({"tau": "0.01"}, "'tau' must be a number"),
        ({"tau": False}, "'tau' must be a number"),
        ({"interaction": 7}, "'interaction' must be a string"),
        ({"scheme": "Explicit"}, "'scheme' must be one of"),
        ("{", "cfg.json: not valid JSON"),
    ],
    ids=[
        "missing-file", "unknown-key", "not-an-object", "float-for-int", "bool-for-int",
        "list-for-int", "string-for-float", "bool-for-float", "number-for-string",
        "not-a-choice", "not-json",
    ],
)
def test_bad_config_files_exit_one(tmp_path, content, message, capsys):
    # a str content is the file's text as it stands
    cfg_path = tmp_path / "cfg.json"
    if content is not None:
        cfg_path.write_text(content if isinstance(content, str) else json.dumps(content))
    code = run(
        "generate",
        "--config", str(cfg_path),
        "--potential", "flat",
        "--seed", "1",
        "--out", str(tmp_path / "d"),
    )
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_config_file_that_is_not_an_object_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    code = run("generate", "--config", str(cfg_path), "--potential", "flat", "--seed", "1",
               "--out", str(tmp_path / "d"))
    assert code == EXIT_USAGE
    assert f"jko-flow: {cfg_path}: must hold a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_train_config_file_values_follow_the_flag_types(flat_dataset, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    model_path = tmp_path / "m.json"
    argv = ["train", "--config", str(cfg_path), "--data", str(flat_dataset),
            "--seed", "1", "--out", str(model_path)]
    for content, message in [
        ({"pin_internal": "false"}, "'pin_internal' must be true or false"),
        ({"epochs": 1.7}, "'epochs' must be an integer"),
        ({"hidden": [8, 8]}, "'hidden' must be a string"),
    ]:
        cfg_path.write_text(json.dumps(content))
        assert run(*argv) == EXIT_USAGE, content
        assert message in capsys.readouterr().err
        assert not model_path.exists()
    # null leaves a key at its default, as an absent flag does
    cfg_path.write_text(json.dumps({"variant": "star_linear_potential", "epochs": None}))
    assert run(*argv) == EXIT_OK
    with open(tmp_path / "train_config.json") as fh:
        assert json.load(fh)["epochs"] == TrainConfig.epochs


@pytest.mark.parametrize(
    "variant, degree, message",
    [("star_potential", "3", "linear variants"), ("star_linear_potential", "0", "empty")],
)
def test_poly_degree_is_never_ignored(flat_dataset, tmp_path, variant, degree, message, caplog):
    model_path = tmp_path / "m.json"
    code = run(
        "train",
        "--data", str(flat_dataset),
        "--variant", variant,
        "--poly-degree", degree,
        "--seed", "1",
        "--out", str(model_path),
    )
    assert code == EXIT_USAGE
    assert message in caplog.text
    assert not model_path.exists()


def test_resolved_config_is_echoed_into_output_dirs(flat_dataset, tmp_path):
    assert (flat_dataset / "generate_config.json").is_file()
    assert (flat_dataset / "train" / "couple_config.json").is_file()
    model_path = tmp_path / "m.json"
    run(
        "train",
        "--data", str(flat_dataset),
        "--variant", "star_linear_potential",
        "--seed", "1",
        "--out", str(model_path),
    )
    with open(tmp_path / "train_config.json") as fh:
        echoed = json.load(fh)
    assert echoed["variant"] == "star_linear_potential"
    assert echoed["seed"] == 1
    report_path = tmp_path / "r.json"
    run(
        "evaluate",
        "--data", str(flat_dataset),
        "--model", str(model_path),
        "--report", str(report_path),
    )
    assert (tmp_path / "evaluate_config.json").is_file()


# ---------------------------------------------------------------------------
# experiment dispatch and jobs plumbing


def test_experiment_subcommand_runs_and_writes_tables(tmp_path):
    out = tmp_path / "obs"
    code = run("experiment", "observability", "--seed", "0", "--out", str(out))
    assert code == EXIT_OK
    assert (out / "observability.csv").is_file()
    assert (out / "observability.json").is_file()
    with open(out / "experiment_config.json") as fh:
        echoed = json.load(fh)
    assert echoed["name"] == "observability"
    assert echoed["seed"] == 0


@pytest.fixture
def stub_runners(monkeypatch):
    """Replace every study with a recorder that keeps the runner's signature."""
    calls = []

    def stub(runner):
        @functools.wraps(runner)
        def record(**kwargs):
            calls.append(kwargs)

        return record

    stubs = {name: stub(runner) for name, runner in experiments.RUNNERS.items()}
    monkeypatch.setattr(experiments, "RUNNERS", stubs)
    return calls


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["observability", "--epochs", "5"], None, "--epochs"),
        (["lightspeed", "--potential", "sphere"], None, "--potential"),
        (["scaling", "--interaction", "sphere"], None, "--interaction"),
        (["observability"], {"epochs": 5}, "--epochs"),
        ([], {"name": "bogus"}, "bogus"),
        (["observability", "--jobs", "4"], None, "--jobs"),
        (["time-varying"], {"jobs": 2}, "--jobs"),
    ],
    ids=["observability-epochs", "lightspeed-potential", "scaling-interaction",
         "observability-epochs-config", "unknown-study-config", "observability-jobs",
         "time-varying-jobs-config"],
)
def test_experiment_rejects_flags_the_study_does_not_take(
    stub_runners, tmp_path, capsys, argv, config, named
):
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg_path)]
    code = run("experiment", *argv, "--seed", "0", "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert stub_runners == []


def test_experiment_passes_the_flags_a_study_takes(stub_runners, tmp_path):
    out = str(tmp_path / "o")
    code = run("experiment", "general", "--interaction", "sphere", "--epochs", "3",
               "--seed", "0", "--jobs", "1", "--out", out)
    assert code == EXIT_OK
    assert stub_runners == [
        {"seed": 0, "out_dir": out, "full": False, "jobs": 1, "epochs": 3,
         "interaction": "sphere"}
    ]


def test_jobs_env_fallback(flat_dataset, monkeypatch):
    monkeypatch.setenv("JKO_FLOW_JOBS", "2")
    assert run("couple", "--data", str(flat_dataset)) == EXIT_OK
    monkeypatch.setenv("JKO_FLOW_JOBS", "abc")
    assert run("couple", "--data", str(flat_dataset)) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, config, env",
    [
        (["--jobs", "0"], None, None),
        (["--jobs", "-2"], None, None),
        ([], {"jobs": 0}, None),
        ([], None, "0"),
        ([], None, "-3"),
    ],
    ids=["flag-zero", "flag-negative", "config-zero", "env-zero", "env-negative"],
)
@pytest.mark.parametrize("command", ["couple", "experiment"])
def test_jobs_below_one_exit_one(
    command, argv, config, env, flat_dataset, stub_runners, tmp_path, monkeypatch, capsys
):
    if env is None:
        monkeypatch.delenv("JKO_FLOW_JOBS", raising=False)
    else:
        monkeypatch.setenv("JKO_FLOW_JOBS", env)
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg_path)]
    if command == "couple":
        argv = ["couple", "--data", str(flat_dataset), *argv]
    else:
        argv = ["experiment", "general", "--seed", "0", "--out", str(tmp_path / "o"), *argv]
    assert run(*argv) == EXIT_USAGE
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert stub_runners == []


# ---------------------------------------------------------------------------
# console-script entry point

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script():
    """The command that launches `jko-flow`, and the environment to run it in.

    An executable on PATH is returned as is, with the inherited environment.
    Otherwise the command runs the declared `[project.scripts]` target with
    the interpreter running the tests, importing `jkoflow` from where this
    process imported it.
    """
    exe = shutil.which("jko-flow")
    if exe is not None:
        return [exe], None
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["jko-flow"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src = str(Path(jkoflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-c", code], env


def test_console_script_generate(tmp_path):
    cmd, env = console_script()
    out = tmp_path / "d"
    proc = subprocess.run(
        [*cmd, "generate", "--potential", "flat", "--particles", "10",
         "--steps", "1", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "train" / "snapshot_00001.csv").is_file()


def test_console_script_without_subcommand_exits_one():
    cmd, env = console_script()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "subcommand" in proc.stderr


def test_module_entry_point_runs_without_install():
    # the README's no-install command; only PYTHONPATH locates the package
    src = str(Path(jkoflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "jkoflow.cli", "experiment", "--help"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("lightspeed", "scaling", "general", "time-varying", "observability"):
        assert name in proc.stdout


def test_import_and_generate_load_no_scipy(tmp_path):
    # scipy is imported where optimal transport runs, not by ``import jkoflow``
    src = str(Path(jkoflow.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import jkoflow\n"
        "from jkoflow.cli import main\n"
        f"code = main(['generate', '--potential', 'sphere', '--particles', '10', "
        f"'--steps', '1', '--seed', '1', '--out', {str(tmp_path / 'd')!r}])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "d" / "train" / "snapshot_00001.csv").is_file()
