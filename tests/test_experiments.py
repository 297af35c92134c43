"""Tests for the scripted experiment suites.

Most checks run the sweeps at tiny budgets (few epochs, few particles) and
assert table structure, determinism, and file emission.  Two slower tests
exercise documented behavior that only shows up at realistic budgets: the
flat-potential accuracy floor and the particle-count accuracy trend.
"""

import csv
import json
import logging
import math

import numpy as np
import pytest

from jkoflow import experiments as ex
from jkoflow.datagen import GenConfig, generate
from jkoflow.functionals import EnergySpec, GroundTruthFunction
from jkoflow.measures import PopulationTrajectory, uniform_snapshot
from jkoflow.trainer import TrainConfig


# ---------------------------------------------------------------------------
# table writing and sweep plumbing


def test_write_table_emits_csv_with_union_of_keys(tmp_path):
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}]
    ex._write_table(tmp_path, "demo", rows, {"rows": rows})
    with open(tmp_path / "demo.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        # union of keys in first-seen order
        assert reader.fieldnames == ["a", "b", "c"]
        parsed = list(reader)
    assert len(parsed) == 2
    assert parsed[0]["a"] == "1"
    assert parsed[0]["c"] == ""  # missing keys render empty
    assert parsed[1]["c"] == "x"


def test_write_table_emits_json_report(tmp_path):
    report = {"experiment": "demo", "value": np.float64(1.5)}
    ex._write_table(tmp_path, "demo", [{"a": 1}], report)
    with open(tmp_path / "demo.json") as fh:
        loaded = json.load(fh)
    # numpy scalars serialize as plain floats
    assert loaded == {"experiment": "demo", "value": 1.5}


def test_write_table_without_out_dir_is_a_no_op(tmp_path):
    ex._write_table(None, "demo", [{"a": 1}], {})
    assert list(tmp_path.iterdir()) == []


def test_run_cells_applies_worker_in_order():
    assert ex._run_cells([1, 2, 3], lambda c: {"v": c * 2}, jobs=1) == [
        {"v": 2},
        {"v": 4},
        {"v": 6},
    ]


def test_run_cells_records_failures_and_continues(caplog):
    def worker(cell):
        if cell == "bad":
            raise ValueError("boom")
        return {"v": cell}

    with caplog.at_level(logging.WARNING, logger="jkoflow.experiments"):
        rows = ex._run_cells(["ok", "bad", "ok2"], worker, jobs=1)
    assert rows[0] == {"v": "ok"}
    assert rows[2] == {"v": "ok2"}
    assert rows[1]["cell"] == repr("bad")
    assert "boom" in rows[1]["error"]
    assert any("failed" in record.message for record in caplog.records)


def test_run_cells_parallel_matches_serial_order():
    cells = list(range(6))
    serial = ex._run_cells(cells, lambda c: {"v": c * c}, jobs=1)
    threaded = ex._run_cells(cells, lambda c: {"v": c * c}, jobs=3)
    assert threaded == serial


@pytest.mark.parametrize("jobs", [1, 3])
def test_run_cells_flattens_row_lists_in_cell_order(jobs):
    def worker(cell):
        if cell == 1:
            raise ValueError("boom")
        return [{"cell": cell, "k": k} for k in range(2)]

    rows = ex._run_cells([0, 1, 2], worker, jobs=jobs)
    assert rows[:2] == [{"cell": 0, "k": 0}, {"cell": 0, "k": 1}]
    assert rows[2]["cell"] == repr(1) and "boom" in rows[2]["error"]
    assert rows[3:] == [{"cell": 2, "k": 0}, {"cell": 2, "k": 1}]


def test_runner_registry_names():
    assert set(ex.RUNNERS) == {
        "lightspeed",
        "scaling",
        "general",
        "time-varying",
        "observability",
    }
    assert all(callable(fn) for fn in ex.RUNNERS.values())


class _StopAtFit(Exception):
    pass


@pytest.mark.parametrize(
    "runner, kwargs, expected",
    [
        # explicit sizes win over the full-scale defaults
        (ex.run_general, dict(betas=(0.1,), epochs=5, n_particles=40), (5, 20)),
        (ex.run_time_varying, dict(epochs=5, n_particles=30), (5, 15)),
        (ex.run_observability, dict(n_particles=50), (TrainConfig.epochs, 50)),
        # without them, full picks the large sizes
        (ex.run_time_varying, {}, (6000, 500)),
        (ex.run_observability, {}, (TrainConfig.epochs, 5000)),
    ],
    ids=["general", "time-varying", "observability", "time-varying-default",
         "observability-default"],
)
def test_full_only_picks_default_sizes(monkeypatch, runner, kwargs, expected):
    seen = []

    def record(train, config):
        seen.append((config.epochs, train.snapshots[0].n_particles))
        raise _StopAtFit

    monkeypatch.setattr(ex, "fit", record)
    try:
        runner(seed=0, full=True, **kwargs)
    except _StopAtFit:
        pass
    assert seen[0] == expected


def test_desk_grids_are_documented_defaults():
    assert ex.DESK_LIGHTSPEED_POTENTIALS == ("flat", "sphere", "styblinski_tang", "watershed")
    assert ex.DESK_SCALING_DIMS == (2, 5, 10)
    assert ex.DESK_SCALING_COUNTS == (500, 1000, 2000)
    assert ex.FULL_SCALING_DIMS == (10, 20, 30, 40, 50)
    assert ex.FULL_SCALING_COUNTS == (1000, 2500, 5000, 7500, 10000)


# ---------------------------------------------------------------------------
# lightspeed


@pytest.fixture(scope="module")
def lightspeed_tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("lightspeed")
    rows = ex.run_lightspeed(["flat", "sphere"], seed=0, epochs=2, out_dir=out)
    return rows, out


def test_lightspeed_row_count_is_potentials_times_variants(lightspeed_tiny):
    rows, _ = lightspeed_tiny
    assert len(rows) == 2 * 2
    assert [(r["potential"], r["variant"]) for r in rows] == [
        ("flat", "star_potential"),
        ("flat", "star_linear_potential"),
        ("sphere", "star_potential"),
        ("sphere", "star_linear_potential"),
    ]


def test_lightspeed_rows_carry_timings_and_accuracy(lightspeed_tiny):
    rows, _ = lightspeed_tiny
    for row in rows:
        assert set(row) == {
            "potential",
            "variant",
            "mean_emd",
            "std_emd",
            "time_per_epoch",
            "couple_time",
            "train_time",
            "final_loss",
        }
        assert row["mean_emd"] >= 0.0
        assert row["std_emd"] >= 0.0
        assert row["couple_time"] > 0.0
        assert row["train_time"] > 0.0
        assert row["time_per_epoch"] > 0.0


def test_lightspeed_writes_csv_and_json(lightspeed_tiny):
    rows, out = lightspeed_tiny
    with open(out / "lightspeed.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    assert [p["potential"] for p in parsed] == [r["potential"] for r in rows]
    with open(out / "lightspeed.json") as fh:
        report = json.load(fh)
    assert report["experiment"] == "lightspeed"
    assert report["seed"] == 0
    assert report["epochs"] == 2
    assert report["potentials"] == ["flat", "sphere"]
    assert len(report["rows"]) == len(rows)


def test_lightspeed_records_per_potential_failures(caplog):
    with caplog.at_level(logging.WARNING, logger="jkoflow.experiments"):
        rows = ex.run_lightspeed(["flat", "no_such_potential"], seed=0, epochs=1)
    # the good potential still produced its two rows
    good = [r for r in rows if r.get("potential") == "flat"]
    assert len(good) == 2
    errors = [r for r in rows if "error" in r]
    assert len(errors) == 1
    assert "no_such_potential" in errors[0]["error"]


@pytest.fixture(scope="module")
def lightspeed_flat_full():
    # full documented budget; the slowest test in this module
    return ex.run_lightspeed(["flat"], seed=0, epochs=1000)


def test_lightspeed_flat_linear_variant_is_exact(lightspeed_flat_full):
    by_variant = {r["variant"]: r for r in lightspeed_flat_full}
    assert by_variant["star_linear_potential"]["mean_emd"] < 1e-6


def test_lightspeed_flat_network_variant_near_zero(lightspeed_flat_full):
    # stochastic minibatch training leaves the network variant at a small
    # plateau (observed ~1e-5 in transported mass distance) rather than the
    # closed-form variant's exact zero
    by_variant = {r["variant"]: r for r in lightspeed_flat_full}
    assert by_variant["star_potential"]["mean_emd"] < 5e-5


def test_lightspeed_coupling_is_cheap_next_to_training(lightspeed_flat_full):
    by_variant = {r["variant"]: r for r in lightspeed_flat_full}
    row = by_variant["star_potential"]
    # at a 1000-epoch budget the coupling phase is a rounding error
    assert row["couple_time"] < 0.1 * row["train_time"]


# ---------------------------------------------------------------------------
# scaling


def test_scaling_grid_shape_and_accuracy_trend():
    dims = [2]
    counts = [100, 400, 1600]
    rows = ex.run_scaling("sphere", dims=dims, particle_counts=counts, seed=0, epochs=150)
    assert [(r["dim"], r["n_particles"]) for r in rows] == [(2, c) for c in counts]
    for row in rows:
        assert set(row) == {"dim", "n_particles", "mean_emd", "std_emd", "seconds"}
        assert row["seconds"] > 0.0
    # more particles should not hurt accuracy, up to noise: at least two of
    # the three pairwise orderings must hold
    e = [row["mean_emd"] for row in rows]
    orderings = [e[0] >= e[1], e[1] >= e[2], e[0] >= e[2]]
    assert sum(orderings) >= 2


def test_scaling_records_per_cell_failures(caplog):
    with caplog.at_level(logging.WARNING, logger="jkoflow.experiments"):
        rows = ex.run_scaling("no_such_potential", dims=[2], particle_counts=[8, 12], epochs=1)
    assert len(rows) == 2
    for row, cell in zip(rows, [(2, 8), (2, 12)]):
        assert row["cell"] == repr(cell)
        assert "no_such_potential" in row["error"]


# ---------------------------------------------------------------------------
# general energies


@pytest.fixture(scope="module")
def general_tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("general")
    rows = ex.run_general(betas=(0.0, 0.1), seed=0, epochs=2, n_particles=60, out_dir=out)
    return rows, out


def test_general_row_count_is_combos_times_variants(general_tiny):
    rows, _ = general_tiny
    assert len(rows) == 2 * 2
    assert [(r["beta"], r["variant"]) for r in rows] == [
        (0.0, "star"),
        (0.0, "star_linear"),
        (0.1, "star"),
        (0.1, "star_linear"),
    ]
    for row in rows:
        assert row["potential"] == "sphere"
        assert row["interaction"] == "sphere"


def test_general_pins_diffusion_off_for_zero_beta(general_tiny):
    rows, _ = general_tiny
    for row in rows:
        if row["beta"] == 0.0:
            assert row["fitted_beta"] == 0.0
        else:
            # free diffusion weight moves away from exactly zero
            assert row["fitted_beta"] != 0.0


def test_general_zero_beta_skips_density_estimation(monkeypatch):
    calls = []
    import jkoflow.trainer as trainer_mod

    original = trainer_mod.fit_gmm

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "fit_gmm", spy)
    ex.run_general(betas=(0.0,), seed=0, epochs=1, n_particles=30)
    assert calls == []
    ex.run_general(betas=(0.1,), seed=0, epochs=1, n_particles=30)
    assert len(calls) > 0


def test_general_rejects_holder_table_interaction():
    with pytest.raises(ValueError, match="holder_table"):
        ex.run_general(interaction="holder_table")


def test_general_is_deterministic_and_thread_count_invariant(general_tiny):
    rows, _ = general_tiny

    def key(rs):
        return [(r["beta"], r["variant"], r["mean_emd"], r["std_emd"], r["fitted_beta"]) for r in rs]

    again = ex.run_general(betas=(0.0, 0.1), seed=0, epochs=2, n_particles=60)
    assert key(again) == key(rows)
    threaded = ex.run_general(betas=(0.0, 0.1), seed=0, epochs=2, n_particles=60, jobs=2)
    assert key(threaded) == key(rows)


def test_general_writes_table_with_config_echo(general_tiny):
    rows, out = general_tiny
    with open(out / "general.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    with open(out / "general.json") as fh:
        report = json.load(fh)
    assert report["betas"] == [0.0, 0.1]
    assert report["n_particles"] == 60
    assert report["epochs"] == 2


def test_nonzero_beta_inflates_snapshot_variance():
    # noise accumulates linearly in time: a diffusive run must show strictly
    # larger spread than its noiseless twin started from the same cloud
    def final_variance(beta):
        spec = EnergySpec(potential=GroundTruthFunction("flat", 1), beta=beta)
        cfg = GenConfig(
            spec=spec,
            n_particles=500,
            dim=1,
            timesteps=5,
            tau=0.1,
            init_low=-0.01,
            init_high=0.01,
            seed=3,
        )
        train, _ = generate(cfg)
        return train.snapshots[-1].points.var()

    quiet = final_variance(0.0)
    noisy = final_variance(0.2)
    assert noisy > quiet + 0.1
    # and the noiseless flat run never moves at all
    assert quiet < 1e-4


# ---------------------------------------------------------------------------
# time-varying


def test_max_deviation_aggregates_per_particle_worst_case():
    truth = PopulationTrajectory(
        [
            uniform_snapshot(np.array([[0.0], [0.0]]), 0),
            uniform_snapshot(np.array([[1.0], [2.0]]), 1),
            uniform_snapshot(np.array([[1.0], [2.0]]), 2),
        ],
        tau=0.1,
    )
    predicted = PopulationTrajectory(
        [
            uniform_snapshot(np.array([[0.0], [0.0]]), 0),
            uniform_snapshot(np.array([[1.1], [2.3]]), 1),
            uniform_snapshot(np.array([[1.2], [2.05]]), 2),
        ],
        tau=0.1,
    )
    stats = ex._max_deviation(predicted, truth)
    # per-particle maxima are 0.2 and 0.3
    assert stats["max_deviation"] == pytest.approx(0.3)
    assert stats["mean_deviation"] == pytest.approx(0.25)


@pytest.fixture(scope="module")
def time_varying_tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("time_varying")
    rows = ex.run_time_varying(seed=0, epochs=30, n_particles=24, out_dir=out)
    return rows, out


def test_time_varying_reports_all_four_pairings(time_varying_tiny):
    rows, _ = time_varying_tiny
    assert [(r["model"], r["prediction"]) for r in rows] == [
        ("trained", "implicit"),
        ("trained", "explicit"),
        ("ground_truth", "implicit"),
        ("ground_truth", "explicit"),
    ]
    for row in rows:
        assert np.isfinite(row["max_deviation"])
        assert 0.0 <= row["mean_deviation"] <= row["max_deviation"]


def test_time_varying_ground_truth_implicit_rollout_is_exact(time_varying_tiny):
    rows, _ = time_varying_tiny
    by_key = {(r["model"], r["prediction"]): r for r in rows}
    # rolling the generating potential through the generating scheme must
    # reproduce the data to solver tolerance
    assert by_key[("ground_truth", "implicit")]["max_deviation"] < 1e-6


def test_time_varying_explicit_rollout_of_truth_lags_the_data(time_varying_tiny):
    rows, _ = time_varying_tiny
    by_key = {(r["model"], r["prediction"]): r for r in rows}
    implicit = by_key[("ground_truth", "implicit")]["max_deviation"]
    explicit = by_key[("ground_truth", "explicit")]["max_deviation"]
    assert explicit > implicit
    assert explicit > 0.2


def test_time_varying_report_carries_final_loss(time_varying_tiny):
    _, out = time_varying_tiny
    with open(out / "time_varying.json") as fh:
        report = json.load(fh)
    assert report["timesteps"] == 10
    assert report["n_particles"] == 24
    assert np.isfinite(report["final_loss"])
    assert len(report["rows"]) == 4


# ---------------------------------------------------------------------------
# observability


def test_observability_pairs_satisfy_the_variance_identity():
    for pair in ex.OBSERVABILITY_PAIRS.values():
        total = math.exp(2.0 * pair["alpha"]) + 2.0 * pair["beta"]
        assert total == pytest.approx(2.0, abs=1e-12)


@pytest.fixture(scope="module")
def observability_small(tmp_path_factory):
    out = tmp_path_factory.mktemp("observability")
    report = ex.run_observability(seed=0, n_particles=400, out_dir=out)
    return report, out


def test_observability_row_grid(observability_small):
    report, _ = observability_small
    rows = report["rows"]
    assert [(r["pair"], r["n_snapshots"]) for r in rows] == [
        ("diffusive", 2),
        ("diffusive", 3),
        ("drifting", 2),
        ("drifting", 3),
    ]
    for row in rows:
        assert set(row) >= {
            "alpha",
            "beta",
            "mean_emd",
            "quadratic_coefficient",
            "theta_beta",
            "snapshot1_variance",
        }


def test_observability_second_snapshots_share_variance(observability_small):
    report, _ = observability_small
    by_key = {(r["pair"], r["n_snapshots"]): r for r in report["rows"]}
    var_a = by_key[("diffusive", 2)]["snapshot1_variance"]
    var_b = by_key[("drifting", 2)]["snapshot1_variance"]
    # both target variance 2; allow generous sampling slack at n=400
    assert var_a == pytest.approx(2.0, abs=0.4)
    assert var_b == pytest.approx(2.0, abs=0.4)
    assert abs(var_a - var_b) < 0.3


def test_observability_two_snapshot_fits_are_interchangeable(observability_small):
    report, _ = observability_small
    assert 0.5 <= report["emd_ratio_two_snapshots"] <= 2.0


def test_observability_third_snapshot_separates_the_fits(observability_small):
    report, _ = observability_small
    assert report["theta_beta_gap_three_snapshots"] > 0.2
    assert report["theta_beta_gap_three_snapshots"] > report["theta_beta_gap_two_snapshots"]


def test_observability_writes_table(observability_small):
    report, out = observability_small
    with open(out / "observability.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 4
    with open(out / "observability.json") as fh:
        loaded = json.load(fh)
    assert loaded["n_particles"] == 400
    for key in (
        "emd_ratio_two_snapshots",
        "theta_beta_gap_two_snapshots",
        "theta_beta_gap_three_snapshots",
    ):
        assert loaded[key] == pytest.approx(report[key])
