"""Snapshot/trajectory/coupling containers and their file formats."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkoflow import (
    Coupling,
    EmpiricalSnapshot,
    PopulationTrajectory,
    load_coupling,
    load_trajectory,
    save_coupling,
    save_trajectory,
    split_train_test,
    uniform_snapshot,
)
from jkoflow.measures import (
    EXP_FLOOR,
    _parse_rows,
    _write_csv,
    as_batch,
    budget_rows,
    check_coupling_marginals,
    coupling_path,
    exp_flushed,
    logsumexp,
    read_json,
    write_json,
)
from scipy.special import logsumexp as scipy_logsumexp

from conftest import random_trajectory


class TestEmpiricalSnapshot:
    def test_accepts_valid(self):
        s = EmpiricalSnapshot(np.zeros((3, 2)), np.full(3, 1 / 3), 0)
        assert s.n_particles == 3
        assert s.dim == 2

    def test_uniform_helper(self):
        s = uniform_snapshot(np.ones((4, 1)), 2)
        np.testing.assert_allclose(s.weights, 0.25)
        assert s.time_index == 2

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EmpiricalSnapshot(np.zeros((2, 1)), np.array([0.6, 0.6]), 0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            EmpiricalSnapshot(np.zeros((2, 1)), np.array([1.5, -0.5]), 0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="weights shape"):
            EmpiricalSnapshot(np.zeros((3, 1)), np.full(2, 0.5), 0)

    def test_rejects_nonfinite_points(self):
        pts = np.zeros((2, 1))
        pts[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            EmpiricalSnapshot(pts, np.full(2, 0.5), 0)

    @given(n=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_uniform_weights_always_valid(self, n):
        s = uniform_snapshot(np.zeros((n, 3)), 0)
        assert abs(s.weights.sum() - 1.0) < 1e-12


class TestPopulationTrajectory:
    def test_counts(self, rng):
        traj = random_trajectory(rng, steps=4)
        assert traj.n_snapshots == 5
        assert traj.n_steps == 4
        assert traj.dim == 2

    def test_rejects_gapped_time_indices(self):
        a = uniform_snapshot(np.zeros((2, 1)), 0)
        b = uniform_snapshot(np.zeros((2, 1)), 2)
        with pytest.raises(ValueError, match="without gaps"):
            PopulationTrajectory([a, b], 0.1)

    def test_single_snapshot_allowed(self, tmp_path):
        a = uniform_snapshot(np.zeros((2, 1)), 0)
        traj = PopulationTrajectory([a], 0.1)
        assert traj.n_steps == 0
        save_trajectory(traj, tmp_path)
        assert len(list(tmp_path.glob("snapshot_*.csv"))) == 1

    def test_rejects_nonpositive_tau(self):
        a = uniform_snapshot(np.zeros((2, 1)), 0)
        b = uniform_snapshot(np.zeros((2, 1)), 1)
        with pytest.raises(ValueError, match="tau"):
            PopulationTrajectory([a, b], 0.0)

    def test_rejects_dim_mismatch(self):
        a = uniform_snapshot(np.zeros((2, 1)), 0)
        b = uniform_snapshot(np.zeros((2, 2)), 1)
        with pytest.raises(ValueError, match="dimension"):
            PopulationTrajectory([a, b], 0.1)


class TestCoupling:
    def test_marginals(self):
        c = Coupling(
            source_time=0,
            target_time=1,
            source_indices=np.array([0, 0, 1]),
            target_indices=np.array([0, 1, 1]),
            masses=np.array([0.25, 0.25, 0.5]),
        )
        np.testing.assert_allclose(c.source_marginal(2), [0.5, 0.5])
        np.testing.assert_allclose(c.target_marginal(2), [0.25, 0.75])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="positive"):
            Coupling(0, 1, np.array([0]), np.array([0]), np.array([0.0]))

    def test_rejects_bad_total_mass(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Coupling(0, 1, np.array([0]), np.array([0]), np.array([0.5]))

    def test_check_marginals_flags_mismatch(self):
        c = Coupling(0, 1, np.array([0, 1]), np.array([0, 1]), np.array([0.7, 0.3]))
        src = uniform_snapshot(np.zeros((2, 1)), 0)
        tgt = uniform_snapshot(np.zeros((2, 1)), 1)
        with pytest.raises(ValueError, match="marginal"):
            check_coupling_marginals(c, src, tgt)


class TestTrajectoryIO:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        traj = random_trajectory(rng, n=7, d=3, steps=2)
        save_trajectory(traj, tmp_path, generator="test", seed=9)
        back = load_trajectory(tmp_path)
        assert back.tau == traj.tau
        assert back.n_snapshots == traj.n_snapshots
        for a, b in zip(traj.snapshots, back.snapshots):
            yes = np.array_equal(a.points, b.points)
            assert yes, "points must round-trip exactly"
            assert np.array_equal(a.weights, b.weights)

    def test_metadata_contents(self, rng, tmp_path):
        traj = random_trajectory(rng, steps=3)
        save_trajectory(traj, tmp_path, generator="g", seed=4)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["timesteps"] == 4
        assert meta["dim"] == 2
        assert meta["tau"] == traj.tau
        assert meta["generator"] == "g"
        assert meta["seed"] == 4

    def test_snapshot_file_count(self, rng, tmp_path):
        traj = random_trajectory(rng, steps=5)
        save_trajectory(traj, tmp_path)
        files = sorted(tmp_path.glob("snapshot_*.csv"))
        assert len(files) == 6

    def test_load_error_names_file_and_row(self, rng, tmp_path):
        traj = random_trajectory(rng, steps=1)
        save_trajectory(traj, tmp_path)
        path = tmp_path / "snapshot_00001.csv"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[0], "not_a_number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_trajectory(tmp_path)
        assert "snapshot_00001.csv" in str(err.value)
        assert "row 2" in str(err.value)

    def test_broken_metadata_names_the_file(self, rng, tmp_path):
        save_trajectory(random_trajectory(rng, steps=1), tmp_path)
        (tmp_path / "metadata.json").write_text("{")
        with pytest.raises(ValueError, match="metadata.json: not valid JSON"):
            load_trajectory(tmp_path)

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"tau"', "null"])
    def test_metadata_that_is_not_an_object_names_the_file(self, rng, tmp_path, text):
        save_trajectory(random_trajectory(rng, steps=1), tmp_path)
        (tmp_path / "metadata.json").write_text(text)
        with pytest.raises(ValueError, match="metadata.json: must hold a JSON object"):
            load_trajectory(tmp_path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dim": None}, "int()"),
            ({"tau": "fast"}, "could not convert"),
            ({"tau": -1.0}, "tau must be positive"),
            ({"timesteps": 0}, "at least one snapshot"),
        ],
        ids=["null-dim", "text-tau", "negative-tau", "no-snapshots"],
    )
    def test_bad_metadata_values_name_the_file(self, rng, tmp_path, change, message):
        save_trajectory(random_trajectory(rng, steps=1), tmp_path)
        meta = read_json(tmp_path / "metadata.json")
        write_json(tmp_path / "metadata.json", {**meta, **change})
        with pytest.raises(ValueError, match="metadata.json: ") as err:
            load_trajectory(tmp_path)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,0.5,0.4", "points must be finite"),
            ("0.5,0.5,-0.1", "weights must be non-negative"),
            ("0.5,0.5,0.2", "weights must sum to 1 within 1e-09, got 0.8"),
        ],
        ids=["nan-point", "negative-weight", "short-weights"],
    )
    def test_invalid_snapshot_names_the_file(self, tmp_path, row, message):
        # the rows parse; the snapshot they make is invalid
        one_snapshot = PopulationTrajectory([uniform_snapshot(np.zeros((2, 2)), 0)], 0.1)
        save_trajectory(one_snapshot, tmp_path)
        path = tmp_path / "snapshot_00000.csv"
        path.write_text(f"x0,x1,weight\n0,0,0.6\n{row}\n")
        with pytest.raises(ValueError) as err:
            load_trajectory(tmp_path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, dim, points, weights",
        [
            ("x0,x1,weight\n1.5,-2,0.25\n\n3,4,0.75\n", 2, [[1.5, -2], [3, 4]], [0.25, 0.75]),
            ("1,2\n\n3,4\n\n", 2, [[1, 2], [3, 4]], [0.5, 0.5]),
            ("x0\n0.1\n", 1, [[0.1]], [1.0]),
            # loadtxt rejects a whitespace-only line and quoted cells; the row
            # loop reads them as csv.reader and float do
            ("x0,x1\r\n1,2\r\n   \r\n3,4\r\n", 2, [[1, 2], [3, 4]], [0.5, 0.5]),
            ('"1","2",0.5\n3,4,0.5\n', 2, [[1, 2], [3, 4]], [0.5, 0.5]),
            ("\n1,2\n", 2, [[1, 2]], [1.0]),
        ],
        ids=["header-blank-weights", "no-header-no-weights", "one-row", "whitespace-line",
             "quoted", "leading-blank"],
    )
    def test_snapshot_reader_skips_headers_and_blank_rows(self, tmp_path, text, dim, points,
                                                          weights):
        path = tmp_path / "snapshot.csv"
        path.write_bytes(text.encode())
        pts, w = _parse_rows(path, dim)
        assert pts.flags.c_contiguous and w.flags.c_contiguous
        np.testing.assert_array_equal(pts, np.array(points, dtype=np.float64))
        np.testing.assert_array_equal(w, np.array(weights))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x0,x1\n1,2\nabc,4\n", "row 2: non-numeric entry"),
            ("# a,b\n1,2\n", "row 0: non-numeric entry"),
            ("x0,x1\n1,2,3,4\n", "row 1: expected 2 or 3 columns, got 4"),
            ("x0,x1,weight\n1,2,0.5\n3,4\n", "some rows have 2 columns and some 3"),
            ("x0,x1,weight\n\n", "no data rows found"),
            ("\nx0,x1\n1,2\n", "row 1: non-numeric entry"),
        ],
        ids=["word", "comment", "wide-row", "mixed-weights", "header-only", "late-header"],
    )
    def test_snapshot_reader_errors_name_file_and_row(self, tmp_path, text, message):
        path = tmp_path / "snapshot.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"snapshot.csv[:,] {message}"):
            _parse_rows(path, 2)

    def test_writer_writes_what_savetxt_writes(self, rng, tmp_path):
        rows = np.column_stack([rng.normal(size=(50, 2)) * 1e-300, np.full(50, 1 / 50)])
        rows[:4, 0] = [np.nan, np.inf, -0.0, 5e-324]
        path = tmp_path / "rows.csv"
        _write_csv(path, ["x0", "x1", "weight"], rows)
        expected = io.StringIO()
        expected.write("x0,x1,weight\n")
        np.savetxt(expected, rows, fmt="%.17g", delimiter=",")
        assert path.read_bytes() == expected.getvalue().encode()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trajectory(tmp_path / "nope")


class TestJson:
    def test_write_json_indents_by_two_and_ends_with_a_newline(self, tmp_path):
        payload = {"b": [1, 2.5], "a": {"nested": None}, "flag": True, "text": "x"}
        write_json(tmp_path / "out.json", payload)
        assert (tmp_path / "out.json").read_text() == json.dumps(payload, indent=2) + "\n"
        assert read_json(tmp_path / "out.json") == payload

    def test_write_json_writes_numpy_scalars_as_floats(self, tmp_path):
        write_json(tmp_path / "out.json", {"mean": np.float64(0.5), "dim": np.int64(2)})
        assert read_json(tmp_path / "out.json") == {"mean": 0.5, "dim": 2.0}
        assert '"dim": 2.0' in (tmp_path / "out.json").read_text()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{", "not valid JSON"),
            (b"\xff\xfe", "not valid JSON"),
            (b"[1, 2]", "must hold a JSON object, got list"),
            (b"7", "must hold a JSON object, got int"),
        ],
        ids=["truncated", "not-text", "list", "number"],
    )
    def test_read_json_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "artifact.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"artifact.json: {message}"):
            read_json(path)


class TestCouplingIO:
    def test_round_trip(self, tmp_path):
        c = Coupling(
            2, 3, np.array([0, 1, 1]), np.array([1, 0, 1]), np.array([0.5, 0.25, 0.25])
        )
        save_coupling(c, tmp_path)
        assert coupling_path(tmp_path, 2, 3).name == "coupling_2_3.csv"
        back = load_coupling(tmp_path, 2, 3)
        assert back.source_time == 2 and back.target_time == 3
        assert np.array_equal(back.source_indices, c.source_indices)
        assert np.array_equal(back.target_indices, c.target_indices)
        assert np.array_equal(back.masses, c.masses)


    def test_reader_skips_header_and_blank_rows(self, tmp_path):
        path = coupling_path(tmp_path, 0, 1)
        path.write_text("i,j,mass\n0,1,0.25\n\n1,0,0.75\n")
        back = load_coupling(tmp_path, 0, 1)
        assert back.source_indices.dtype == np.int64
        assert back.source_indices.tolist() == [0, 1]
        assert back.target_indices.tolist() == [1, 0]
        assert back.masses.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("i,j,mass\n0,1,0.5\n1.0,0,0.5\n", "row 2: non-numeric entry"),
            ("i,j,mass\n0,1\n", "row 1: expected 3 columns, got 2"),
            ("i,j,mass\n", "no data rows found"),
        ],
        ids=["float-index", "short-row", "header-only"],
    )
    def test_reader_errors_name_file_and_row(self, tmp_path, text, message):
        coupling_path(tmp_path, 0, 1).write_text(text)
        with pytest.raises(ValueError, match=f"coupling_0_1.csv[:,] {message}"):
            load_coupling(tmp_path, 0, 1)


class TestSplitTrainTest:
    def test_sizes_and_weights(self, rng):
        traj = random_trajectory(rng, n=10, steps=2)
        train, test = split_train_test(traj, 0.7, seed=0)
        for tr, te, orig in zip(train.snapshots, test.snapshots, traj.snapshots):
            assert tr.n_particles == 7
            assert te.n_particles == 3
            assert abs(tr.weights.sum() - 1.0) < 1e-9
            merged = np.concatenate([tr.points, te.points])
            assert sorted(map(tuple, merged)) == sorted(map(tuple, orig.points))

    def test_extreme_fractions_keep_both_sides_nonempty(self, rng):
        traj = random_trajectory(rng, n=5, steps=1)
        train, test = split_train_test(traj, 0.999, seed=0)
        assert train.snapshots[0].n_particles == 4
        assert test.snapshots[0].n_particles == 1

    def test_deterministic(self, rng):
        traj = random_trajectory(rng, n=8, steps=1)
        a1, b1 = split_train_test(traj, 0.5, seed=3)
        a2, b2 = split_train_test(traj, 0.5, seed=3)
        assert np.array_equal(a1.snapshots[0].points, a2.snapshots[0].points)
        assert np.array_equal(b1.snapshots[1].points, b2.snapshots[1].points)


def test_as_batch_lifts_a_point_and_passes_a_batch_through():
    xb, single = as_batch([1, 2], 2)
    assert single and xb.shape == (1, 2) and xb.dtype == np.float64
    batch = np.ones((5, 2))
    xb, single = as_batch(batch, 2)
    assert not single and xb is batch
    with pytest.raises(ValueError, match="expected point of dim 2"):
        as_batch(np.ones(3), 2)
    for bad in (np.ones((5, 3)), np.ones((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"expected \(B, 2\) batch"):
            as_batch(bad, 2)


# ---------------------------------------------------------------------------
# exp with underflow flushed to zero


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestExpFlushed:
    def test_bit_equal_to_np_exp_from_the_floor_up(self, rng):
        edge = [EXP_FLOOR, np.nextafter(EXP_FLOOR, 0.0), -1e-300, -0.0, 0.0, 1.0, 709.0]
        x = np.concatenate([edge, rng.uniform(EXP_FLOOR, 20.0, size=2000)])
        assert np.array_equal(_bits(exp_flushed(x)), _bits(np.exp(x)))

    def test_exactly_zero_below_the_floor(self):
        below = np.array([np.nextafter(EXP_FLOOR, -np.inf), -707.5, -730.0, -745.2, -1e300])
        assert np.all(np.exp(below) < 1e-307)
        assert np.array_equal(_bits(exp_flushed(below)), np.zeros(below.size, dtype=np.int64))

    def test_mixed_array_flushes_only_below_the_floor(self, rng):
        x = rng.uniform(-1500.0, 5.0, size=(40, 50))
        low = x < EXP_FLOOR
        assert low.any() and not low.all()
        got = exp_flushed(x)
        assert got.shape == x.shape
        assert np.array_equal(_bits(got[~low]), _bits(np.exp(x[~low])))
        assert np.array_equal(_bits(got[low]), np.zeros(low.sum(), dtype=np.int64))

    @pytest.mark.parametrize("with_underflow", [False, True], ids=["fast", "flushed"])
    def test_nan_and_infinities_map_as_np_exp(self, with_underflow):
        x = np.array([np.nan, np.inf, -np.inf, 1000.0, -1.0, -np.nan])
        if with_underflow:
            x = np.append(x, -800.0)
        with np.errstate(over="ignore"):
            got, want = exp_flushed(x), np.exp(x)
        want[x < EXP_FLOOR] = 0.0
        assert np.array_equal(_bits(got), _bits(want))

    def test_empty_arrays_keep_their_shape(self):
        for shape in [(0,), (3, 0), (0, 4)]:
            got = exp_flushed(np.empty(shape))
            assert got.shape == shape and got.dtype == np.float64

    @pytest.mark.parametrize("value", [-800.0, -np.inf, -1.0, 0.0, np.nan, np.inf])
    def test_zero_d_input_gives_what_np_exp_gives(self, value):
        for x in (np.float64(value), np.array(value), value):
            got, want = exp_flushed(x), np.exp(x)
            assert type(got) is type(want)
            assert _bits(got) == _bits(0.0 if value < EXP_FLOOR else want)
        out = np.empty(())
        assert exp_flushed(np.array(value), out=out) is out
        assert _bits(out) == _bits(0.0 if value < EXP_FLOOR else np.exp(value))

    @pytest.mark.parametrize("low", [-1.0, -2000.0], ids=["fast", "flushed"])
    def test_out_may_alias_the_argument(self, low, rng):
        x = rng.uniform(low, 1.0, size=(30, 7))
        x[0, :2] = [np.nan, -np.inf]
        want = exp_flushed(x.copy())
        got = exp_flushed(x, out=x)
        assert got is x
        assert np.array_equal(_bits(x), _bits(want))
        buffer = np.empty_like(x)
        assert exp_flushed(want, out=buffer) is buffer

    def test_logsumexp_matches_scipy_over_slices_mixing_minus_inf_and_underflow(self, rng):
        x = rng.uniform(-2500.0, 50.0, size=(60, 45))
        x[rng.uniform(size=x.shape) < 0.3] = -np.inf
        x[0] = -np.inf  # a zero-weight row
        x[:, 0] = -np.inf  # and a zero-weight column
        x[1] = -np.inf
        x[1, :3] = [2.0, 2.0 + EXP_FLOOR - 1.0, 2.0 + EXP_FLOOR - 30.0]  # only the peak in range
        x[2] = EXP_FLOOR - 1.0 - rng.uniform(0.0, 60.0, size=45)  # underflow against the origin only
        assert (x[1:] - x[1:].max(axis=1, keepdims=True) < EXP_FLOOR).any()
        for axis in (0, 1):
            got = logsumexp(x, axis=axis)
            with np.errstate(divide="ignore"):
                want = scipy_logsumexp(x, axis=axis)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert logsumexp(x, axis=1)[0] == -np.inf
        assert logsumexp(x, axis=1)[1] == 2.0


def test_budget_rows_fit_the_budget_and_take_at_least_one_row(monkeypatch):
    monkeypatch.setattr("jkoflow.measures.PAIR_BUDGET", 1000)
    assert budget_rows(10) == 100
    assert budget_rows(300) == 3  # rounded down
    assert budget_rows(5000) == 1  # one row even over the budget
    assert budget_rows(10, most=40) == 40
    assert budget_rows(10, most=400) == 100
    assert budget_rows(10, most=0) == 1
