"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUT, ROOT  # noqa: E402

WORKLOADS = ("lightspeed_mlp", "general_mlp", "general_linear", "ragged_ot", "ragged_exact")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines = _run(workload, trace=0)
    printed = {line.split()[1]: line for line in lines if line.startswith("metric ")}
    assert set(printed) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert f" {unit}" in printed[name] and "lower is better" in printed[name]
    assert lines[0].startswith("env ") and "loadavg_1m_at_start" in lines[0]
    result = _result(lines)
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    if workload == "ragged_ot":
        # the Sinkhorn stopping rule is looser than the coupling marginal check
        assert result["failed"] > 0 and not result["correct"]
    else:
        assert result["correct"], lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_well_formed_spans(workload):
    lines = _run(workload, trace=1)
    result = _result(lines)
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trainer.fit.calls"] == 1 and metrics["ot.solves_per_transition"] == 1
    spans = json.loads((OUT / f"trace_{workload}_seed3.json").read_text())["spans"]
    assert spans
    for index, (name, start, end, parent, _stats) in enumerate(spans):
        assert -1 <= parent < index, name
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name
    if workload != "ragged_ot":
        assert result["correct"], lines


def test_traced_counts_repeat_exactly():
    first, second = (_result(_run("general_mlp", trace=1))["metrics"] for _ in range(2))
    for name, value in first.items():
        if value["unit"] == "count":
            assert second[name]["value"] == value["value"], name


def test_missing_program_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, str(bench / "run.py"), "--workload", "general_mlp", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
