"""Smoke coverage of the benchmark: every workload, both modes, tiny runs.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench/test_smoke.py -q

Each run (``--seconds 0``) serves one warm-up and one measured request per
client after the workload's set-ups, and must pass its output check and
print every metric that ``BENCHMARK.json`` names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", "3", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_prints_every_metric_and_passes_its_check(workload, trace):
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, completed.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in wanted]
    for entry in wanted:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if trace:
        assert result["metrics"]["arch.cold_events"]["value"] == 0
        assert result["metrics"]["session.failed_share"]["value"] == 0
        digests = [
            line.split(":", 1)[1]
            for line in completed.stdout.splitlines()
            if line.startswith(("untraced:", "traced:"))
        ]
        assert len(digests) == 2 and digests[0] == digests[1]
        assert "patches restored: True" in completed.stdout
    else:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_every_per_layer_metric_has_one_layer():
    layers = json.loads((BENCH / "layer_map.json").read_text())["layers"]
    mapped = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(entry["name"] for entry in SPEC["per_layer"])
    for layer, entry in layers.items():
        assert all(name.startswith(layer + ".") for name in entry["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    completed = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
