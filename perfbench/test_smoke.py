"""Smoke test of the benchmark harness on one tiny round per workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ranks", "enumerate", "polarize"])
def test_tiny_run_prints_every_metric(workload, trace):
    res = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in names)


def test_refuses_without_sources():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    res = _run(bare, "--workload", "ranks", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_records_agree_on_meeting_intervals():
    exact = {"eq": "{}", "iv": [3, 3]}
    assert workloads.records_agree(exact, {"eq": "{}", "iv": [3, 32]})
    assert not workloads.records_agree(exact, {"eq": "{}", "iv": [4, 32]})
    assert not workloads.records_agree(exact, {"eq": '{"a":1}', "iv": [3, 3]})


def test_decks_are_seeded():
    a, b = workloads.build_deck("ranks", 5, tiny=True), workloads.build_deck("ranks", 5, tiny=True)
    assert [op.payload for op in a] == [op.payload for op in b]
    assert [op.payload for op in a] != [op.payload for op in workloads.build_deck("ranks", 6, tiny=True)]
