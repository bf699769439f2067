"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Drives ``run.py --quick --trace`` (all five workloads at a tenth of the
size, both passes, same code paths) and validates what it prints and
writes against the name lists in ``BENCHMARK.json`` and ``metrics.py``.
Tier-1 (``testpaths = tests``) does not collect this directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metric_catalogue():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in CONTRACT["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]
    } == {name: entry[:2] for name, entry in PER_LAYER.items()}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"][-1] == "benchmarks/e2e/run.py"


def test_quick_run_of_all_five_workloads(tmp_path):
    result_path = tmp_path / "result.json"
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace",
         "--seed", "3", "--out", str(result_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    assert "host loopback" in child.stdout
    result = json.loads(result_path.read_text())
    assert list(result["workloads"]) == list(WORKLOADS)
    for key in ("nproc", "python", "platform", "aes_backend", "git_commit",
                "seed", "loadavg_1m"):
        assert key in result["environment"]
    for name, record in result["workloads"].items():
        (run,) = record["runs"]
        assert set(run["values"]) == set(END_TO_END), name
        assert all(value > 0 for value in run["values"].values()), name
        assert run["failed"] == 0 and run["extras"]["failed_share"] == 0
        assert set(record["traced"]["values"]) == set(PER_LAYER), name
        assert record["traced"]["failed"] == 0
        assert (HERE / "out" / f"trace-{name}.json").exists()
    # compare.py accepts a file against itself: every row within.
    child = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         str(result_path), str(result_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert "worse" not in child.stdout.split("\n\n")[0], child.stdout


def test_single_workload_prints_the_contract_line():
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "inproc-keys",
         "--seed", "5", "--seconds", "10", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr[-3000:]
    line = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in line["metrics"].items()
    } == {name: entry[0] for name, entry in END_TO_END.items()}
