"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/bench_smoke.py

Each workload runs once untraced and once traced. The tests assert that
every metric named in BENCHMARK.json is printed with its unit, that every
operation passed its output check, and that a second workload seed gives
the same metric set. The file name keeps the default test collection from
picking it up.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXPECTED = {
    0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
    1: {m["name"]: m["unit"] for m in BENCH["per_layer"]},
}


def run(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300,
                          cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_checked(workload, trace):
    lines, result = run(workload, 3, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == EXPECTED[trace]
    for name, unit in EXPECTED[trace].items():
        assert any(re.fullmatch(rf"metric {re.escape(name)} \S+ {re.escape(unit)}", l)
                   for l in lines), name
    assert any(l.startswith("failed_ratio 0 ") for l in lines)
    if trace == 0:
        assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_gives_same_metric_set(workload):
    _, first = run(workload, 3, 0)
    _, second = run(workload, 4, 0)
    assert second["failed"] == 0 and second["correct"]
    assert first["metrics"].keys() == second["metrics"].keys()


def test_fails_without_package(tmp_path):
    """Outside a checkout (no src/), the benchmark exits non-zero and prints no result."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in HERE.glob("*.py"):
        copy.joinpath(f.name).write_bytes(f.read_bytes())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
