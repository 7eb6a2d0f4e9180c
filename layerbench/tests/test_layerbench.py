"""Self-tests of the layered benchmark, on the tiny size of every workload.

Run from the repository root::

    python3 -m pytest -q layerbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "layerbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path: Path, workload: str, *extra: str, trace: int = 0,
          seed: int = 5, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "layerbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--size", "tiny", "--out", str(tmp_path), *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def result_line(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    result = result_line(bench(tmp_path, workload, trace=trace))
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        for metric in result["metrics"].values():
            assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_reference_is_rejected(tmp_path, workload):
    # Every reference five times too large: no estimate can pass.
    result = result_line(bench(tmp_path, workload, "--reference-shift", "4"))
    assert result["correct"] is False
    assert result["failed"] >= 1
    record = json.loads(
        (tmp_path / f"{workload}-seed5-trace0.json").read_text())
    cases = [case for run in record["cases"] for case in run]
    assert any(not case["passed"] for case in cases)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_digests_and_event_counts(tmp_path, workload):
    records = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        result_line(bench(out, workload, seed=11))
        records.append(json.loads(
            (out / f"{workload}-seed11-trace0.json").read_text())["runs"])
    first, second = records
    assert first == second
    text = json.dumps(first)
    assert '"digests"' in text and '"events"' in text and '"engine"' in text


def test_the_engine_that_ran_is_recorded(tmp_path):
    result_line(bench(tmp_path, "mmk-replicas"))
    record = json.loads(
        (tmp_path / "mmk-replicas-seed5-trace0.json").read_text())
    replicas = record["runs"][0]["replicas"]
    assert replicas and all(r["engine"] == "fastpath" for r in replicas)

    result_line(bench(tmp_path, "cluster-event"))
    record = json.loads(
        (tmp_path / "cluster-event-seed5-trace0.json").read_text())
    run = record["runs"][0]
    assert run["engine"] == "event"
    # qualifies() is asked before the run, so the reason is the real one.
    assert run["fastpath_reason"] == "target RandomBalancer is not a plain Server"


def test_leftover_threads_and_processes_are_found():
    sys.path.insert(0, str(ROOT))
    from layerbench.run import leftovers

    assert leftovers() == ""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert "live threads" in leftovers()
    finally:
        release.set()
        thread.join()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert leftovers() == "live child process"
    finally:
        child.kill()
    # Wait until it has exited, without reaping it.
    os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
    assert leftovers() == "unreaped child process"
    child.wait()
    assert leftovers() == ""


def test_fails_without_the_program_sources(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no result.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "layerbench", tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = bench(tmp_path / "out", "cluster-event", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
