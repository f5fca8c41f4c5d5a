"""Self-test of the benchmark: steady exact counts, seeded inputs, isolation.

Runs every workload at smoke size (``--seconds 1``) in a subprocess.
Not part of the tier-1 suite; run it with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sim-paper", "live-read", "live-write", "live-churn")
FAULT_FREE = ("sim-paper", "live-read", "live-write")
#: End-to-end counts that must repeat exactly for one seed.
EXACT = ("msgs_per_query", "delay_hops_max", "ok_ratio")
#: Per-layer counts that must repeat exactly for one seed.
EXACT_TRACED = ("sim.events_per_query", "core.mesg_ratio", "core.handle_message.calls_per_query")


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(cwd, "perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return completed


def result_of(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    fingerprint = next(line for line in lines if line.startswith("workload ")).split()[-1]
    return json.loads(lines[-1]), fingerprint


def values(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_and_seed_changes_inputs(workload):
    first, first_inputs = result_of(bench(workload, 7, 0))
    second, second_inputs = result_of(bench(workload, 7, 0))
    assert first["correct"] and second["correct"]
    assert first_inputs == second_inputs
    if workload in FAULT_FREE:
        for name in EXACT:
            assert values(first)[name] == values(second)[name], name
        assert values(first)["ok_ratio"] == 1.0
        assert first["failed"] == 0
    _, other_inputs = result_of(bench(workload, 8, 0))
    assert other_inputs != first_inputs


@pytest.mark.parametrize("workload", FAULT_FREE)
def test_traced_counts_repeat(workload):
    first, _ = result_of(bench(workload, 7, 1))
    second, _ = result_of(bench(workload, 7, 1))
    for name in EXACT_TRACED:
        assert values(first)[name] == values(second)[name], name
    assert values(first)["host.calib_ms"] > 0
    assert values(first)["core.handle_message.calls_per_query"] > 0
    assert values(first)["faults.subtrees_lost"] == 0


def test_wrappers_wrap_once_and_rebind_importers():
    import repro.runtime.protocol as protocol
    import repro.runtime.transport as transport
    from repro.core.partition_tree import PartitionTree

    originals = {
        "label": PartitionTree.__dict__["label_for_value"],
        "encode": protocol.encode_frame,
    }
    try:
        recorder = tracing.Recorder()
        tracing.install_core(recorder)
        tracing.install_runtime(recorder)
        tracing.install_core(recorder)
        tracing.install_runtime(recorder)
        wrapped = PartitionTree.__dict__["label_for_value"]
        assert wrapped.__wrapped__ is originals["label"]
        assert protocol.encode_frame.__wrapped__ is originals["encode"]
        assert transport.encode_frame is protocol.encode_frame
        protocol.encode_frame({"type": "ping"})
        assert recorder.totals()["runtime.encode_frame"]["calls"] == 1
    finally:
        PartitionTree.label_for_value = originals["label"]
        protocol.encode_frame = originals["encode"]
        transport.encode_frame = originals["encode"]


def test_self_time_excludes_wrapped_children():
    recorder = tracing.Recorder()
    inner = recorder.wrap(lambda: sum(range(20000)), "inner")
    outer = recorder.wrap(lambda: inner() + inner(), "outer")
    outer()
    totals = recorder.totals()
    assert totals["inner"]["calls"] == 2
    child_time = totals["inner"]["total_s"]
    assert totals["outer"]["self_s"] == pytest.approx(totals["outer"]["total_s"] - child_time)
    assert list(recorder.span_parent) == [-1, 0, 0]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = bench("sim-paper", 1, 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout


def test_windows_cover_every_sample():
    samples = list(range(1000))
    parts = measure.windows(samples, 400)
    assert [len(part) for part in parts] == [500, 500]
    assert sum(parts, []) == samples
    assert measure.windowed_quantile([[1, 2, 3], [10, 20, 30], [4, 5, 6]], 0.5) == 5


def test_inputs_are_seeded():
    assert inputs.jobs(3, 50) == inputs.jobs(3, 50)
    assert inputs.jobs(3, 50) != inputs.jobs(4, 50)
    share = sum(job.ranges is not None for job in inputs.jobs(3, 2000)) / 2000
    assert abs(share - inputs.MIRA_SHARE) < 0.05
