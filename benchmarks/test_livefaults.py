"""Benchmark: serving under churn — SIGKILL mid-soak, gossip detection.

Boots the gossip-enabled live cluster at the acceptance scale (32 peers
on 8 nodes), runs the deterministic mixed workload, and hard-kills 20% of
the peers mid-run.  Nothing is told about the failures out of band: the
SWIM plane must detect them and withdraw routes while the resilience
layer detours queries around the holes.

The assertions double as the acceptance bar: the membership views must
converge on the deaths, and the live resilient success ratio — scored
against surviving-peer ground truth, exactly like the simulated sweep —
must land within 0.10 of the committed sim figure at the same failed
fraction (``BENCH_faults.json``, ``success_ratio_resilient``).
``BENCH_livefaults.json`` records the run for the bench gate.
"""

from __future__ import annotations

import json
import os
import time

from conftest import emit
from emit import write_bench_json

from repro.experiments.livefaults import LiveFaultsSpec, run as run_livefaults

#: live success must land within this gap of the sim baseline
SIM_GAP = 0.10


def _sim_success_ratio() -> float:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_faults.json")
    with open(path, "r", encoding="utf-8") as handle:
        return float(json.load(handle)["metrics"]["success_ratio_resilient"])


def test_livefaults_serving_under_churn(benchmark, bench_out):
    spec = LiveFaultsSpec()  # 32 peers, fraction 0.2, seed 1

    start = time.perf_counter()
    result = run_livefaults(spec)
    elapsed = time.perf_counter() - start

    # Detection: every surviving view converged on exactly the victims.
    assert result.converged, "membership views never converged on the deaths"
    assert result.detection_seconds < spec.convergence_timeout
    assert len(result.killed) == spec.victims

    # Serving: the live ratio must sit near the sim's resilient figure at
    # the same failed fraction — neither collapsing (detection too slow,
    # detours broken) nor implausibly perfect relative to the model.
    sim_ratio = _sim_success_ratio()
    assert abs(result.success_ratio - sim_ratio) <= SIM_GAP, (
        f"live success ratio {result.success_ratio:.4f} outside "
        f"{SIM_GAP:g} of sim {sim_ratio:.4f}"
    )
    assert result.report.queries == spec.queries

    # Time a small run through pytest-benchmark for its stats.
    small = LiveFaultsSpec(
        peers=8, nodes=4, queries=60, objects=120, fraction=0.25, concurrency=8
    )
    benchmark.pedantic(lambda: run_livefaults(small), rounds=1, iterations=1)

    metrics = dict(result.bench_metrics())
    metrics["sim_success_ratio"] = sim_ratio
    metrics["sim_gap"] = result.success_ratio - sim_ratio
    path = write_bench_json("livefaults", metrics, bench_out)

    emit(
        "Serving-under-churn benchmark",
        result.format(baseline={"success_ratio_resilient": sim_ratio})
        + f"\nwall time         : {elapsed:.2f}s (whole experiment)"
        + f"\nwrote {path}",
    )
