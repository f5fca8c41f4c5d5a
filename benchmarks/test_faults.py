"""Benchmark: the robustness-under-failure sweep.

Runs the paper's failed-fraction grid (resilient PIRA vs the seed
protocol) at benchmark size, checks the curve has the expected shape —
resilient success stays high where the basic protocol degrades — and
writes the numbers to ``BENCH_faults.json`` so the resilience
trajectory of the repository is tracked from this PR onward.
"""

from __future__ import annotations

import time

from conftest import emit
from emit import write_bench_json

from repro.experiments.common import ExperimentConfig
from repro.experiments.faults import FaultSweepSpec, run_sweep

FRACTIONS = (0.0, 0.1, 0.2)


def _spec() -> FaultSweepSpec:
    config = ExperimentConfig.quick().with_overrides(
        peers=256, queries_per_point=60, objects=1200
    )
    return FaultSweepSpec.from_config(
        config, schemes=("pira", "pira-basic"), fractions=FRACTIONS
    )


def test_faults_robustness_curve(benchmark, bench_out):
    spec = _spec()

    start = time.perf_counter()
    outcome = run_sweep(spec, workers=1)
    elapsed = time.perf_counter() - start

    assert outcome.jobs == len(spec.jobs())
    fractions, success = outcome.curve("success_ratio")
    _, completeness = outcome.curve("mean_completeness")

    # Fault-free, both variants retrieve everything.
    assert success["pira"][0] == 1.0
    assert success["pira-basic"][0] == 1.0
    # Under failure, the resilience machinery is the difference: retries +
    # rerouting keep the resilient curve at or above the basic one at every
    # fraction, and strictly better at the worst point.
    for index in range(len(fractions)):
        assert success["pira"][index] >= success["pira-basic"][index]
    assert success["pira"][-1] > success["pira-basic"][-1]
    assert completeness["pira"][-1] > completeness["pira-basic"][-1]

    # Time one representative point through pytest-benchmark for its stats.
    single = FaultSweepSpec.from_config(
        spec.config, schemes=("pira",), fractions=(0.1,)
    )
    benchmark.pedantic(lambda: run_sweep(single, workers=1), rounds=1, iterations=1)

    worst = fractions[-1]
    by_scheme = {
        (record["scheme"], record["failed_fraction"]): record for record in outcome.records
    }
    resilient = by_scheme[("pira", worst)]
    basic = by_scheme[("pira-basic", worst)]
    metrics = {
        "points": outcome.jobs,
        "peers": spec.config.peers,
        "queries_per_point": spec.config.queries_per_point,
        "worst_failed_fraction": worst,
        "wall_seconds": elapsed,
        "success_ratio_resilient": resilient["success_ratio"],
        "success_ratio_basic": basic["success_ratio"],
        "completeness_resilient": resilient["mean_completeness"],
        "completeness_basic": basic["mean_completeness"],
        "retry_overhead_resilient": resilient["retry_overhead"],
        "retries": resilient["retries"],
        "reroutes": resilient["reroutes"],
        "latency_p95_resilient": resilient["latency_p95"],
        "latency_p95_basic": basic["latency_p95"],
    }
    path = write_bench_json("faults", metrics, bench_out)

    emit(
        "Robustness-under-failure benchmark",
        outcome.format()
        + f"\nwall time          : {elapsed:.2f}s"
        + f"\nwrote {path}",
    )
