"""Benchmark: the concurrent query engine under open-loop load.

Measures how fast the engine pushes overlapping in-flight queries through
the discrete-event simulator — events/sec and queries/sec of wall-clock
time, plus the simulated p95 sojourn latency — and writes the numbers to
``BENCH_load.json`` so the perf trajectory is tracked from this
PR onward.
"""

from __future__ import annotations

import time

from conftest import emit
from emit import write_bench_json

from repro.core.armada import ArmadaSystem
from repro.engine import QueryEngine, QueryJob
from repro.sim.rng import DeterministicRNG
from repro.workloads.arrivals import poisson_arrival_times, zipf_range_queries

PEERS = 512
QUERIES = 1500
RATE = 10.0


def _build_system() -> ArmadaSystem:
    system = ArmadaSystem(num_peers=PEERS, seed=42, attribute_interval=(0.0, 1000.0))
    rng = DeterministicRNG(42).substream("bench-values")
    system.insert_many([rng.uniform(0.0, 1000.0) for _ in range(2000)])
    return system


def _make_jobs(system: ArmadaSystem):
    rng = DeterministicRNG(42)
    arrivals = poisson_arrival_times(rng.substream("bench-arrivals"), RATE, QUERIES)
    queries = zipf_range_queries(rng.substream("bench-ranges"), QUERIES, 20.0)
    origin_rng = rng.substream("bench-origins")
    return [
        QueryJob(
            arrival=arrivals[index],
            origin=system.network.random_peer(origin_rng).peer_id,
            low=low,
            high=high,
        )
        for index, (low, high) in enumerate(queries)
    ]


def test_concurrent_engine_throughput(benchmark, bench_out):
    system = _build_system()
    jobs = _make_jobs(system)

    start = time.perf_counter()
    engine = QueryEngine(system)
    report = engine.run_open_loop(jobs)
    elapsed = time.perf_counter() - start

    assert report.queries == QUERIES
    assert engine.in_flight == 0

    # Time a second, smaller batch through pytest-benchmark for its stats.
    small = _make_jobs(system)[:200]
    benchmark.pedantic(
        lambda: QueryEngine(system).run_open_loop(small), rounds=1, iterations=1
    )

    events_per_sec = report.events / elapsed if elapsed > 0 else 0.0
    queries_per_sec = report.queries / elapsed if elapsed > 0 else 0.0
    metrics = {
        "peers": PEERS,
        "queries": report.queries,
        "offered_rate": RATE,
        "wall_seconds": elapsed,
        "events_per_sec": events_per_sec,
        "queries_per_sec": queries_per_sec,
        "sim_throughput": report.throughput,
        "latency_p95": report.latency_percentiles["p95"],
        "delay_p95": report.delay_percentiles["p95"],
        "messages": report.messages,
    }
    path = write_bench_json("load", metrics, bench_out)

    emit(
        "Concurrent load engine benchmark",
        report.format()
        + f"\nwall time          : {elapsed:.2f}s"
        + f"\nevents / sec       : {events_per_sec:,.0f}"
        + f"\nqueries / sec      : {queries_per_sec:,.0f}"
        + f"\nwrote {path}",
    )
