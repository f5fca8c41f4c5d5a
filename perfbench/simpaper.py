"""The sim-paper workload: the paper's setting, driven through the simulator.

A 4,000-peer FISSIONE network (the largest network size of the default
bench configuration) built by ``ArmadaSystem``; reads run through the
concurrent ``QueryEngine`` as open-loop Poisson arrivals on the simulated
clock, then one at a time through ``SimSession`` to time single queries.
Every answer is checked against the published values, and the paper's
delay bound (every query within 2·log N hops, the mean below log N) is
checked on every query.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
from typing import Any, Dict, List, Optional

import inputs
import measure
import tracing

PEERS = 4000
SINGLES = 4000
BOXES = 1000
#: Simulated arrival rate (queries per simulated time unit, one unit per hop).
SIM_RATE = 5.0
#: Measured rounds, each an engine batch then a batch of single queries;
#: queries_per_s is the median of the engine rounds.
ROUNDS = 16
#: Share of run time budgeted to the engine, and nominal rates used to
#: size each batch (so a seed and a duration fix the exact work done).
ENGINE_SHARE = 0.5
ENGINE_QPS = 350.0
SINGLE_QPS = 400.0
WARMUP_READS = 150
#: Inserts published between two short calibration slices: one insert
#: takes tens of microseconds, and only a slice a few milliseconds away
#: tracks the host's speed for it.
PUBLISH_CHUNK = 100
#: Share of a whole calibration slice taken between insert chunks.
PUBLISH_SLICE = 0.1
#: Timed set-ups per untraced run; setup_s is their median.
SETUPS = 5


def build(seed: int, speed: Optional[measure.HostSpeed] = None):
    """Build the network and publish the population; returns the system.

    With ``speed``, records the set-up time and every insert's latency,
    publishing in chunks with a calibration slice between them (the
    slices are not part of the set-up time).
    """
    from repro.core.armada import ArmadaSystem

    clock = time.perf_counter
    before = speed.sample() if speed is not None else 0.0
    started = clock()
    interval = (inputs.LOW, inputs.HIGH)
    system = ArmadaSystem(
        num_peers=PEERS,
        seed=inputs.TOPOLOGY_SEED,
        attribute_interval=interval,
        attribute_intervals=(interval, interval),
    )
    elapsed = clock() - started
    objects = [(system.insert, value) for value in inputs.values(seed, SINGLES)]
    objects += [(system.insert_multi, pair) for pair in inputs.pairs(seed, BOXES)]
    if speed is None:
        for insert, value in objects:
            insert(value)
        return system
    after = speed.sample(share=PUBLISH_SLICE)
    raw, scaled = elapsed, elapsed * speed.scale((before, after))
    for offset in range(0, len(objects), PUBLISH_CHUNK):
        before = after
        write_ms = []
        for insert, value in objects[offset : offset + PUBLISH_CHUNK]:
            started = clock()
            insert(value)
            write_ms.append((clock() - started) * 1e3)
        after = speed.sample(share=PUBLISH_SLICE)
        speed.record("write_ms", write_ms, (before, after))
        raw += sum(write_ms) / 1e3
        scaled += sum(write_ms) / 1e3 * speed.scale((before, after))
    speed.keep("setup_s", raw, scaled)
    return system


class Checker:
    """Scores every result and tracks the paper's delay bound."""

    def __init__(self, oracle: inputs.Oracle, log_n: float) -> None:
        self.oracle = oracle
        self.log_n = log_n
        self.attempted = 0
        self.ok = 0
        self.completeness = 0.0
        self.messages = 0
        self.hops_total = 0
        self.hops_max = 0
        self.over_bound = 0
        self.mesg_ratio = 0.0
        self.resilience = [0, 0, 0, 0]

    def check(self, job: inputs.Job, result: Any) -> None:
        self.attempted += 1
        correct, completeness = inputs.score(result, self.oracle.expected(job))
        self.ok += correct and result.complete
        self.completeness += completeness
        self.messages += result.messages
        hops = result.delay_hops
        self.hops_total += hops
        self.hops_max = max(self.hops_max, hops)
        self.over_bound += hops > 2 * self.log_n
        self.mesg_ratio += result.mesg_ratio()
        stats = result.resilience
        for index, value in enumerate(
            (stats.timeouts, stats.retries, stats.reroutes, stats.subtrees_lost)
        ):
            self.resilience[index] += value

    @property
    def delay_bound_holds(self) -> bool:
        return self.over_bound == 0 and self.hops_total / max(1, self.attempted) < self.log_n


def _engine_round(
    system: Any, jobs: List[inputs.Job], peers: List[str], checker: Optional[Checker], seed: int
):
    """Run ``jobs`` as one open-loop batch; returns (seconds, events)."""
    from repro.engine import QueryEngine, QueryJob

    offsets = inputs.arrivals(seed, len(jobs), SIM_RATE)
    now = system.overlay.simulator.now
    batch = []
    by_job: Dict[Any, inputs.Job] = {}
    for job, offset in zip(jobs, offsets):
        origin = peers[job.origin % len(peers)]
        if job.ranges is None:
            query = QueryJob(arrival=now + offset, origin=origin, low=job.low, high=job.high)
        else:
            query = QueryJob(arrival=now + offset, origin=origin, ranges=job.ranges)
        batch.append(query)
        by_job[query] = job
    engine = QueryEngine(system)
    started = time.perf_counter()
    report = engine.run_jobs(batch, mode="open")
    elapsed = time.perf_counter() - started
    if report.queries != len(jobs) or engine.in_flight:
        raise RuntimeError(f"engine completed {report.queries} of {len(jobs)} queries")
    if checker is not None:
        for record in report.completed:
            checker.check(by_job[record.job], record.result)
    return elapsed, report.events


async def _single_queries(system: Any, jobs: List[inputs.Job], peers: List[str], checker: Checker):
    from repro.api.sim import SimSession

    session = SimSession(system)
    clock = time.perf_counter
    latency_ms = []
    for job in jobs:
        request = job.request(peers)
        started = clock()
        reply = await session.submit(request)
        latency_ms.append((clock() - started) * 1e3)
        checker.check(job, reply.result)
    return latency_ms


def _pass(seed: int, seconds: float, setups: int, recorder: Optional[tracing.Recorder]):
    clock = time.perf_counter
    speed = measure.HostSpeed()

    def set_up():
        gc.collect()
        return build(seed, speed)

    system = set_up()
    build_totals = recorder.totals() if recorder is not None else {}
    peers = sorted(system.network.peer_ids())
    oracle = inputs.Oracle(inputs.values(seed, SINGLES), inputs.pairs(seed, BOXES))

    _engine_round(system, inputs.jobs(seed, WARMUP_READS, name="warmup"), peers, None, seed)
    if recorder is not None:
        recorder.reset()
    checker = Checker(oracle, system.log_size())
    engine_per_round = max(10, int(seconds * ENGINE_SHARE * ENGINE_QPS / ROUNDS))
    single_per_round = max(10, int(seconds * (1 - ENGINE_SHARE) * SINGLE_QPS / ROUNDS))
    engine_jobs = inputs.jobs(seed, engine_per_round * ROUNDS, name="engine")
    single_jobs = inputs.jobs(seed, single_per_round * ROUNDS, name="single")
    # Set-ups after the first are spread between the rounds, so their
    # median samples the host at several moments.
    extra_setups_after = set(
        round((index + 1) * ROUNDS / setups) - 1 for index in range(setups - 1)
    )
    events = 0
    engine_seconds = 0.0
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    for index in range(ROUNDS):
        if len(cpus) > 1:
            # Alternate CPUs between rounds: on a shared host each CPU's
            # speed drifts on its own, and the median over rounds then
            # samples both instead of whichever one the run landed on.
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        before = speed.sample()
        chunk = engine_jobs[index * engine_per_round : (index + 1) * engine_per_round]
        elapsed, round_events = _engine_round(system, chunk, peers, checker, seed + index)
        middle = speed.sample()
        speed.record("rate", [len(chunk) / elapsed], (before, middle), kind="rate")
        events += round_events
        engine_seconds += elapsed
        chunk = single_jobs[index * single_per_round : (index + 1) * single_per_round]
        latency_ms = asyncio.run(_single_queries(system, chunk, peers, checker))
        speed.record("read_ms", latency_ms, (middle, speed.sample()))
        if index in extra_setups_after and recorder is None:
            set_up()
    attempted = checker.attempted
    return {
        "attempted": attempted,
        "ok": checker.ok,
        "reads": attempted,
        "completeness": checker.completeness / attempted,
        "msgs_per_query": checker.messages / attempted,
        "mesg_ratio": checker.mesg_ratio / attempted,
        "delay_hops_max": checker.hops_max,
        "delay_hops_mean": checker.hops_total / attempted,
        "timeouts": checker.resilience[0],
        "retries": checker.resilience[1],
        "reroutes": checker.resilience[2],
        "subtrees_lost": checker.resilience[3],
        "timings": speed.timings(),
        "raw_timings": speed.timings(scaled=False),
        "read_windows": measure.latency_summary(speed.raw["read_ms"])["tail_windows"],
        "write_windows": measure.latency_summary(speed.raw["write_ms"])["tail_windows"],
        "checker": checker,
        "events_per_query": events / (engine_per_round * ROUNDS),
        "events_per_s": events / engine_seconds,
        "build_totals": build_totals,
        "rss_mb": measure.rss_peak_mb(),
        "calib_ms": speed.calib_ms,
        "speed": speed,
        "fingerprint": inputs.fingerprint(
            oracle.singles[:50], oracle.pairs[:50], [job.origin for job in engine_jobs[:50]]
        ),
    }


def run(seed: int, seconds: float, trace: bool, out_dir: str) -> Dict[str, Any]:
    if not trace:
        return _pass(seed, seconds, SETUPS, None)
    plain = _pass(seed, seconds, 1, None)
    recorder = tracing.Recorder()
    tracing.install_core(recorder)
    summary = _pass(seed, seconds, 1, recorder)
    summary["plain"] = plain
    summary["totals"] = recorder.totals()
    summary["spans"] = recorder.dump(f"{out_dir}/spans-sim-paper.json")
    return summary
