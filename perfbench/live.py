"""The live workloads: load through a pooled v2-JSON session, checked answers.

The cluster and gateway run in a child process (``server.py``); this
process is the load generator and reaches the system only through the
gateway socket, with ``POOL`` connections.  Timings are medians over
repeated rounds or percentiles over whole open-loop phases; exact counts
(messages, hops) come from the replies.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import inputs
import measure

HERE = os.path.dirname(os.path.abspath(__file__))

#: Gateway connections of the load generator (the box has 2 CPUs).
POOL = 2
#: Outstanding requests of the closed loop and of the population load.
CLOSED_OUTSTANDING = 16
#: Reads run (and discarded) before anything is timed.
WARMUP_READS = 300
#: Timed set-ups per untraced run; setup_s is their median.
SETUPS = 5
#: Seconds between the server's speed-probe slices during a set-up and
#: during an open loop (see ``server.PROBE_SHARE``).
SETUP_PROBE_GAP_S = 0.05
OPEN_PROBE_GAP_S = 0.2
#: How long to wait for membership to agree on the crashed peers.
RECOVERY_WAIT_S = 20.0
#: What a failed request raises through the session API.
FAILURES = (RuntimeError, ConnectionError, asyncio.TimeoutError)


@dataclass(frozen=True)
class Shape:
    """Sizing of one live workload."""

    storage: str
    gossip: bool
    #: open-loop operations per second
    rate: float
    #: fraction of open-loop operations that are replicated inserts
    write_share: float = 0.0
    #: closed-loop queries per second of run time budgeted to phase A
    closed_qps: float = 0.0
    peers: int = 32
    nodes: int = 8
    singles: int = 1000
    boxes: int = 250
    write_replicas: int = 3
    #: share of peers crashed a quarter of the way into the open loop
    crash_share: float = 0.0
    #: measured rounds, with a calibration slice between each
    rounds: int = 1


SHAPES: Dict[str, Shape] = {
    "live-read": Shape(storage="memory", gossip=False, rate=400.0, closed_qps=1000.0, rounds=10),
    "live-write": Shape(storage="wal", gossip=False, rate=300.0, write_share=0.5, rounds=5),
    "live-churn": Shape(storage="memory", gossip=True, rate=250.0, crash_share=0.2),
}


class Child:
    """The server process, driven over JSON lines on its stdin/stdout."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process

    @classmethod
    async def spawn(cls, config: Dict[str, Any]) -> "Child":
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            os.path.join(HERE, "server.py"),
            json.dumps(config),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        child = cls(process)
        ready = await child._read()
        if not ready.get("ready"):
            raise RuntimeError(f"server failed to start: {ready}")
        return child

    async def _read(self) -> Dict[str, Any]:
        line = await asyncio.wait_for(self.process.stdout.readline(), 120.0)
        if not line:
            raise RuntimeError("server process exited")
        return json.loads(line)

    async def call(self, cmd: str, **fields: Any) -> Dict[str, Any]:
        self.process.stdin.write((json.dumps({"cmd": cmd, **fields}) + "\n").encode())
        await self.process.stdin.drain()
        reply = await self._read()
        if not reply.get("ok"):
            raise RuntimeError(f"server command {cmd!r} failed: {reply.get('error')}")
        return reply

    async def close(self) -> None:
        if self.process.returncode is None:
            try:
                await self.call("exit")
                await asyncio.wait_for(self.process.wait(), 30.0)
            except (RuntimeError, OSError, asyncio.TimeoutError, ConnectionError):
                self.process.kill()
                await self.process.wait()


@dataclass
class Tally:
    """Per-operation outcomes of the measured phases."""

    attempted: int = 0
    ok: int = 0
    wrong: int = 0
    completeness: List[float] = field(default_factory=list)
    read_latency_ms: List[float] = field(default_factory=list)
    write_latency_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    messages: int = 0
    reads: int = 0
    max_hops: int = 0
    timeouts: int = 0
    retries: int = 0
    reroutes: int = 0
    subtrees_lost: int = 0
    mesg_ratio: float = 0.0
    read_done_at: List[float] = field(default_factory=list)

    def read(self, result: Any, correct: bool, completeness: float, status_ok: bool) -> None:
        self.reads += 1
        self.messages += result.messages
        self.max_hops = max(self.max_hops, result.delay_hops)
        self.mesg_ratio += result.mesg_ratio()
        resilience = result.resilience
        self.timeouts += resilience.timeouts
        self.retries += resilience.retries
        self.reroutes += resilience.reroutes
        self.subtrees_lost += resilience.subtrees_lost
        self.completeness.append(completeness)
        if correct:
            self.ok += 1
        elif status_ok:
            # The gateway called the answer complete, yet it is not.
            self.wrong += 1


async def closed_loop(
    count: int, run_one: Callable[[int], Awaitable[None]], outstanding: int = CLOSED_OUTSTANDING
) -> None:
    """Run ``run_one(0..count-1)`` keeping ``outstanding`` in flight."""
    indices = iter(range(count))

    async def client() -> None:
        for index in indices:
            await run_one(index)

    await asyncio.gather(*(client() for _ in range(min(outstanding, count))))


async def open_loop(
    count: int,
    rate: float,
    run_one: Callable[[int, float], Awaitable[None]],
    late_ms: List[float],
    at_index: Optional[Tuple[int, Callable[[], Awaitable[None]]]] = None,
) -> float:
    """Issue ``run_one(i, due)`` on a fixed-rate schedule; returns its start.

    Each operation is timed by ``run_one`` from its *due* instant, so a
    stall in the generator or the system counts against every operation
    it delays, and ``late_ms`` records how late each was actually issued.
    ``at_index=(i, action)`` runs ``action`` concurrently when operation
    ``i`` is due (the churn workload's crash).
    """
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    gap = 1.0 / rate
    start = clock() + 0.01
    tasks = []
    for index in range(count):
        due = start + index * gap
        wait = due - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        late_ms.append(max(0.0, (clock() - due) * 1e3))
        if at_index is not None and index == at_index[0]:
            tasks.append(loop.create_task(at_index[1]()))
        tasks.append(loop.create_task(run_one(index, due)))
    await asyncio.gather(*tasks)
    return start


async def publish(
    session: Any, singles: Sequence[float], boxes: Sequence[Tuple[float, float]], latency_ms: List[float]
) -> Dict[object, str]:
    """Load the population through the gateway, timing every acknowledged
    insert; returns each key's owner peer."""
    from repro.api.requests import Insert, MultiInsert

    requests = [Insert(value=value) for value in singles]
    requests += [MultiInsert(values=pair) for pair in boxes]
    keys: List[object] = [float(value) for value in singles] + [tuple(pair) for pair in boxes]
    owners: Dict[object, str] = {}
    clock = time.perf_counter

    async def insert(index: int) -> None:
        started = clock()
        reply = await session.submit(requests[index])
        latency_ms.append((clock() - started) * 1e3)
        owners[keys[index]] = reply.owner

    await closed_loop(len(requests), insert)
    return owners


async def run(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: str, cpu: Optional[int]
) -> Dict[str, Any]:
    """Run one live workload; returns the result summary.  ``cpu`` is the
    CPU the server process pins itself to."""
    shape = SHAPES[workload]
    if not trace:
        return await _pass(workload, shape, seed, seconds, False, out_dir, cpu, SETUPS)
    plain = await _pass(workload, shape, seed, seconds, False, out_dir, cpu, setups=1)
    summary = await _pass(workload, shape, seed, seconds, True, out_dir, cpu, setups=1)
    summary["plain"] = plain
    return summary


async def _pass(
    workload: str,
    shape: Shape,
    seed: int,
    seconds: float,
    traced: bool,
    out_dir: str,
    cpu: Optional[int],
    setups: int,
) -> Dict[str, Any]:
    from repro.api.live import LiveSession
    from repro.api.requests import Insert, RequestOptions

    singles = inputs.values(seed, shape.singles)
    boxes = inputs.pairs(seed, shape.boxes)
    oracle = inputs.Oracle(singles, boxes)
    config = {
        "peers": shape.peers,
        "nodes": shape.nodes,
        "storage": shape.storage,
        "gossip": shape.gossip,
        "trace": traced,
        "cpu": cpu,
        "out_dir": out_dir,
        "spans_path": os.path.join(out_dir, f"spans-{workload}.json") if traced else None,
    }
    clock = time.perf_counter
    speed = measure.HostSpeed()
    # Without open-loop writes, the population's inserts are the writes.
    publish_series = "setup_write_ms" if shape.write_share else "write_ms"

    async def calibrate() -> float:
        """One calibration slice on the server's CPU (between rounds only:
        it blocks the server's event loop)."""
        return speed.sample((await child.call("calibrate"))["calib_ms"])

    async def set_up() -> Tuple[Any, List[str], Dict[object, str]]:
        """Boot the cluster and publish the population (one timed set-up)."""
        before = await calibrate()
        await child.call("speed_start", gap=SETUP_PROBE_GAP_S)
        started = clock()
        booted = await child.call("boot")
        session = await LiveSession.connect(*booted["address"], pool=POOL)
        write_ms: List[float] = []
        try:
            owners = await publish(session, singles, boxes, write_ms)
        except BaseException:
            await session.close()
            raise
        elapsed = clock() - started
        probes = await child.call("speed_stop")
        after = await calibrate()
        slices = [before, *(speed.sample(value) for value in probes["calib_ms"]), after]
        # The probe's own slices are not set-up work.
        speed.record("setup_s", [elapsed - probes["spent_s"]], slices)
        speed.record(publish_series, write_ms, slices)
        return session, booted["peers"], owners

    child = await Child.spawn(config)
    session = None
    try:
        session, peers, owners = await set_up()
        victims: List[str] = []
        survivors = peers
        if shape.crash_share > 0:
            rng = inputs.stream(inputs.TOPOLOGY_SEED, "victims")
            victims = sorted(rng.sample(peers, max(1, round(len(peers) * shape.crash_share))))
            survivors = [peer for peer in peers if peer not in victims]

        warmup = inputs.jobs(seed, WARMUP_READS, name="warmup")

        async def warm(index: int) -> None:
            await session.submit(warmup[index].request(survivors))

        # Two outstanding (one per pooled connection): the warm-up must not
        # set the gateway's in-flight high-water mark.
        await closed_loop(len(warmup), warm, outstanding=POOL)

        tally = Tally()
        await child.call("reset")
        crash_sent: List[float] = []
        acked_sorted: List[float] = []
        sent_values: set = set()
        acked_writes: List[float] = []

        def check_read(job: inputs.Job, reply: Any, required: Sequence[object]) -> None:
            allowed = sent_values if job.ranges is None else None
            if crash_sent and clock() >= crash_sent[0]:
                # After the crash the oracle excludes what the dead held.
                dead = set(victims)
                required = [key for key in required if owners.get(key) not in dead]
            correct, completeness = inputs.score(reply.result, required, allowed)
            tally.read(reply.result, correct, completeness, reply.status == "ok")

        def required_for(job: inputs.Job) -> List[object]:
            """Published keys plus writes acknowledged before the read."""
            base = oracle.expected(job)
            if job.ranges is not None or not acked_sorted:
                return base
            left = bisect.bisect_left(acked_sorted, job.low)
            right = bisect.bisect_right(acked_sorted, job.high)
            return sorted(base + acked_sorted[left:right])

        async def read(job: inputs.Job, due: Optional[float]) -> None:
            required = required_for(job)
            try:
                reply = await session.submit(job.request(survivors))
            except FAILURES:
                tally.completeness.append(0.0)
                return
            if due is not None:
                done = clock()
                tally.read_latency_ms.append((done - due) * 1e3)
                tally.read_done_at.append(done)
            check_read(job, reply, required)

        async def write(value: float, due: float) -> None:
            sent_values.add(value)
            try:
                reply = await session.submit(
                    Insert(value=value, options=RequestOptions(replicas=shape.write_replicas))
                )
            except FAILURES:
                return
            tally.write_latency_ms.append((clock() - due) * 1e3)
            if len(reply.replicas) == shape.write_replicas:
                bisect.insort(acked_sorted, value)
                acked_writes.append(value)

        async def crash() -> None:
            crash_sent.append(clock())
            await child.call("crash", peers=victims)

        rounds = shape.rounds
        open_seconds = seconds * (0.5 if shape.closed_qps else 1.0)
        per_round = max(1, int(open_seconds * shape.rate / rounds))
        closed_per_round = max(CLOSED_OUTSTANDING, int(seconds * 0.5 * shape.closed_qps / rounds))
        closed_jobs = inputs.jobs(seed, closed_per_round * rounds, name="closed")
        open_jobs = inputs.jobs(seed, per_round * rounds, name="open")
        write_rng = inputs.stream(seed, "writes")
        is_write = [write_rng.random() < shape.write_share for _ in open_jobs]
        write_values = inputs.values(seed, len(open_jobs), name="write-values")
        for index in range(rounds):
            before = middle = await calibrate()
            if shape.closed_qps:
                chunk = closed_jobs[index * closed_per_round : (index + 1) * closed_per_round]
                started = clock()
                await closed_loop(len(chunk), lambda i, chunk=chunk: read(chunk[i], None))
                rate = len(chunk) / (clock() - started)
                tally.attempted += len(chunk)
                middle = await calibrate()
                speed.record("rate", [rate], (before, middle), kind="rate")
            base = index * per_round

            async def open_op(i: int, due: float, base: int = base) -> None:
                if is_write[base + i]:
                    await write(write_values[base + i], due)
                else:
                    await read(open_jobs[base + i], due)

            reads_before = len(tally.read_latency_ms)
            writes_before = len(tally.write_latency_ms)
            at_index = (per_round // 4, crash) if victims else None
            await child.call("speed_start", gap=OPEN_PROBE_GAP_S)
            open_start = await open_loop(per_round, shape.rate, open_op, tally.late_ms, at_index)
            probes = (await child.call("speed_stop"))["calib_ms"]
            tally.attempted += per_round
            after = await calibrate()
            slices = [middle, *(speed.sample(value) for value in probes), after]
            speed.record("read_ms", tally.read_latency_ms[reads_before:], slices)
            speed.record("write_ms", tally.write_latency_ms[writes_before:], slices)
            if not shape.closed_qps:
                # Reads completed per second of the open phase: the offered
                # rate unless the system falls behind, so it is not scaled.
                done = tally.read_done_at[reads_before:]
                completed = len(done) / (max(done) - open_start) if done else 0.0
                speed.record("rate", [completed], slices, kind="fixed")

        # Every acknowledged write must be readable afterwards.
        lost: List[float] = []

        async def verify(index: int) -> None:
            value = acked_writes[index]
            reply = await session.get(value)
            if value not in [float(found) for found in reply.values]:
                lost.append(value)

        await closed_loop(len(acked_writes), verify)

        report = await child.call("report")
        if victims:
            waited = clock()
            while report["recovery_s"] is None and clock() - waited < RECOVERY_WAIT_S:
                await asyncio.sleep(0.05)
                report = await child.call("report")

        # The remaining set-ups are timed after the measured phase, so the
        # set-up median samples the host at more than one moment.
        for _ in range(setups - 1):
            await session.close()
            session = None
            session, _, _ = await set_up()
    finally:
        if session is not None:
            await session.close()
        await child.close()

    return {
        "timings": speed.timings(),
        "raw_timings": speed.timings(scaled=False),
        "read_windows": measure.latency_summary(speed.raw["read_ms"])["tail_windows"],
        "write_windows": measure.latency_summary(speed.raw["write_ms"])["tail_windows"],
        "attempted": tally.attempted,
        "ok": tally.ok + len(acked_writes) - len(lost),
        "wrong": tally.wrong,
        "lost_writes": len(lost),
        "completeness": sum(tally.completeness) / max(1, len(tally.completeness)),
        "msgs_per_query": tally.messages / max(1, tally.reads),
        "delay_hops_max": tally.max_hops,
        "mesg_ratio": tally.mesg_ratio / max(1, tally.reads),
        "reads": tally.reads,
        "acked_writes": len(acked_writes),
        "rss_mb": report["rss_mb"],
        "calib_ms": speed.calib_ms,
        "speed": speed,
        "late_p99_ms": measure.quantile(sorted(tally.late_ms), 0.99),
        "timeouts": tally.timeouts,
        "retries": tally.retries,
        "reroutes": tally.reroutes,
        "subtrees_lost": tally.subtrees_lost,
        "recovery_s": report.get("recovery_s"),
        "recovered": report.get("recovery_s") is not None or not victims,
        "server": report,
        "fingerprint": inputs.fingerprint(
            singles[:50], boxes[:50], [job.origin for job in open_jobs[:50]], victims
        ),
    }
