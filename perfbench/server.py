"""The process under test for the live workloads: a cluster behind a gateway.

Started by the benchmark as a child process.  Load reaches the system
only through the gateway's TCP socket; this process's stdin/stdout carry
JSON-line control commands (boot, reset, crash, calibrate, speed_start,
speed_stop, report, exit) that the load generator cannot issue through
the gateway.  Usage::

    python3 perfbench/server.py '{"peers": 32, "nodes": 8, "storage": "memory",
                                  "gossip": false, "trace": false}'

It prints ``{"ready": true}`` once imported, then answers each command
line with one JSON line.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402  (after the sys.path set-up)
import measure  # noqa: E402
import tracing  # noqa: E402

INTERVAL = (inputs.LOW, inputs.HIGH)

#: Gossip timing: brisk enough that detection ends well inside a run,
#: still multi-round (ping, indirect ping, suspicion) so the protocol is
#: exercised rather than short-circuited.
SWIM_TIMING = dict(interval=0.1, ping_timeout=0.1, indirect_timeout=0.15, suspicion_timeout=0.6)
#: Resilience policy of the churn workload (wall-clock seconds).
HOP_TIMEOUT_S = 0.3
HOP_RETRIES = 2
#: The speed probe runs a tenth of a calibration slice (about 2.5 ms) on
#: the event loop every ``gap`` seconds of a measured phase: every 0.2 s
#: of an open loop (about 1% of the loop's time), every 0.05 s of a
#: set-up.  The host's speed flips within seconds, so slices taken only
#: before and after a phase miss what it ran at; the probe samples it
#: throughout.
PROBE_SHARE = 0.1


class Server:
    """Owns one cluster + gateway at a time and the traced-run probes."""

    def __init__(self, config: Dict[str, Any]) -> None:
        self.config = config
        self.recorder: Optional[tracing.Recorder] = None
        if config.get("trace"):
            self.recorder = tracing.Recorder()
            tracing.install_core(self.recorder)
            tracing.install_runtime(self.recorder)
        self.cluster: Any = None
        self.gateway: Any = None
        self.registry: Any = None
        self.data_dir: Optional[str] = None
        self.boots = 0
        self.lag_ms: List[float] = []
        self._probe: Optional[asyncio.Task] = None
        self._watch: Optional[asyncio.Task] = None
        self._speed: Optional[asyncio.Task] = None
        self.speed_ms: List[float] = []
        #: calibration slices run on the loop so far; the lag probe drops
        #: a sample that one of them delayed
        self.slices_run = 0
        self.window_start = time.perf_counter()
        self.frames_at_start = 0.0
        self.crashed: List[str] = []
        self.crash_at: Optional[float] = None
        self.recovery_s: Optional[float] = None

    async def boot(self) -> Dict[str, Any]:
        from repro.faults import ResiliencePolicy
        from repro.gossip import SwimConfig
        from repro.runtime.cluster import LiveCluster
        from repro.runtime.gateway import Gateway
        from repro.runtime.server import build_observability

        await self.stop()
        storage = self.config.get("storage", "memory")
        if storage != "memory":
            self.data_dir = os.path.join(self.config["out_dir"], f"store-{self.boots}")
            shutil.rmtree(self.data_dir, ignore_errors=True)
        self.boots += 1
        gossip = bool(self.config.get("gossip"))
        cluster = LiveCluster(
            num_peers=int(self.config["peers"]),
            seed=inputs.TOPOLOGY_SEED,
            num_nodes=int(self.config["nodes"]),
            attribute_interval=INTERVAL,
            attribute_intervals=(INTERVAL, INTERVAL),
            storage=storage,
            data_dir=self.data_dir,
            gossip=gossip,
            gossip_config=SwimConfig(**SWIM_TIMING) if gossip else None,
        )
        await cluster.start()
        if gossip:
            policy = ResiliencePolicy(
                per_hop_timeout=HOP_TIMEOUT_S, max_retries=HOP_RETRIES, reroute=True
            )
            cluster.pira.set_resilience(policy)
            cluster.mira.set_resilience(policy)
        _, self.registry = build_observability(cluster)
        self.cluster = cluster
        self.gateway = await Gateway(cluster, metrics=self.registry).start()
        return {
            "address": list(self.gateway.address),
            "peers": sorted(cluster.network.peer_ids()),
        }

    async def stop(self) -> None:
        for task in (self._probe, self._watch, self._speed):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._probe = self._watch = self._speed = None
        if self.gateway is not None:
            await self.gateway.shutdown(drain=True)
            self.gateway = None
        if self.cluster is not None:
            await self.cluster.stop()
            self.cluster = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def reset(self) -> Dict[str, Any]:
        """Open the measured window: forget spans and start the lag probe."""
        if self.recorder is not None:
            self.recorder.reset()
            if self._probe is None:
                self._probe = asyncio.get_running_loop().create_task(self._lag_probe())
        self.lag_ms = []
        self.window_start = time.perf_counter()
        self.frames_at_start = self.gossip_frames()
        return {}

    def gossip_frames(self) -> float:
        """Gossip frames sent so far, from the public metrics registry."""
        return sum(
            value
            for name, value in self.registry.snapshot().items()
            if name.split("{")[0].endswith("gossip_frames_total")
        )

    async def _lag_probe(self) -> None:
        """Sleep 1 ms at a time and record the overshoot: the time work
        on this loop made a ready task wait (not counting the benchmark's
        own calibration slices)."""
        clock = time.perf_counter
        while True:
            before = clock()
            slices_before = self.slices_run
            await asyncio.sleep(0.001)
            if self.slices_run == slices_before:
                self.lag_ms.append(max(0.0, (clock() - before - 0.001) * 1e3))

    def calibrate(self, share: float = 1.0) -> float:
        """Run one calibration slice on this loop."""
        self.slices_run += 1
        return measure.calibrate_ms(share)

    def speed_start(self, gap: float) -> Dict[str, Any]:
        """Start sampling the host's speed on this loop (see PROBE_SHARE)."""
        self.speed_ms = []
        self._speed = asyncio.get_running_loop().create_task(self._speed_probe(gap))
        return {}

    async def speed_stop(self) -> Dict[str, Any]:
        """Stop the speed probe; returns its slices, in whole-slice ms, and
        the seconds they took."""
        if self._speed is not None:
            self._speed.cancel()
            try:
                await self._speed
            except asyncio.CancelledError:
                pass
            self._speed = None
        spent_s = sum(self.speed_ms) * PROBE_SHARE / 1e3
        return {"calib_ms": self.speed_ms, "spent_s": spent_s}

    async def _speed_probe(self, gap: float) -> None:
        while True:
            await asyncio.sleep(gap)
            self.speed_ms.append(self.calibrate(PROBE_SHARE))

    def crash(self, peers: List[str]) -> Dict[str, Any]:
        """Hard-kill ``peers`` through the cluster's crash API, then watch
        for every surviving view to agree on the deaths."""
        for peer in peers:
            self.cluster.crash_peer(peer)
        self.crashed = list(peers)
        self.crash_at = time.perf_counter()
        self.recovery_s = None
        self._watch = asyncio.get_running_loop().create_task(self._watch_recovery())
        return {}

    async def _watch_recovery(self) -> None:
        while not self.cluster.membership_converged(expect_dead=self.crashed):
            await asyncio.sleep(0.005)
        self.recovery_s = time.perf_counter() - self.crash_at

    def report(self) -> Dict[str, Any]:
        window = time.perf_counter() - self.window_start
        report: Dict[str, Any] = {
            "window_s": window,
            "peers": self.cluster.network.size,
            "peak_in_flight": self.gateway.peak_in_flight,
            "gossip_frames": self.gossip_frames() - self.frames_at_start,
            "recovery_s": self.recovery_s,
            "rss_mb": measure.rss_peak_mb(),
        }
        if self.recorder is not None:
            lags = sorted(self.lag_ms)
            report["totals"] = self.recorder.totals()
            report["loop_lag_p99_ms"] = measure.quantile(lags, 0.99)
            spans_path = self.config.get("spans_path")
            if spans_path:
                report["spans"] = self.recorder.dump(spans_path)
        return report


async def main(config: Dict[str, Any]) -> None:
    server = Server(config)
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)

    def answer(payload: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    answer({"ready": True})
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            command = json.loads(line)
            name = command.get("cmd")
            try:
                if name == "boot":
                    reply = await server.boot()
                elif name == "reset":
                    reply = server.reset()
                elif name == "crash":
                    reply = server.crash(command["peers"])
                elif name == "report":
                    reply = server.report()
                elif name == "calibrate":
                    reply = {"calib_ms": server.calibrate()}
                elif name == "speed_start":
                    reply = server.speed_start(float(command["gap"]))
                elif name == "speed_stop":
                    reply = await server.speed_stop()
                elif name == "exit":
                    answer({"ok": True})
                    break
                else:
                    raise ValueError(f"unknown command {name!r}")
            except Exception as exc:  # report to the benchmark, keep serving
                answer({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
                continue
            reply["ok"] = True
            answer(reply)
    finally:
        await server.stop()


if __name__ == "__main__":
    settings = json.loads(sys.argv[1])
    if settings.get("cpu") is not None:
        os.sched_setaffinity(0, {settings["cpu"]})
    asyncio.run(main(settings))
