"""Repository benchmark: one command, four workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 12 --trace 0

Workloads: ``sim-paper`` (the simulator at the paper's scale),
``live-read``, ``live-write`` and ``live-churn`` (a live cluster behind a
gateway, in a child process).  ``--trace 0`` measures and prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
again with spans around each layer's public entry points, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when an answer check or an invariant fails.  Outputs (span
files, write-ahead logs) go to ``.perfbench_out/`` only.  See
``perfbench/README.md`` for what each metric means and which layer moves
which metric.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("sim-paper", "live-read", "live-write", "live-churn")


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in BENCHMARK.json, the one list both this script and the
    driver read."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)[kind]
    return {entry["name"]: entry["unit"] for entry in declared}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


#: Tail latencies, reported by the traced run (from its untraced pass) as
#: metrics without a bound: on a shared host their spread between runs
#: was too wide to gate on (see README.md).
TAILS = {"latency_p95_ms": "tail.latency_p95_ms", "write_p95_ms": "tail.write_p95_ms"}


def end_to_end(summary: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics; timings at the reference host speed."""
    attempted = summary["attempted"]
    timings = summary["timings"]
    return {
        **{name: value for name, value in timings.items() if name not in TAILS},
        "ok_ratio": summary["ok"] / attempted,
        "completeness": summary["completeness"],
        "msgs_per_query": summary["msgs_per_query"],
        "delay_hops_max": float(summary["delay_hops_max"]),
        "peak_rss_mb": summary["rss_mb"],
    }


def per_layer(summary: Dict[str, Any], totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    from tracing import calls_of, per_call_us

    queries = max(1, summary["reads"])
    writes = max(1, summary.get("acked_writes", 0))
    server = summary.get("server", {})
    peer_seconds = max(1e-9, server.get("peers", 0) * server.get("window_s", 0.0))
    build = summary.get("build_totals", {}).get("fissione.build", {})
    return {
        "core.label_for_value.calls_per_query": calls_of(totals, "core.label_for_value") / queries,
        "core.label_for_value.us_per_call": per_call_us(totals, "core.label_for_value"),
        "fissione.owner_id.calls_per_query": calls_of(totals, "fissione.owner_id") / queries,
        "fissione.owner_id.us_per_call": per_call_us(totals, "fissione.owner_id"),
        "fissione.out_neighbors.calls_per_query": calls_of(totals, "fissione.out_neighbors")
        / queries,
        "fissione.out_neighbors.us_per_call": per_call_us(totals, "fissione.out_neighbors"),
        "fissione.build_s": build.get("total_s", 0.0),
        "core.start.us_per_call": per_call_us(totals, "core.start"),
        "core.handle_message.calls_per_query": calls_of(totals, "core.handle_message") / queries,
        "core.handle_message.self_us_per_call": per_call_us(
            totals, "core.handle_message", key="self_s"
        ),
        "core.mesg_ratio": summary["mesg_ratio"],
        "sim.events_per_query": summary.get("events_per_query", 0.0),
        "sim.events_per_s": summary.get("plain", summary).get("events_per_s", 0.0),
        "runtime.encode_frame.calls_per_query": calls_of(totals, "runtime.encode_frame") / queries,
        "runtime.encode_frame.us_per_call": per_call_us(totals, "runtime.encode_frame"),
        "runtime.decode_frame.calls_per_query": calls_of(totals, "runtime.decode_frame") / queries,
        "runtime.decode_frame.us_per_call": per_call_us(totals, "runtime.decode_frame"),
        "runtime.message_codec.us_per_call": per_call_us(
            totals, "runtime.message_to_wire", "runtime.wire_to_message"
        ),
        "runtime.wire_bytes_per_query": totals.get("runtime.encode_frame", {}).get("amount", 0.0)
        / queries,
        "runtime.transport_send.calls_per_query": calls_of(totals, "runtime.transport_send")
        / queries,
        "runtime.transport_send.us_per_call": per_call_us(totals, "runtime.transport_send"),
        "runtime.gateway_peak_in_flight": float(server.get("peak_in_flight", 0)),
        "runtime.loop_lag_p99_ms": server.get("loop_lag_p99_ms", 0.0),
        "storage.put.calls_per_write": calls_of(totals, "storage.put") / writes
        if summary.get("acked_writes")
        else 0.0,
        "storage.put.us_per_call": per_call_us(totals, "storage.put"),
        "storage.sync.calls_per_write": calls_of(totals, "storage.sync") / writes
        if summary.get("acked_writes")
        else 0.0,
        "storage.sync.us_per_call": per_call_us(totals, "storage.sync"),
        "gossip.handle_frame.calls_per_peer_s": calls_of(totals, "gossip.handle_frame")
        / peer_seconds,
        "gossip.handle_frame.us_per_call": per_call_us(totals, "gossip.handle_frame"),
        "gossip.frames_per_peer_s": server.get("gossip_frames", 0.0) / peer_seconds,
        "gossip.recovery_s": summary.get("recovery_s") or 0.0,
        "faults.timeouts_per_query": summary["timeouts"] / queries,
        "faults.retries_per_query": summary["retries"] / queries,
        "faults.reroutes_per_query": summary["reroutes"] / queries,
        "faults.subtrees_lost": float(summary["subtrees_lost"]),
        **{tail: summary["plain"]["timings"][name] for name, tail in TAILS.items()},
        "gen.late_p99_ms": summary.get("late_p99_ms", 0.0),
        "host.calib_ms": summary["calib_ms"],
        # Both p50s at the reference host speed, so host drift between
        # the passes cancels.
        "trace.overhead_ratio": summary["timings"]["latency_p50_ms"]
        / summary["plain"]["timings"]["latency_p50_ms"],
    }


def sim_summary(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import simpaper

    summary = simpaper.run(seed, seconds, trace, OUT_DIR)
    checker = summary.pop("checker")
    summary.get("plain", {}).pop("checker", None)
    problems = []
    if not checker.delay_bound_holds:
        problems.append(
            f"delay bound broken: {checker.over_bound} queries over 2*logN, "
            f"mean {summary['delay_hops_mean']:.2f} hops vs logN {checker.log_n:.2f}"
        )
    if checker.ok != checker.attempted:
        problems.append(f"{checker.attempted - checker.ok} wrong or incomplete answers")
    summary["problems"] = problems
    return summary


def live_summary(
    workload: str, seed: int, seconds: float, trace: bool, cpu: Optional[int]
) -> Dict[str, Any]:
    import live

    summary = asyncio.run(live.run(workload, seed, seconds, trace, OUT_DIR, cpu))
    problems = []
    if summary["wrong"]:
        problems.append(f"{summary['wrong']} answers marked complete were wrong")
    if summary["lost_writes"]:
        problems.append(f"{summary['lost_writes']} acknowledged writes were not found")
    if not summary["recovered"]:
        problems.append("membership never agreed on the crashed peers")
    if workload != "live-churn" and summary["ok"] != summary["attempted"]:
        problems.append(f"{summary['attempted'] - summary['ok']} failed operations")
    summary["problems"] = problems
    return summary


def allowed_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_cpu(cpu: Optional[int]) -> None:
    """Pin this process to one CPU.

    On a small shared host one CPU can run slower than the other for
    minutes, and unpinned live runs measured bimodally with the scheduler's
    placement.  The server process gets the last CPU; the load generator
    gets the first.
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def describe(sizes: List[int]) -> str:
    from measure import TAIL, tail_samples

    return (
        f"{sum(sizes)} samples in {len(sizes)} windows, "
        f"at least {tail_samples(min(sizes), TAIL)} beyond p{round(TAIL * 100)} in each"
    )


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    from measure import REFERENCE_CALIB_MS

    cpus = allowed_cpus()
    system_cpu = cpus[-1] if cpus else None
    trace = bool(args.trace)
    if args.workload == "sim-paper":
        summary = sim_summary(args.seed, args.seconds, trace)
    else:
        pin_cpu(cpus[0] if cpus else None)
        summary = live_summary(args.workload, args.seed, args.seconds, trace, system_cpu)

    problems = summary["problems"]
    with open(os.path.join(OUT_DIR, f"rounds-{args.workload}-{args.seed}.json"), "w") as handle:
        json.dump({"slices": summary["speed"].samples, "rounds": summary["speed"].rounds}, handle)
    if trace:
        from tracing import calls_of

        totals = summary["totals"] if "totals" in summary else summary["server"]["totals"]
        values = per_layer(summary, totals)
        units = metric_units("per_layer")
        if args.workload != "live-churn":
            # The wrapper count must match the independent message count.
            dispatched = calls_of(totals, "core.handle_message")
            if dispatched != round(summary["msgs_per_query"] * summary["reads"]):
                problems.append(
                    f"traced handle_message calls {dispatched} != messages "
                    f"{summary['msgs_per_query'] * summary['reads']:.0f}"
                )
            plain = summary["plain"]
            if plain["msgs_per_query"] != summary["msgs_per_query"]:
                problems.append("traced and untraced message counts differ")
    else:
        values = end_to_end(summary)
        units = metric_units("end_to_end")
    if set(values) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    print(f"workload {args.workload}  seed {args.seed}  inputs {summary['fingerprint']}")
    print(
        f"reads: {describe(summary['read_windows'])}; "
        f"writes: {describe(summary['write_windows'])}"
    )
    for name, value in values.items():
        print(f"  {name:42s} {value:14.4f} {units.get(name, '?')}")
    if not trace:
        print(f"raw timings (host calibration {summary['calib_ms']:.2f} ms, reference "
              f"{REFERENCE_CALIB_MS:g} ms):")
        for name, value in summary["raw_timings"].items():
            print(f"  {name:42s} {value:14.4f} {units.get(name, '?')}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = int(summary["attempted"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - int(summary["ok"]),
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
