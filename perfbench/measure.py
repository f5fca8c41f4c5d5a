"""Measurement helpers: host calibration, percentiles over windows, RSS.

The host this benchmark was tuned on (2 shared CPUs) drifts in speed by
about ±30% over minutes: the same code measured 312 to 437 simulator
queries/s across ten consecutive runs.  A fixed slice of pure-Python work
timed between measured rounds drifts with it (its time and the
simulator's throughput moved together within 5% over two minutes), so
the end-to-end timings are reported at a reference host speed (see
:class:`HostSpeed`).  ``host.calib_ms`` reports the run's median slice,
and the run prints the raw values next to the scaled ones.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Calibration time of the reference host; scaled timings read as if
#: measured on a host whose calibration slice takes this long.
REFERENCE_CALIB_MS = 25.0

#: Latency samples per window: a p95 window keeps 20 samples beyond it,
#: the p50 windows are smaller so a run has more of them.
TAIL_WINDOW = 400
P50_WINDOW = 200
#: The tail percentile reported.  p99 is not steady on a small shared
#: host: at 400 reads/s its value over 2.5 s windows ranged from 3 to
#: 218 ms, and a median over 12 windows still spread 0.36 between runs,
#: against 0.05 for p95.
TAIL = 0.95


def calibrate_ms(share: float = 1.0) -> float:
    """Time one fixed slice of pure-Python work: integer arithmetic and
    building a dict of strings, the two things the system under test
    spends its time on.  ``share`` runs that fraction of the slice and
    returns the time a whole slice would take at the same speed."""
    start = time.perf_counter()
    total = 0
    for index in range(int(150_000 * share)):
        total += index * index % 7
    size = int(30_000 * share)
    table = {str(index): index for index in range(size)}
    total += sum(table[str(index)] for index in range(0, size, 3))
    return (time.perf_counter() - start) * 1e3 / share


class HostSpeed:
    """Calibration slices and the values measured next to them.

    Each value is kept raw and at the reference host speed, scaled by the
    mean of the calibration slices taken right before, during and right
    after the round that produced it: the host's speed swings by up to 2x
    within seconds, and only a nearby slice tracks it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.raw: Dict[str, List[float]] = {}
        self.scaled: Dict[str, List[float]] = {}
        #: every recorded round: [name, kind, slice before, slice after, values]
        self.rounds: List[List[Any]] = []

    def sample(self, milliseconds: Optional[float] = None, share: float = 1.0) -> float:
        """Take (or record) one calibration slice; returns its time."""
        value = calibrate_ms(share) if milliseconds is None else milliseconds
        self.samples.append(value)
        return value

    def record(
        self, name: str, values: Iterable[float], slices: Sequence[float], kind: str = "time"
    ) -> None:
        """Keep ``values`` measured next to the calibration ``slices`` (the
        ones right before and after the round, and any taken during it):
        durations (``kind="time"``) scale with the host's slowness, rates
        (``"rate"``) inversely, and ``"fixed"`` values (an offered rate)
        not at all."""
        scale = self.scale(slices, kind)
        values = list(values)
        self.rounds.append([name, kind, list(slices), values])
        self.raw.setdefault(name, []).extend(values)
        self.scaled.setdefault(name, []).extend(value * scale for value in values)

    @staticmethod
    def scale(slices: Sequence[float], kind: str = "time") -> float:
        """The factor taking a value measured next to ``slices`` to the
        reference host speed."""
        factor = REFERENCE_CALIB_MS * len(slices) / sum(slices)
        return {"time": factor, "rate": 1.0 / factor, "fixed": 1.0}[kind]

    def keep(self, name: str, raw: float, scaled: float) -> None:
        """Keep one value whose parts were scaled separately."""
        self.raw.setdefault(name, []).append(raw)
        self.scaled.setdefault(name, []).append(scaled)

    @property
    def calib_ms(self) -> float:
        return median(self.samples)

    def timings(self, scaled: bool = True) -> Dict[str, float]:
        """The run's timings (four end-to-end, two tails) from the
        recorded ``setup_s``, ``rate``, ``read_ms`` and ``write_ms``
        series."""
        series = self.scaled if scaled else self.raw
        reads = latency_summary(series["read_ms"])
        writes = latency_summary(series["write_ms"])
        return {
            "setup_s": median(series["setup_s"]),
            "queries_per_s": median(series["rate"]),
            "latency_p50_ms": reads["p50"],
            "latency_p95_ms": reads["tail"],
            "write_p50_ms": writes["p50"],
            "write_p95_ms": writes["tail"],
        }


def rss_peak_mb() -> float:
    """Peak resident set size of this process, in MB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[index]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def tail_samples(count: int, q: float) -> int:
    """Samples strictly beyond the ``q`` quantile of ``count`` samples."""
    return count - 1 - int(round(q * (count - 1))) if count else 0


def windows(samples: List[float], size: int) -> List[List[float]]:
    """Consecutive windows of about ``size`` samples (at least one)."""
    count = max(1, len(samples) // size)
    step = len(samples) / count
    return [samples[round(i * step) : round((i + 1) * step)] for i in range(count)]


def windowed_quantile(parts: List[List[float]], q: float) -> float:
    """Median over windows of each window's ``q`` quantile.

    A host stall lands in one window; the median keeps it from setting
    the tail of a whole run."""
    return median(quantile(sorted(part), q) for part in parts if part)


def latency_summary(samples: List[float]) -> Dict[str, Any]:
    """p50 and the tail percentile of latencies in issue order, each a
    median over consecutive windows."""
    p50_parts = windows(samples, P50_WINDOW)
    tail_parts = windows(samples, TAIL_WINDOW)
    return {
        "p50": windowed_quantile(p50_parts, 0.5),
        "tail": windowed_quantile(tail_parts, TAIL),
        "tail_windows": [len(part) for part in tail_parts],
    }
