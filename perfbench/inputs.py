"""Workload inputs and the oracle that checks every answer.

Everything is drawn from ``random.Random(seed)`` sub-streams, so the same
seed gives the same inputs on every machine and every run, and the
system under test receives only the generated values and queries.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

LOW, HIGH = 0.0, 1000.0
#: Seed of the overlay topology and of the churn workload's crashed
#: peers: every run serves the same overlay and loses the same peers,
#: and ``--seed`` changes what is stored and asked.
TOPOLOGY_SEED = 1
#: Single-attribute ranges are this wide (the paper's fixed range size).
RANGE_SIZE = 20.0
#: Width of a MIRA box along its second attribute.
BOX_WIDTH = 100.0
#: Share of queries that are two-attribute MIRA boxes.
MIRA_SHARE = 0.2
#: Zipf skew of range positions over 100 buckets of the interval.
ZIPF_ALPHA = 1.1
ZIPF_BUCKETS = 100


def stream(seed: int, name: str) -> random.Random:
    """An independent, reproducible generator for one input family."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class Job:
    """One read: a PIRA range or (``ranges`` set) a MIRA box."""

    low: float
    high: float
    ranges: Optional[Tuple[Tuple[float, float], ...]]
    #: index into the sorted peer list, reduced modulo its length
    origin: int

    def request(self, peers: Sequence[str]):
        """The public-API request object for this job."""
        from repro.api.requests import MultiRangeQuery, RangeQuery, RequestOptions

        options = RequestOptions(origin=peers[self.origin % len(peers)])
        if self.ranges is not None:
            return MultiRangeQuery(ranges=self.ranges, options=options)
        return RangeQuery(low=self.low, high=self.high, options=options)


def values(seed: int, count: int, name: str = "values") -> List[float]:
    rng = stream(seed, name)
    return [rng.uniform(LOW, HIGH) for _ in range(count)]


def pairs(seed: int, count: int, name: str = "pairs") -> List[Tuple[float, float]]:
    rng = stream(seed, name)
    return [(rng.uniform(LOW, HIGH), rng.uniform(LOW, HIGH)) for _ in range(count)]


def jobs(seed: int, count: int, name: str = "jobs") -> List[Job]:
    """``count`` reads with Zipf-positioned ranges, ``MIRA_SHARE`` boxes."""
    rng = stream(seed, name)
    weights = list(
        itertools.accumulate(1.0 / (rank**ZIPF_ALPHA) for rank in range(1, ZIPF_BUCKETS + 1))
    )
    width = (HIGH - LOW) / ZIPF_BUCKETS
    out: List[Job] = []
    for _ in range(count):
        bucket = rng.choices(range(ZIPF_BUCKETS), cum_weights=weights)[0]
        start = min(LOW + bucket * width + rng.uniform(0.0, width), HIGH - RANGE_SIZE)
        low, high = start, start + RANGE_SIZE
        origin = rng.randrange(1 << 30)
        if rng.random() < MIRA_SHARE:
            second = rng.uniform(LOW, HIGH - BOX_WIDTH)
            out.append(Job(low, high, ((low, high), (second, second + BOX_WIDTH)), origin))
        else:
            out.append(Job(low, high, None, origin))
    return out


def arrivals(seed: int, count: int, rate: float, name: str = "arrivals") -> List[float]:
    """Poisson arrival offsets (seconds, or simulated units) at ``rate``."""
    rng = stream(seed, name)
    now = 0.0
    out = []
    for _ in range(count):
        now += rng.expovariate(rate)
        out.append(now)
    return out


def fingerprint(*parts: object) -> str:
    """Short digest of generated inputs (the steadiness test compares it)."""
    text = json.dumps(parts, default=repr, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key_of(stored_key: object) -> object:
    """Normalise a stored key (JSON turns tuples into lists)."""
    if isinstance(stored_key, (list, tuple)):
        return tuple(float(part) for part in stored_key)
    return float(stored_key)


class Oracle:
    """The published values, answering what every read must return."""

    def __init__(self, singles: Sequence[float], boxes: Sequence[Tuple[float, float]]) -> None:
        self.singles = sorted(float(value) for value in singles)
        self.pairs = [tuple(pair) for pair in boxes]
        self._memo: Dict[Job, List[object]] = {}

    def expected(self, job: Job) -> List[object]:
        """Sorted keys a complete answer to ``job`` holds."""
        found = self._memo.get(job)
        if found is None:
            if job.ranges is None:
                left = bisect.bisect_left(self.singles, job.low)
                right = bisect.bisect_right(self.singles, job.high)
                found = self.singles[left:right]
            else:
                (low0, high0), (low1, high1) = job.ranges
                found = sorted(
                    pair
                    for pair in self.pairs
                    if low0 <= pair[0] <= high0 and low1 <= pair[1] <= high1
                )
            self._memo[job] = found
        return found


def score(result, expected: Sequence[object], allowed: Optional[set] = None) -> Tuple[bool, float]:
    """``(correct, completeness)`` of one query result against the oracle.

    Correct means every expected key came back and nothing else did
    (``allowed`` widens "else" to writes still in flight).  Completeness
    is the share of expected keys returned.
    """
    got = sorted(key_of(stored.key) for stored in result.matches)
    if got == list(expected):
        return True, 1.0
    expected_set = set(expected)
    returned = set(got)
    extra = returned - expected_set - (allowed or set())
    completeness = len(expected_set & returned) / len(expected_set) if expected_set else 1.0
    duplicates = len(got) != len(returned)
    return (not extra and not duplicates and completeness == 1.0), completeness
