"""Machine-readable benchmark output.

Benchmarks that want their numbers tracked across PRs call
:func:`write_bench_json` with a flat metrics dictionary and the session's
``bench_out`` directory.  ``repro bench`` points that directory at
``benchmarks/`` so the committed ``BENCH_<name>.json`` baselines are
regenerated (and the perf trajectory can be diffed commit to commit); a
plain test run writes to a temporary directory and leaves them untouched.

Every artifact is stamped with the environment it was measured in
(python version, platform, ``cpu_count``, git SHA, timestamp) via the
shared :mod:`repro.envinfo` block — the regression gate
(``tools/bench_check.py`` / ``repro bench``) relies on ``cpu_count`` to
avoid comparing wall-clock throughput across machines of different size
(the CI container has a single CPU; a developer laptop does not).
"""

from __future__ import annotations

import json
import os
from typing import Dict

from repro.envinfo import environment_stamp

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def write_bench_json(name: str, metrics: Dict[str, float], directory: str) -> str:
    """Write ``BENCH_<name>.json`` into ``directory`` and return its path.

    The payload carries the metrics plus enough environment context
    (python version, platform, cpu_count, git SHA, timestamp) to interpret
    them.  Integer metrics (counts: peers, messages, queries, ...) are kept
    as ints and everything else is coerced to float, so the JSON diffs
    cleanly across runs without ``512.0``-style noise on values that are
    semantically integers.
    """
    payload = {
        "name": name,
        **environment_stamp(_BENCH_DIR),
        "metrics": {
            key: (
                value
                if isinstance(value, str)
                or (isinstance(value, int) and not isinstance(value, bool))
                else float(value)
            )
            for key, value in metrics.items()
        },
    }
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
