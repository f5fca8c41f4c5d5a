"""Shared fixtures for the benchmark suite.

Each benchmark module regenerates one table or figure of the paper.  The
underlying sweeps are computed once per session (they are deterministic) and
shared; the ``benchmark`` fixture of each test times a representative query
batch so ``pytest-benchmark`` also reports per-query costs.

The default benchmark configuration is smaller than the paper's (fewer
queries per point, network sizes up to 4000 instead of 8000) so the whole
suite finishes in a few minutes; set ``REPRO_BENCH_PROFILE=paper`` to run the
full-size sweeps (N up to 8000, 1000 queries per point).
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.benchgate import BENCH_OUT_ENV  # noqa: E402
from repro.experiments import figures_netsize, figures_rangesize  # noqa: E402
from repro.experiments.common import ExperimentConfig  # noqa: E402


def bench_config() -> ExperimentConfig:
    """The benchmark experiment configuration (env-var overridable)."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "default")
    if profile == "paper":
        return ExperimentConfig.paper()
    if profile == "quick":
        return ExperimentConfig.quick()
    return ExperimentConfig(
        peers=1000,
        queries_per_point=int(os.environ.get("REPRO_BENCH_QUERIES", "60")),
        objects=3000,
        range_sizes=(2, 10, 50, 100, 150, 200, 250, 300),
        network_sizes=(500, 1000, 2000, 4000),
        fixed_range_size=20.0,
    )


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return bench_config()


@pytest.fixture(scope="session")
def bench_out(tmp_path_factory) -> str:
    """Directory the ``BENCH_*.json`` artifacts are written to.

    ``repro bench`` sets ``$REPRO_BENCH_OUT`` to ``benchmarks/`` to
    regenerate the committed baselines; otherwise a per-session temporary
    directory, so running the tests never rewrites them.
    """
    directory = os.environ.get(BENCH_OUT_ENV)
    if not directory:
        return str(tmp_path_factory.mktemp("bench"))
    os.makedirs(directory, exist_ok=True)
    return directory


@pytest.fixture(scope="session")
def rangesize_sweep(config):
    """The Figure 5 / 6 sweep (range size 2..300 at fixed N)."""
    return figures_rangesize.run(config)


@pytest.fixture(scope="session")
def netsize_sweep(config):
    """The Figure 7 / 8 sweep (network size sweep at fixed range size)."""
    return figures_netsize.run(config.with_overrides(queries_per_point=max(20, config.queries_per_point // 2)))


def emit(title: str, text: str) -> None:
    """Print a reproduced table/figure beneath the benchmark output."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}\n")
