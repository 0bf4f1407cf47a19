"""Shared ``REPRO_BENCH_*`` environment handling.

One definition of the benchmark-campaign environment knobs, used by the
pytest-benchmark conftest and ``scripts/run_campaign.py``.

Knobs (all optional; empty values count as unset):

``REPRO_BENCH_SCALE``
    Problem scale in (0, 1] (default 0.25 for the benchmark suite).
``REPRO_BENCH_BENCHMARKS``
    Comma-separated benchmark subset.
``REPRO_BENCH_JOBS``
    Worker processes for the campaign engine (default 1 = serial).
``REPRO_BENCH_CACHE_DIR``
    Directory for the persistent result cache.
``REPRO_BENCH_SHARDS``
    ``i/N`` turns a benchmark session into a distributed cache warmer.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

DEFAULT_SCALE = 0.25


def bench_env(name: str) -> Optional[str]:
    """``REPRO_BENCH_<name>`` from the environment, or None when unset or empty."""
    return os.environ.get(f"REPRO_BENCH_{name}") or None


def bench_scale(default: float = DEFAULT_SCALE) -> float:
    return float(bench_env("SCALE") or default)


def bench_benchmarks(
    default: Optional[Sequence[str]] = None,
) -> Optional[List[str]]:
    raw = bench_env("BENCHMARKS")
    if not raw:
        return list(default) if default is not None else None
    return [name.strip() for name in raw.split(",") if name.strip()]


def bench_jobs() -> int:
    return int(bench_env("JOBS") or "1")


def bench_cache_dir() -> Optional[str]:
    return bench_env("CACHE_DIR")


def bench_shard():
    """The ``REPRO_BENCH_SHARDS`` spec as a ShardSpec, or None when unset."""
    raw = bench_env("SHARDS")
    if not raw:
        return None
    from .shard import ShardSpec  # local import: shard pulls in the campaign stack

    return ShardSpec.parse(raw)
