"""Bitmask helpers, the worker-pool map, and deterministic RNG derivation."""

from __future__ import annotations

import os
import random
from typing import Callable, Iterator, Sequence


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(jobs: int, tasks: int) -> int:
    """Pool size for jobs requested over tasks: never more workers than
    tasks or available CPUs, since a pool forks every worker up front."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, tasks, available_cpus()))


def map_tasks(fn: Callable, tasks: Sequence, workers: int) -> list:
    """[fn(t) for t in tasks], in a pool of that many worker processes when
    workers > 1, else in this process; results keep the order of tasks."""
    if workers > 1:
        # imported here: concurrent.futures and multiprocessing cost start-up
        # time that a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def derived_rng(seed: int, *context) -> random.Random:
    """Random stream derived stably from (seed, context).

    Seeded with the repr of (seed, context), a string, which random hashes
    with its own sha512 rather than hash(), so results do not depend on
    PYTHONHASHSEED; the same (seed, context) always yields the same stream,
    regardless of worker scheduling.
    """
    return random.Random(repr((seed,) + context))
