"""Deterministic chunked map-reduce.

Work is split into fixed chunks, each chunk is evaluated by a pure function,
and the partial results are combined in chunk order with twofold (Kahan)
compensated accumulation.  The thread pool only decides *which worker*
evaluates a chunk; the arithmetic per chunk and the combination order are
fixed, so results are bit-identical for any worker count.  The
coefficient-extraction quadrature is its one user: subset sweeps are cheaper
serial than pooled, so they fold their chunks in a plain loop.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_DEFAULT_THREADS: int | None = None


def set_default_threads(threads: int | None) -> None:
    global _DEFAULT_THREADS
    _DEFAULT_THREADS = threads


def resolve_threads(threads: int | None = None) -> int:
    if threads is not None:
        return max(1, int(threads))
    if _DEFAULT_THREADS is not None:
        return max(1, int(_DEFAULT_THREADS))
    return max(1, os.cpu_count() or 1)


class Twofold:
    """Compensated accumulator for a scalar or a fixed-shape ndarray."""

    def __init__(self, zero):
        self.total = np.asarray(zero, dtype=np.float64).copy()
        self.comp = np.zeros_like(self.total)

    def add(self, value) -> None:
        value = np.asarray(value, dtype=np.float64)
        y = value - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t

    def value(self):
        out = self.total
        return float(out) if out.ndim == 0 else out.copy()


def map_chunks(
    chunks: Iterable[T],
    fn: Callable[[T], Sequence],
    combine: Callable[[Sequence, Sequence], None],
    threads: int | None = None,
) -> int:
    """Apply ``fn`` to every chunk and fold results in chunk order.

    ``combine(acc_state, result)`` is invoked sequentially, in the order the
    chunks were produced, regardless of which worker computed each result.
    Returns the number of chunks processed.
    """
    workers = resolve_threads(threads)
    count = 0
    if workers == 1:
        for chunk in chunks:
            combine(None, fn(chunk))
            count += 1
        return count
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Executor.map yields results in submission order.
        for result in pool.map(fn, chunks):
            combine(None, result)
            count += 1
    return count
