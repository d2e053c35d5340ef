"""Arithmetic of the benchmark: percentiles, step intervals, real-time
factor and span self time.  Pure Python, no dependency on the program
under test, so the tests in ``test_bench.py`` can check it on short
inputs."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between the
    two closest ranks, as ``numpy.percentile`` computes it by default.
    An empty sample reads 0: a layer that did no work on a workload
    reports zero time, not an error."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def intervals_us(starts_ns: Sequence[int]) -> list[float]:
    """Durations in microseconds between successive step starts."""
    return [(b - a) / 1e3 for a, b in zip(starts_ns[:-1], starts_ns[1:])]


def rt_factor(starts_ns: Sequence[int], dt: float) -> float:
    """Simulated seconds per wall-clock second over the stamped steps:
    ``n - 1`` intervals of ``dt`` simulated time against the wall time
    from the first stamp to the last."""
    if len(starts_ns) < 2:
        raise ValueError("need at least two step stamps")
    wall_s = (starts_ns[-1] - starts_ns[0]) / 1e9
    if wall_s <= 0.0:
        raise ValueError("step stamps must increase")
    return (len(starts_ns) - 1) * dt / wall_s


def covered_length(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def nest(spans: Sequence[tuple]) -> list[int]:
    """Parent of each span given as ``(thread, start, end)``: the index of
    the innermost span on the same thread whose interval holds it, or -1.
    Spans of one thread nest or follow one another."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], spans[i][1], -spans[i][2]))
    parents = [-1] * len(spans)
    stack: list[int] = []
    thread = None
    for i in order:
        th, _start, end = spans[i]
        if th != thread:
            stack, thread = [], th
        while stack and spans[stack[-1]][2] < end:
            stack.pop()
        if stack:
            parents[i] = stack[-1]
        stack.append(i)
    return parents


def self_times(intervals: Sequence[tuple[int, int]], parents: Sequence[int]) -> list[int]:
    """Self time of every span ``(start, end)``: its duration minus the
    part of its interval that its child spans cover (``parents`` as
    ``nest`` gives them)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(intervals[i])
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (start, end) in enumerate(intervals)
    ]


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / |median|), with the
    quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v, v, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / abs(q2) if q2 else 0.0
    return q2, q1, q3, rel
