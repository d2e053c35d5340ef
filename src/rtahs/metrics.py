"""Series comparison: error metrics between a reference and a test run,
and envelope classification of oscillatory responses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import TimeSeries

# Number of consecutive strictly monotone cycle peaks required to call a
# trend (growing -> divergent, decaying -> convergent).
TREND_CYCLES = 5


@dataclass(frozen=True)
class ComparisonMetrics:
    """Error metrics of a test series against a reference over their
    overlap.  ``normalized_rms`` is the RMS error divided by the
    reference RMS, undefined (None) for an all-zero reference.
    ``envelope`` classifies the test response as convergent, divergent
    or bounded."""

    rms_error: float
    peak_error: float
    normalized_rms: Optional[float]
    envelope: str


def classify_envelope(x: np.ndarray) -> str:
    """Classify an oscillatory signal by the trend of its per-cycle peaks.

    Cycles are delimited by upward zero crossings; a trailing run of at
    least TREND_CYCLES strictly growing peak magnitudes classifies as
    divergent, strictly decaying as convergent, anything else (too few
    cycles, flat, mixed, or zero signal) as bounded.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3 or np.all(x == 0.0):
        return "bounded"
    up = np.flatnonzero((x[:-1] < 0.0) & (x[1:] >= 0.0)) + 1
    if up.size < TREND_CYCLES + 1:
        return "bounded"
    peaks = np.array(
        [np.max(np.abs(x[a:b])) for a, b in zip(up[:-1], up[1:])]
    )
    growing = 0
    decaying = 0
    for prev, cur in zip(peaks[:-1], peaks[1:]):
        growing = growing + 1 if cur > prev else 0
        decaying = decaying + 1 if cur < prev else 0
    if growing >= TREND_CYCLES:
        return "divergent"
    if decaying >= TREND_CYCLES:
        return "convergent"
    return "bounded"


def _overlap_indices(a: TimeSeries, b: TimeSeries) -> tuple[slice, slice]:
    """Index ranges of the common time window of two equally sampled
    series whose grids are offset by whole steps."""
    dt = a.dt
    ka = np.rint(a.t / dt).astype(int)
    kb = np.rint(b.t / dt).astype(int)
    lo = max(ka[0], kb[0])
    hi = min(ka[-1], kb[-1])
    if hi < lo:
        raise ValueError("series do not overlap in time")
    return (
        slice(lo - ka[0], hi - ka[0] + 1),
        slice(lo - kb[0], hi - kb[0] + 1),
    )


def compare_series(a: TimeSeries, b: TimeSeries, channel: str) -> ComparisonMetrics:
    """Compare one channel of a test series ``b`` against the reference
    ``a`` over their time overlap."""
    if a.dt != b.dt:
        raise ValueError(f"sample intervals differ: {a.dt} vs {b.dt}")
    for s in (a, b):
        if channel not in s.data:
            raise ValueError(f"no channel {channel!r} in a series of {s.channels}")
    sa, sb = _overlap_indices(a, b)
    ref = a.channel(channel)[sa]
    test = b.channel(channel)[sb]
    err = ref - test
    rms_error = float(np.sqrt(np.mean(err**2)))
    peak_error = float(np.max(np.abs(err)))
    ref_rms = float(np.sqrt(np.mean(ref**2)))
    normalized = rms_error / ref_rms if ref_rms > 0.0 else None
    return ComparisonMetrics(
        rms_error=rms_error,
        peak_error=peak_error,
        normalized_rms=normalized,
        envelope=classify_envelope(test),
    )
