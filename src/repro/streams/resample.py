"""Resampling irregular tag-read streams onto regular grids.

The Gen2 MAC delivers reads at irregular times, but the FFT low-pass filter
(paper Section IV-B) and the raw-data fusion (Eq. 6: sum of per-tag
displacement within each ``[t, t + dt]`` interval) both need a regular grid.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import EmptyStreamError, StreamError
from .timeseries import TimeSeries


def _bin_edges(t_start: float, t_end: float, bin_s: float) -> np.ndarray:
    if bin_s <= 0:
        raise StreamError(f"bin width must be > 0, got {bin_s}")
    if t_end <= t_start:
        raise StreamError(f"empty bin range [{t_start}, {t_end}]")
    n_bins = int(np.ceil((t_end - t_start) / bin_s))
    return t_start + np.arange(n_bins + 1) * bin_s


#: np.histogram's internal block size; inputs at most this long are
#: processed by it in a single block, which is the case the fast path
#: below replicates.
_HISTOGRAM_BLOCK = 65536


def _sorted_histogram(times: np.ndarray, edges: np.ndarray,
                      weights: np.ndarray = None) -> np.ndarray:
    """``np.histogram(times, bins=edges[, weights])`` for sorted ``times``.

    ``TimeSeries`` guarantees strictly increasing times, so the sort /
    argsort np.histogram performs per block is the identity permutation
    and its algorithm collapses to two ``searchsorted`` calls over the
    edges (the last edge closing right-inclusively) plus, for weighted
    sums, differences of the zero-prefixed weight cumsum.  This helper
    performs those *same float64 operations in the same order*, so the
    result is bit-for-bit what np.histogram returns — minus its
    validation and block machinery, which dominate on the per-tick
    streaming hot path.  Inputs longer than np.histogram's block size
    fall back to np.histogram (its per-block accumulation order would
    have to be replicated block-for-block).
    """
    if times.shape[0] > _HISTOGRAM_BLOCK:
        counts_or_sums, _ = np.histogram(times, bins=edges, weights=weights)
        return counts_or_sums
    idx = np.concatenate((times.searchsorted(edges[:-1], side="left"),
                          times.searchsorted(edges[-1:], side="right")))
    if weights is None:
        return np.diff(idx)
    cw = np.concatenate((np.zeros(1), weights.cumsum()))
    return np.diff(cw[idx])


def bin_sum(series: TimeSeries, bin_s: float,
            t_start: float = None, t_end: float = None) -> TimeSeries:
    """Sum values falling into each ``bin_s``-wide time bin (paper Eq. 6).

    Empty bins *inside a covered range* contribute 0 — physically, no
    reads means no *observed* displacement increment, which is the
    conservative choice Eq. 6 makes.  A range that contains **no samples
    at all** is an error, not an all-zero series: both binning functions
    share this contract (see :func:`bin_mean`), so callers cannot be
    surprised by one of them silently inventing a flat signal where the
    other raises.

    Args:
        series: input samples.
        bin_s: bin width Delta-t in seconds.
        t_start: left edge of the first bin (default: first sample time).
        t_end: right limit (default: last sample time, inclusive via epsilon).

    Returns:
        Regular series timestamped at bin centres.

    Raises:
        EmptyStreamError: if ``series`` is empty and no explicit range is
            given, or if no sample falls inside the requested range.
    """
    if not series and (t_start is None or t_end is None):
        raise EmptyStreamError("bin_sum of empty series needs explicit t_start/t_end")
    lo = series.start if t_start is None else t_start
    hi = (series.end + 1e-9) if t_end is None else t_end
    edges = _bin_edges(lo, hi, bin_s)
    counts = _sorted_histogram(series.times, edges)
    if not counts.any():
        raise EmptyStreamError("no samples fall inside the requested bin range")
    sums = _sorted_histogram(series.times, edges, weights=series.values)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return TimeSeries.from_trusted(centers, sums)


def bin_mean(series: TimeSeries, bin_s: float,
             t_start: float = None, t_end: float = None) -> TimeSeries:
    """Average values within each bin; empty bins are linearly interpolated.

    Used for RSSI / quality tracks where a mean (not a sum) is meaningful.
    Shares :func:`bin_sum`'s empty-range contract: a requested range that
    contains no samples raises ``EmptyStreamError`` (interpolation with
    zero anchors would be meaningless), while empty bins inside a covered
    range are filled by interpolating between the covered neighbours.

    Raises:
        EmptyStreamError: if ``series`` is empty and no explicit range is
            given, or if no sample falls inside the requested range.
    """
    if not series and (t_start is None or t_end is None):
        raise EmptyStreamError("bin_mean of empty series needs explicit t_start/t_end")
    lo = series.start if t_start is None else t_start
    hi = (series.end + 1e-9) if t_end is None else t_end
    edges = _bin_edges(lo, hi, bin_s)
    sums = _sorted_histogram(series.times, edges, weights=series.values)
    counts = _sorted_histogram(series.times, edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    filled = counts > 0
    if not filled.any():
        raise EmptyStreamError("no samples fall inside the requested bin range")
    means = np.empty_like(sums)
    means[filled] = sums[filled] / counts[filled]
    if not filled.all():
        means[~filled] = np.interp(centers[~filled], centers[filled], means[filled])
    return TimeSeries.from_trusted(centers, means)


def bin_mean_rows(times: np.ndarray, values: np.ndarray, lengths: np.ndarray,
                  bin_s: float, t_start: float,
                  t_end: float) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`bin_mean` of many series on one shared grid.

    ``times``/``values`` hold the series back to back, series *i* being
    the next ``lengths[i]`` samples (each strictly increasing in time).
    The grid is built once; each series is binned with the operations
    :func:`bin_mean` performs (one set of ``searchsorted`` bin
    boundaries, differences of the zero-prefixed running sum, the same
    interpolation of empty bins), so every row is bit-identical to
    ``bin_mean`` over that series — minus the per-series ``TimeSeries``,
    validation and second boundary search.  A flat ``bincount`` over all
    series was measured slower at the two or three series a user has.

    Returns:
        ``(centers, means)`` with ``means[i]`` series *i*'s binned track.

    Raises:
        EmptyStreamError: if some series has no sample inside the range.
    """
    edges = _bin_edges(t_start, t_end, bin_s)
    centers = (edges[:-1] + edges[1:]) / 2.0
    means = np.empty((lengths.shape[0], centers.shape[0]))
    start = 0
    for row, n in zip(means, lengths.tolist()):
        t = times[start: start + n]
        v = values[start: start + n]
        start += n
        if n > _HISTOGRAM_BLOCK:
            row[:] = bin_mean(TimeSeries.from_trusted(t, v), bin_s,
                              t_start=t_start, t_end=t_end).values
            continue
        idx = np.concatenate((t.searchsorted(edges[:-1], side="left"),
                              t.searchsorted(edges[-1:], side="right")))
        counts = np.diff(idx)
        filled = counts > 0
        if not filled.any():
            raise EmptyStreamError(
                "no samples fall inside the requested bin range")
        sums = np.diff(np.concatenate((np.zeros(1), v.cumsum()))[idx])
        row[filled] = sums[filled] / counts[filled]
        if not filled.all():
            row[~filled] = np.interp(centers[~filled], centers[filled],
                                     row[filled])
    return centers, means


def resample_linear(series: TimeSeries, rate_hz: float) -> TimeSeries:
    """Linearly interpolate onto a regular grid at ``rate_hz``.

    Raises:
        EmptyStreamError: if the series has fewer than 2 samples.
        StreamError: if ``rate_hz`` is not strictly positive.
    """
    if rate_hz <= 0:
        raise StreamError(f"rate_hz must be > 0, got {rate_hz}")
    if len(series) < 2:
        raise EmptyStreamError("resample_linear needs at least 2 samples")
    n = max(2, int(np.floor(series.duration * rate_hz)) + 1)
    grid = series.start + np.arange(n) / rate_hz
    grid = grid[grid <= series.end + 1e-12]
    vals = np.interp(grid, series.times, series.values)
    return TimeSeries(grid, vals)


def sample_interval_stats(series: TimeSeries) -> Tuple[float, float, float]:
    """(mean, min, max) inter-sample interval of a series.

    Raises:
        EmptyStreamError: if fewer than 2 samples.
    """
    if len(series) < 2:
        raise EmptyStreamError("need at least 2 samples for interval stats")
    gaps = np.diff(series.times)
    return float(gaps.mean()), float(gaps.min()), float(gaps.max())
