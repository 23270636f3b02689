"""Exact, cheaper twins of two numpy reductions on the tick hot path.

The incremental tick must stay bit-for-bit equal to the batch builder,
which demeans every segment with ``ndarray.mean()`` and takes medians
with ``np.median``.  Replacing those with "the same maths, vectorized"
is not enough: float addition is not associative, so only the *same
operations in the same order* give the same bits.

* :func:`pairwise_row_sums` replays numpy's float64 ``add.reduce`` —
  a sum seeded with ``0.0`` over numpy's pairwise kernel, which adds
  fewer than 8 values sequentially, adds up to 128 values in 8 strided
  lanes combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` followed by
  the remainder, and halves longer inputs recursively — for every row of
  a padded 2-D array at once.  ``np.add.reduceat`` and a plain
  sequential sum both disagree with ``ndarray.sum()`` from 8 values up.
  Rows longer than 128 values (rare: one segment of one chain) fall
  back to ``ndarray.sum()`` itself.
* :func:`median` is ``np.median`` for a 1-D float array spelled as the
  same ``np.partition`` call plus the same one- or two-element mean,
  minus ``np.median``'s dispatch machinery.

``tests/test_flat_tick.py`` checks the row sums against ``ndarray.sum()``
for every row length from 1 to 300 and the median against ``np.median``,
so a numpy release that changes either kernel fails tier-1 instead of
silently breaking streamed == recompute.
"""

from __future__ import annotations

import numpy as np

#: numpy's pairwise-summation unroll (lanes) and block size.
_LANES = 8
_BLOCK = 128


def pairwise_row_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values[i, :lengths[i]].sum()`` for every row, bit for bit.

    Args:
        values: 2-D float64 array; entries at or past a row's length are
            ignored.
        lengths: per-row element counts (each >= 1).

    Returns:
        One float64 sum per row.
    """
    rows, width = values.shape
    full = lengths // _LANES
    n_blocks = int(full.max())
    # chain = [tree of the 8 lane sums, remainder...]: summed in order
    # it is numpy's kernel for 8..128 values.  For fewer than 8 the
    # lanes are empty, the tree is 0.0 and the remainder is the whole
    # row — numpy's sequential short-row loop, seeded with 0.0.
    chain = np.zeros((rows, _LANES))
    if n_blocks:
        blocks = values[:, :n_blocks * _LANES].reshape(rows, n_blocks, _LANES)
        # Lane j accumulates a[j], a[8+j], ... over whole blocks only;
        # the partial last block belongs to the remainder.
        in_full = np.arange(n_blocks)[None, :, None] < full[:, None, None]
        lanes = np.cumsum(np.where(in_full, blocks, 0.0), axis=1)[:, -1, :]
        chain[:, 0] = (
            ((lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3]))
            + ((lanes[:, 4] + lanes[:, 5]) + (lanes[:, 6] + lanes[:, 7])))
    offsets = np.arange(_LANES - 1)
    rest = offsets[None, :] < (lengths % _LANES)[:, None]
    cols = np.minimum(full[:, None] * _LANES + offsets[None, :], width - 1)
    chain[:, 1:] = np.where(rest, np.take_along_axis(values, cols, axis=1),
                            0.0)
    # A row-wise cumsum is a strictly sequential chain; the trailing
    # + 0.0 is the reduction's own 0.0 seed (it can only turn a -0.0
    # tree into 0.0).
    out = np.cumsum(chain, axis=1)[:, -1] + 0.0
    for i in np.flatnonzero(lengths > _BLOCK).tolist():
        out[i] = values[i, :lengths[i]].sum()
    return out


def median(values: np.ndarray) -> float:
    """``float(np.median(values))`` for a 1-D float64 array.

    The same partition (``kth`` includes the last index, which is where
    ``np.median`` looks for a NaN), the same middle element or the same
    two-element mean, and NaN propagation.
    """
    n = values.shape[0]
    if n == 0:
        return float(np.median(values))
    half = n // 2
    if n % 2:
        part = np.partition(values, [half, -1])
        mid = 0.0 + part[half]
    else:
        part = np.partition(values, [half - 1, half, -1])
        mid = ((0.0 + part[half - 1]) + part[half]) / 2.0
    if np.isnan(part[-1]):
        return float("nan")
    return float(mid)
