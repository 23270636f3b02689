"""Kernel pieces of the flat incremental tick (DESIGN.md §12).

Each flat kernel must equal, bit for bit, the per-stream function the
batch builder runs: the row sums ``ndarray.sum()``, the median
``np.median``, the flat Hampel ``hampel_filter``, the flat binning
``bin_mean`` and the flat fusion ``fuse_sample_streams``.  Values are
compared through a ``uint64`` view so even a sign-of-zero difference
fails.
"""

import warnings

import numpy as np
import pytest

from repro import TagBreathe, run_scenario
from repro.bench import benchmark_scenario
from repro.core.fusion import fuse_sample_rows, fuse_sample_streams
from repro.core.preprocess import hampel_filter, hampel_rows
from repro.core.reductions import median, pairwise_row_sums
from repro.errors import EmptyStreamError, StreamError
from repro.reader.batch import ReportBatch
from repro.streams.resample import bin_mean, bin_mean_rows
from repro.streams.timeseries import TimeSeries


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestPairwiseRowSums:
    @pytest.mark.parametrize("scale", ["mixed", "cancelling"])
    def test_every_length_1_to_300(self, scale):
        rng = np.random.default_rng(1 if scale == "mixed" else 2)
        lengths = np.arange(1, 301)
        for _ in range(5):
            # Garbage past each row's length must be ignored.
            values = rng.normal(size=(300, 310)) * 1e6
            for i, n in enumerate(lengths):
                row = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 4, n)
                values[i, :n] = row - row.mean() if scale == "cancelling" \
                    else row
            want = np.array([values[i, :n].sum()
                             for i, n in enumerate(lengths)])
            np.testing.assert_array_equal(
                bits(pairwise_row_sums(values, lengths)), bits(want))

    def test_short_rows_only_and_signed_zeros(self):
        values = np.array([[-0.0, -0.0, 9.0], [-0.0, 0.0, 0.0],
                           [1e300, -1e300, 1.0]])
        lengths = np.array([2, 1, 3])
        want = [values[i, :n].sum() for i, n in enumerate(lengths)]
        np.testing.assert_array_equal(
            bits(pairwise_row_sums(values, lengths)), bits(want))

    def test_rows_above_the_block_use_the_fallback(self):
        rng = np.random.default_rng(3)
        lengths = np.array([129, 5, 1000, 128])
        values = np.zeros((4, 1000))
        for i, n in enumerate(lengths):
            values[i, :n] = rng.normal(size=n)
        want = [values[i, :n].sum() for i, n in enumerate(lengths)]
        np.testing.assert_array_equal(
            bits(pairwise_row_sums(values, lengths)), bits(want))


class TestMedian:
    def test_matches_np_median(self):
        rng = np.random.default_rng(4)
        for n in list(range(1, 80)) + [257, 1000]:
            for _ in range(10):
                values = rng.normal(size=n)
                if rng.random() < 0.3:
                    values = np.round(values)  # ties and signed zeros
                    values[rng.integers(n)] = -0.0
                assert bits(median(values)) == bits(np.median(values))

    def test_nan_propagates_and_empty_matches(self):
        values = np.array([1.0, np.nan, 3.0, 2.0])
        assert np.isnan(median(values)) and np.isnan(np.median(values))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert np.isnan(median(np.empty(0)))


def random_streams(rng, lengths, zero_mad=False):
    streams = []
    t0 = 0.0
    for n in lengths:
        times = t0 + np.cumsum(rng.uniform(0.01, 0.08, n))
        values = rng.normal(0.0, 1e-3, n)
        if zero_mad and n:
            values[: n // 2] = 0.25  # locally constant: MAD == 0
        if n > 3:
            values[rng.integers(n, size=max(1, n // 20))] += 0.08  # flips
        streams.append(TimeSeries(times, values))
        t0 = float(rng.uniform(0.0, 0.5))
    return streams


def flatten(streams):
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    times = np.concatenate([s.times for s in streams])
    values = np.concatenate([s.values for s in streams])
    return times, values, lengths


class TestHampelRows:
    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_matches_per_stream_filter(self, window):
        rng = np.random.default_rng(window)
        lengths = [0, 1, 2 * window, 2 * window + 1, 40, 6, 300]
        for zero_mad in (False, True):
            streams = random_streams(rng, lengths, zero_mad=zero_mad)
            _, values, lens = flatten(streams)
            keep, rejected = hampel_rows(values, lens, window=window,
                                         n_sigmas=3.0)
            want_rejected = 0
            start = 0
            for stream, n in zip(streams, lens.tolist()):
                filtered, r = hampel_filter(stream, window=window,
                                            n_sigmas=3.0)
                want_rejected += r
                np.testing.assert_array_equal(
                    bits(values[start: start + n][keep[start: start + n]]),
                    bits(filtered.values))
                start += n
            assert rejected == want_rejected
            assert rejected > 0

    def test_validates_like_hampel_filter(self):
        with pytest.raises(StreamError):
            hampel_rows(np.zeros(10), np.array([10]), window=0)
        with pytest.raises(StreamError):
            hampel_rows(np.zeros(10), np.array([10]), n_sigmas=0.0)


class TestBinAndFuseRows:
    def test_bin_mean_rows_matches_bin_mean(self):
        rng = np.random.default_rng(5)
        streams = random_streams(rng, [120, 2, 7, 300])
        times, values, lengths = flatten(streams)
        lo = min(s.start for s in streams)
        hi = max(s.end for s in streams) + 1e-9
        centers, means = bin_mean_rows(times, values, lengths, 0.05, lo, hi)
        for stream, row in zip(streams, means):
            want = bin_mean(stream, 0.05, t_start=lo, t_end=hi)
            np.testing.assert_array_equal(bits(centers), bits(want.times))
            np.testing.assert_array_equal(bits(row), bits(want.values))

    def test_fuse_rows_matches_fuse_sample_streams(self):
        rng = np.random.default_rng(6)
        for lengths in ([50], [1, 80, 0, 33], [400, 2, 250]):
            streams = random_streams(rng, lengths)
            times, values, lens = flatten(streams)
            got = fuse_sample_rows(7, times, values, lens, bin_s=0.05)
            want = fuse_sample_streams(
                7, {(7, i): s for i, s in enumerate(streams)}, bin_s=0.05)
            np.testing.assert_array_equal(bits(got.times),
                                          bits(want.track.times))
            np.testing.assert_array_equal(bits(got.values),
                                          bits(want.track.values))

    def test_fuse_rows_refuses_like_fuse_sample_streams(self):
        streams = random_streams(np.random.default_rng(7), [1, 0, 1])
        times, values, lens = flatten(streams)
        with pytest.raises(EmptyStreamError,
                           match="user 3: no displacement data to fuse"):
            fuse_sample_rows(3, times, values, lens)
        with pytest.raises(EmptyStreamError,
                           match="user 3: no displacement data to fuse"):
            fuse_sample_streams(3, {(3, i): s for i, s in enumerate(streams)})


class TestRowStoreIngest:
    def test_feed_batch_row_store_equals_scalar_feed(self):
        """The vectorized ingest leaves the same row store — phase
        deltas, segment flags, chain numbering, tails — as feeding the
        same reports one by one."""
        capture = run_scenario(benchmark_scenario(2, seed=3),
                               duration_s=20.0, seed=3)
        reports = capture.reports
        scalar = TagBreathe()
        scalar.feed_many(reports)
        batched = TagBreathe()
        for lo in range(0, len(reports), 777):
            batched.feed_batch(ReportBatch.from_reports(reports[lo:lo + 777]))
        users = sorted({r.user_id for r in reports})
        assert len(users) > 2
        for uid in users:
            a = scalar._inc.state_for(uid)
            b = batched._inc.state_for(uid)
            assert a.keys == b.keys
            assert a.chain_of == b.chain_of
            assert a.tails == b.tails
            np.testing.assert_array_equal(bits(a.coefs.view()),
                                          bits(b.coefs.view()))
            np.testing.assert_array_equal(bits(a.index.times),
                                          bits(b.index.times))
            for name in ("port", "sid", "chan", "seg", "chain"):
                np.testing.assert_array_equal(a.index.column(name),
                                              b.index.column(name))
            for name in ("rssi", "dop", "phase", "wd"):
                np.testing.assert_array_equal(bits(a.index.column(name)),
                                              bits(b.index.column(name)))
