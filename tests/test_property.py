"""Property-based tests (hypothesis): invariants the example-based suites
only spot-check.

Covered substrate:

* :mod:`repro.units` — conversion round-trips and phase-wrap ranges;
* :mod:`repro.epc.codec` — EPC96 encode/decode round-trips;
* :mod:`repro.streams` — bin_sum sample conservation, resample grid
  monotonicity.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.epc.codec import EPC96, decode_user_tag, encode_user_tag
from repro.streams.resample import bin_sum, resample_linear
from repro.streams.timeseries import TimeSeries

#: Finite, sanely-sized floats — the library works in SI units where
#: astronomically large magnitudes only exercise float artifacts.
finite = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# repro.units
# ----------------------------------------------------------------------
class TestUnitsProperties:
    @given(st.floats(min_value=-200.0, max_value=200.0))
    def test_db_linear_round_trip(self, db):
        assert units.linear_to_db(units.db_to_linear(db)) == \
            pytest.approx(db, abs=1e-9)

    @given(st.floats(min_value=-100.0, max_value=60.0))
    def test_dbm_watts_round_trip(self, dbm):
        assert units.watts_to_dbm(units.dbm_to_watts(dbm)) == \
            pytest.approx(dbm, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_hz_bpm_round_trip(self, hz):
        assert units.bpm_to_hz(units.hz_to_bpm(hz)) == \
            pytest.approx(hz, rel=1e-12, abs=1e-12)

    @given(finite)
    def test_deg_rad_round_trip(self, deg):
        assert units.rad_to_deg(units.deg_to_rad(deg)) == \
            pytest.approx(deg, rel=1e-9, abs=1e-6)

    @given(finite)
    def test_wrap_phase_range(self, theta):
        wrapped = units.wrap_phase(theta)
        assert 0.0 <= wrapped < units.TWO_PI

    @given(finite)
    def test_wrap_phase_delta_range(self, delta):
        wrapped = units.wrap_phase_delta(delta)
        assert -math.pi <= wrapped < math.pi

    @given(st.floats(min_value=-3.14, max_value=3.14))
    def test_wrap_phase_delta_identity_inside_range(self, delta):
        # A delta already inside (-pi, pi) passes through unchanged (the
        # exact +/- pi boundary is a float-rounding coin flip, so stay off
        # it; the range test above still covers the edges).
        assert units.wrap_phase_delta(delta) == pytest.approx(delta, abs=1e-9)

    @given(st.lists(finite, min_size=1, max_size=32))
    def test_wrap_phase_array_matches_scalar(self, thetas):
        array = units.wrap_phase(np.array(thetas))
        scalars = [units.wrap_phase(t) for t in thetas]
        np.testing.assert_allclose(array, scalars, rtol=0, atol=0)


# ----------------------------------------------------------------------
# repro.epc.codec
# ----------------------------------------------------------------------
class TestEPCProperties:
    user_ids = st.integers(min_value=0, max_value=(1 << 64) - 1)
    tag_ids = st.integers(min_value=0, max_value=(1 << 32) - 1)

    @given(user_ids, tag_ids)
    def test_encode_decode_round_trip(self, user_id, tag_id):
        assert decode_user_tag(encode_user_tag(user_id, tag_id)) == \
            (user_id, tag_id)

    @given(user_ids, tag_ids)
    def test_epc96_hex_round_trip(self, user_id, tag_id):
        epc = EPC96.from_user_tag(user_id, tag_id)
        again = EPC96.from_hex(epc.to_hex())
        assert again == epc
        assert again.split() == (user_id, tag_id)

    @given(st.integers(min_value=0, max_value=(1 << 96) - 1))
    def test_hex_is_24_chars_for_any_value(self, value):
        assert len(EPC96(value).to_hex()) == 24


# ----------------------------------------------------------------------
# repro.streams
# ----------------------------------------------------------------------
#: Strictly increasing time lists with arbitrary values attached.
def _sample_lists(min_size=1, max_size=40):
    return st.lists(
        st.tuples(st.floats(min_value=0.001, max_value=10.0,
                            allow_nan=False),
                  st.floats(min_value=-100.0, max_value=100.0,
                            allow_nan=False)),
        min_size=min_size, max_size=max_size,
    ).map(lambda gaps: [
        (sum(g for g, _ in gaps[:i + 1]), v)
        for i, (_, v) in enumerate(gaps)
    ])


class TestResampleProperties:
    @settings(max_examples=60)
    @given(_sample_lists(min_size=2),
           st.floats(min_value=0.05, max_value=2.0))
    def test_bin_sum_conserves_total(self, samples, bin_s):
        series = TimeSeries([t for t, _ in samples], [v for _, v in samples])
        binned = bin_sum(series, bin_s)
        # Eq. 6 is a partition of the samples into bins: nothing is lost.
        assert float(np.sum(binned.values)) == \
            pytest.approx(float(np.sum(series.values)), abs=1e-6)
        assert np.all(np.diff(binned.times) > 0)

    @settings(max_examples=60)
    @given(_sample_lists(min_size=2),
           st.floats(min_value=0.5, max_value=64.0))
    def test_resample_linear_grid_regular_and_bounded(self, samples, rate_hz):
        series = TimeSeries([t for t, _ in samples], [v for _, v in samples])
        resampled = resample_linear(series, rate_hz)
        times = np.asarray(resampled.times)
        assert times[0] == pytest.approx(series.start)
        assert times[-1] <= series.end + 1e-9
        if len(times) > 1:
            np.testing.assert_allclose(np.diff(times), 1.0 / rate_hz,
                                       rtol=1e-9)
        # Interpolation cannot overshoot the sample range.
        assert np.min(resampled.values) >= min(series.values) - 1e-9
        assert np.max(resampled.values) <= max(series.values) + 1e-9


# ----------------------------------------------------------------------
# repro.core incremental streaming (DESIGN.md §12)
# ----------------------------------------------------------------------
def _report_streams(draw):
    """A messy multi-stream report sequence: several tags and channels,
    shuffled delivery, occasional exact-duplicate timestamps."""
    from repro.reader.tagreport import TagReport

    n_tags = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=10, max_value=60))
    reports = []
    for tag in range(n_tags):
        t = draw(st.floats(min_value=0.0, max_value=1.0))
        for i in range(n):
            dt = draw(st.sampled_from([0.0, 0.03, 0.05, 0.4, 6.0]))
            t += dt  # dt == 0.0 fabricates an exact duplicate
            reports.append(TagReport(
                epc=EPC96.from_user_tag(1, tag),
                timestamp_s=t,
                phase_rad=draw(st.floats(min_value=0.0, max_value=6.28)),
                rssi_dbm=-60.0, doppler_hz=0.0,
                channel_index=draw(st.integers(min_value=0, max_value=3)),
                antenna_port=1))
    shuffled = draw(st.permutations(reports))
    return shuffled


_report_streams = st.composite(_report_streams)


@st.composite
def _breathing_feeds(draw):
    """Breathing-modulated phase for 1-3 tags on 1-2 antenna ports with
    channel hopping, lambda/4 phase flips (pi jumps Hampel must reject),
    tag dropouts, and locally shuffled delivery with duplicates; plus a
    tick cadence in reports."""
    from repro.core.preprocess import default_frequencies
    from repro.reader.tagreport import TagReport
    from repro.units import SPEED_OF_LIGHT

    n_tags = draw(st.integers(min_value=1, max_value=3))
    ports = draw(st.sampled_from([(1,), (1, 2)]))
    rate_bpm = draw(st.floats(min_value=8.0, max_value=30.0))
    duration = draw(st.floats(min_value=20.0, max_value=45.0))
    flip_p = draw(st.sampled_from([0.0, 0.01, 0.05]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    freqs = default_frequencies()
    offsets = rng.uniform(0.0, 2 * np.pi, (n_tags, len(freqs), 3))
    dead_after = [duration if rng.random() < 0.7 else
                  float(rng.uniform(5.0, duration)) for _ in range(n_tags)]
    reports = []
    t = float(rng.uniform(0.0, 1.0))
    while t < duration:
        t += float(rng.exponential(0.01))
        tag = int(rng.integers(n_tags))
        if t > dead_after[tag]:
            continue
        port = ports[int(rng.integers(len(ports)))]
        channel = int(t / 0.2) % len(freqs)
        lam = SPEED_OF_LIGHT / freqs[channel]
        d = 0.005 * np.sin(2 * np.pi * rate_bpm / 60.0 * t)
        phase = (4 * np.pi * d / lam + offsets[tag, channel, port]
                 + rng.normal(0.0, 0.1)
                 + (np.pi if rng.random() < flip_p else 0.0))
        reports.append(TagReport(
            epc=EPC96.from_user_tag(1, tag), timestamp_s=t,
            phase_rad=float(phase % (2 * np.pi)),
            rssi_dbm=float(-55.0 - 5.0 * port + rng.normal(0.0, 1.0)),
            doppler_hz=float(rng.normal(0.0, 0.5)),
            channel_index=channel, antenna_port=port))
        if rng.random() < 0.01:
            reports.append(reports[-1])  # LLRP re-delivery
    for i in range(0, len(reports) - 1, 97):
        reports[i], reports[i + 1] = reports[i + 1], reports[i]
    tick_every = draw(st.integers(min_value=200, max_value=900))
    return reports, tick_every


class TestIncrementalStreamingProperties:
    @staticmethod
    def _tick_pair(engine, window_s=None):
        """(kind, payload) of estimate_user vs estimate_user_recompute."""
        from repro.errors import InsufficientDataError
        import warnings as _warnings

        from repro.errors import DegradedEstimateWarning

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DegradedEstimateWarning)
            try:
                inc = engine.estimate_user(1, window_s=window_s)
            except InsufficientDataError as exc:
                inc = ("err", str(exc))
            try:
                rec = engine.estimate_user_recompute(1, window_s=window_s)
            except InsufficientDataError as exc:
                rec = ("err", str(exc))
        return inc, rec

    @staticmethod
    def _assert_bit_equal(inc, rec):
        """The whole estimate, float bit patterns included."""
        if isinstance(inc, tuple) or isinstance(rec, tuple):
            assert inc == rec
            return
        bits = np.uint64
        a, b = inc.estimate, rec.estimate
        np.testing.assert_array_equal(a.signal.times.view(bits),
                                      b.signal.times.view(bits))
        np.testing.assert_array_equal(a.signal.values.view(bits),
                                      b.signal.values.view(bits))
        np.testing.assert_array_equal(
            np.asarray(a.crossings, dtype=float).view(bits),
            np.asarray(b.crossings, dtype=float).view(bits))
        np.testing.assert_array_equal(a.rate_series.values.view(bits),
                                      b.rate_series.values.view(bits))
        assert np.float64(inc.rate_bpm).view(bits) == \
            np.float64(rec.rate_bpm).view(bits)
        assert np.float64(inc.confidence).view(bits) == \
            np.float64(rec.confidence).view(bits)
        assert inc.degraded_reasons == rec.degraded_reasons
        assert inc.tags_fused == rec.tags_fused
        assert inc.read_count == rec.read_count
        assert inc.antenna_port == rec.antenna_port
        assert inc.estimator == rec.estimator

    @settings(max_examples=30, deadline=None)
    @given(_breathing_feeds())
    def test_incremental_tick_equals_recompute(self, feed):
        """Multi-tag, multi-port breathing streams with lambda/4 phase
        flips (Hampel rejects them), messy delivery, and ticks
        interleaved with feeds: every incremental tick equals the
        from-scratch recompute bit for bit — the whole estimate, or the
        identical refusal."""
        from repro import TagBreathe

        reports, tick_every = feed
        engine = TagBreathe(user_ids={1})
        for i, report in enumerate(reports):
            engine.feed(report)
            if i % tick_every == tick_every - 1:
                self._assert_bit_equal(*self._tick_pair(engine))
        self._assert_bit_equal(*self._tick_pair(engine))

    @settings(max_examples=30, deadline=None)
    @given(_report_streams())
    def test_random_phase_streams_tick_equals_recompute(self, reports):
        """Whatever mess arrives — shuffled, duplicated, multi-channel
        random phases — the two paths agree (mostly on the refusal)."""
        from repro import TagBreathe

        engine = TagBreathe(user_ids={1})
        engine.feed_many(reports)
        self._assert_bit_equal(*self._tick_pair(engine))

    @settings(max_examples=20, deadline=None)
    @given(_report_streams())
    def test_checkpoint_restore_equals_uninterrupted(self, reports):
        """Snapshot + restore mid-stream converges on the uninterrupted
        session: identical estimates and identical drop accounting."""
        from repro import TagBreathe

        split = len(reports) // 2
        uninterrupted = TagBreathe(user_ids={1})
        uninterrupted.feed_many(reports)

        first_half = TagBreathe(user_ids={1})
        first_half.feed_many(reports[:split])
        resumed = TagBreathe(user_ids={1})
        resumed.restore_streaming(first_half.buffered_reports(),
                                  first_half.feed_drop_counts)
        resumed.feed_many(reports[split:])

        # The restored buffer was already deduplicated, so the replay
        # itself must not have dropped anything.
        assert sum(resumed.last_restore_drop_counts.values()) == 0
        assert resumed.feed_drop_counts == uninterrupted.feed_drop_counts
        a, _ = self._tick_pair(uninterrupted)
        b, _ = self._tick_pair(resumed)
        if isinstance(a, tuple) or isinstance(b, tuple):
            assert a == b
        else:
            assert a.rate_bpm == b.rate_bpm
            assert a.confidence == b.confidence
