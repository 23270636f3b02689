"""O(new-samples) streaming estimation — the incremental tick path.

The batch reference (:meth:`repro.core.pipeline.TagBreathe._process_user`)
re-gathers, re-sorts, re-differences, re-fuses, and re-filters the whole
trailing window on every cadence tick.  This module maintains, per user,
state that is updated once per ``feed()``:

* a :class:`~repro.streams.windowindex.WindowIndex` row store of
  timestamp-ordered scalar columns — antenna port, RSSI, stream id,
  Doppler, channel, and each report's raw phase plus its Eq. (3)
  wrapped delta, segment-start flag and chain id, differenced once at
  ingest — so a trailing window is two binary searches plus contiguous
  slices instead of a gather + sort + re-difference.

:meth:`IncrementalEstimator.estimate` then replays the *same* six-stage
algorithm as the batch path — delivery hygiene, antenna failover,
staleness demotion, gap scoring, Hampel + Eq. (6)/(7) fusion, Eq. (5)
extraction — over those columns, building every segment, Hampel
neighbourhood and fusion bin of all the user's streams in one
vectorized pass.  Each stage's arithmetic is arranged to
perform the identical float64 operations on the identical values in the
identical order, so the result is **bit-for-bit equal** to the recompute
path (``tests/test_incremental.py`` and the hypothesis property in
``tests/test_property.py`` pin this).  Two deliberate, measure-zero
deviations from the recompute path are documented in DESIGN.md §12:
exact cross-stream timestamp ties order by arrival rather than by buffer
creation, and exact antenna-score ties break toward the lowest port.

What stays out: ``mode="increments"`` cannot tick incrementally — its
:class:`~repro.core.preprocess.DeltaChain` smoothing window spans the
analysis-window boundary, so windowed results are not a function of
windowed reports — and falls back to the recompute path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import perf
from ..config import (
    EstimatorConfig,
    MotionConfig,
    PipelineConfig,
    RobustnessConfig,
)
from ..errors import EmptyStreamError, InsufficientDataError, StreamError
from ..reader.tagreport import TagReport
from ..streams.windowindex import GrowableArray, WindowIndex
from ..streams.windows import trailing_window_bounds
from ..units import SPEED_OF_LIGHT, wrap_phase_delta
from .degradation import (
    REASON_ANTENNA_FAILOVER,
    REASON_GAPS,
    REASON_OUTLIERS,
    REASON_TAG_DEATH,
)
from .estimators import (
    BreathEstimator,
    EstimationWindow,
    resolve_estimator,
    track_roughness,
)
from .extraction import BreathExtractor, BreathingEstimate
from .fusion import fuse_sample_rows
from .motion import STILL, apply_motion, score_motion
from .preprocess import (
    DEFAULT_MIN_SEGMENT_LEN,
    StreamKey,
    chain_deltas,
    hampel_rows,
    window_displacement,
)
from .quality import quality_score


@dataclass
class TickOutcome:
    """Everything one incremental tick computed, pre-finalisation.

    The pipeline turns this into a ``UserEstimate`` via the same
    finalisation (obs counters, degradation warning, confidence clamp)
    the batch path uses, so the two paths cannot drift there either.
    """

    estimate: BreathingEstimate
    antenna_port: Optional[int]
    tags_fused: int
    read_count: int
    confidence: float
    reasons: List[str]
    n_rejected: int
    n_samples: int
    estimator: str = "zero_crossing"
    motion_gated: bool = False
    motion_score: float = 0.0


class UserStreamState:
    """One user's feed-time incremental state.

    ``index`` is the user's row store: every accepted report as one
    time-ordered row of scalar columns — antenna port, RSSI, stream id,
    Doppler, channel, and the Eq. (3) phase state (raw phase, wrapped
    delta against the previous reading of its chain, segment-start
    flag, chain id).  A chain is one (stream, channel, antenna) reading
    sequence; ``chain_of`` numbers them in order of first arrival,
    ``tails`` holds each chain's latest ``(time, phase)`` and ``coefs``
    its ``wavelength / (4 pi)``.

    ``version`` increments on every mutation (accepted feed, prune) and
    is what the pipeline's estimate memo keys on: a tick at an unchanged
    version returns the cached ``UserEstimate`` without touching any of
    this.
    """

    __slots__ = ("index", "keys", "sid_of", "chain_of", "tails", "coefs",
                 "version")

    def __init__(self) -> None:
        self.index = WindowIndex({
            "port": np.int64, "rssi": np.float64, "sid": np.int64,
            "dop": np.float64, "chan": np.int64, "phase": np.float64,
            "wd": np.float64, "seg": np.bool_, "chain": np.int64,
        })
        self.keys: List[StreamKey] = []
        self.sid_of: Dict[StreamKey, int] = {}
        self.chain_of: Dict[Tuple[int, int, int], int] = {}
        self.tails: List[Optional[Tuple[float, float]]] = []
        self.coefs = GrowableArray(np.float64)
        self.version = 0

    def stream_id(self, key: StreamKey) -> int:
        """The stream's id, assigned in order of first appearance."""
        sid = self.sid_of.get(key)
        if sid is None:
            sid = len(self.keys)
            self.sid_of[key] = sid
            self.keys.append(key)
        return sid

    def chain(self, key: Tuple[int, int, int],
              coef: float) -> Tuple[int, Optional[Tuple[float, float]]]:
        """A chain's id and previous ``(time, phase)`` (None when new).

        A new chain gets the next id; the caller records its tail.
        """
        cid = self.chain_of.get(key)
        if cid is not None:
            return cid, self.tails[cid]
        cid = len(self.tails)
        self.chain_of[key] = cid
        self.tails.append(None)
        self.coefs.append(coef)
        return cid, None


class IncrementalEstimator:
    """Per-user incremental window state + the O(window-slice) tick.

    Owned by :class:`~repro.core.pipeline.TagBreathe` (samples mode);
    fed from ``feed()``, queried from ``estimate_user()``.

    Args:
        frequencies_hz: channel-index -> carrier frequency map.
        config: signal-processing parameters (fusion bin width).
        robustness: graceful-degradation thresholds.
        extractor: the shared extraction stage.
        select_antenna: mirror of the engine's antenna-selection flag.
        max_gap_s: segment-splitting gap limit (samples mode).

    Raises:
        StreamError: on a non-positive gap limit.
    """

    def __init__(
        self,
        frequencies_hz: List[float],
        config: PipelineConfig,
        robustness: RobustnessConfig,
        extractor: BreathExtractor,
        select_antenna: bool,
        max_gap_s: float,
        motion: Optional[MotionConfig] = None,
        est_config: Optional[EstimatorConfig] = None,
        estimators: Optional[Dict[str, BreathEstimator]] = None,
    ) -> None:
        if max_gap_s <= 0:
            raise StreamError("max_gap_s must be > 0")
        # Per-channel Eq. (1) coefficient, spelled exactly as the batch
        # segment builder computes it.
        self._coefs = [(SPEED_OF_LIGHT / f) / (4.0 * np.pi)
                       for f in frequencies_hz]
        self._config = config
        self._robustness = robustness
        self._extractor = extractor
        self._select_antenna = select_antenna
        self._max_gap_s = float(max_gap_s)
        self._motion = motion if motion is not None else MotionConfig()
        self._est_config = (est_config if est_config is not None
                            else EstimatorConfig())
        if estimators is None:
            from .estimators import build_estimators
            estimators = build_estimators(extractor)
        self._estimators = estimators
        self._states: Dict[int, UserStreamState] = {}

    # ------------------------------------------------------------------
    # Feed-side maintenance
    # ------------------------------------------------------------------
    def state_for(self, user_id: int) -> Optional[UserStreamState]:
        """The user's live state, or None before their first report."""
        return self._states.get(user_id)

    def version(self, user_id: int) -> int:
        """The user's state version (-1 before their first report)."""
        state = self._states.get(user_id)
        return -1 if state is None else state.version

    def nbytes(self, user_id: Optional[int] = None) -> int:
        """Resident numpy bytes of one user's state (or every user's).

        Sums the row-store columns and the per-chain coefficients — the
        allocation-backed cost that hibernation and horizon pruning
        exist to bound.
        """
        states = (self._states.values() if user_id is None
                  else filter(None, [self._states.get(user_id)]))
        return sum(state.index.nbytes + state.coefs.nbytes
                   for state in states)

    def _state(self, user_id: int) -> UserStreamState:
        state = self._states.get(user_id)
        if state is None:
            state = UserStreamState()
            self._states[user_id] = state
        return state

    def ingest(self, report: TagReport) -> None:
        """Index one accepted report, differenced against its chain.

        The caller (``TagBreathe.feed``) has already enforced the stream
        contract: per-stream strictly-increasing timestamps, valid
        channel index, monitored user.
        """
        state = self._state(report.user_id)
        sid = state.stream_id(report.stream_key)
        t = report.timestamp_s
        phase = report.phase_rad
        chan = report.channel_index
        port = report.antenna_port
        cid, tail = state.chain((sid, chan, port), self._coefs[chan])
        if tail is None or t - tail[0] > self._max_gap_s or t <= tail[0]:
            wd, seg = 0.0, True
        else:
            wd, seg = wrap_phase_delta(phase - tail[1]), False
        state.tails[cid] = (t, phase)
        state.index.add(t, port=port, rssi=report.rssi_dbm, sid=sid,
                        dop=report.doppler_hz, chan=chan, phase=phase,
                        wd=wd, seg=seg, chain=cid)
        state.version += 1

    def ingest_streams(self, groups: List[Tuple[StreamKey, np.ndarray]],
                       users: np.ndarray, tags: np.ndarray,
                       times: np.ndarray, phases: np.ndarray,
                       rssis: np.ndarray, dopplers: np.ndarray,
                       channels: np.ndarray,
                       antennas: np.ndarray) -> None:
        """Vectorized :meth:`ingest` of one batch's accepted rows.

        The caller (``TagBreathe.feed_batch``) has already screened the
        batch per stream; this ingests every surviving row across all
        users in three passes — stream-id assignment, one global Eq. (3)
        chain pass, and per-user row-store extension — leaving state
        bit-identical to calling :meth:`ingest` row by row in arrival
        order: stream and chain ids are assigned in order of first
        appearance, each chain is differenced in one shot against its
        cached tail, and each user's index receives its rows as a stable
        sort by time (what row-wise ``add`` converges to).  ``version``
        advances by each user's accepted row count.

        Args:
            groups: per-stream ``(stream_key, rows)`` pairs — ``rows``
                being ascending original-batch indices of that stream's
                accepted rows — sorted by first accepted row, i.e. the
                order row-wise ingest would first see (and create) each
                stream.
            users / tags / times / phases / rssis / dopplers / channels
                / antennas: the full batch columns (only ``rows``
                positions are read).
        """
        if not groups:
            return
        n = times.shape[0]
        sids = np.empty(n, dtype=np.int64)
        by_user: Dict[int, List[np.ndarray]] = {}
        for key, rows in groups:
            uid = key[0]
            sids[rows] = self._state(uid).stream_id(key)
            by_user.setdefault(uid, []).append(rows)

        # Global chain pass: one stable lexsort arranges every accepted
        # row as contiguous (user, tag, channel, antenna) runs, each in
        # arrival order; every chain is then differenced in one
        # vectorized pass seeded from its tail.
        acc = (np.sort(np.concatenate([rows for _, rows in groups]))
               if len(groups) > 1 else groups[0][1])
        au = users[acc]
        ach = channels[acc]
        aan = antennas[acc]
        order = np.lexsort((aan, ach, tags[acc], au))
        gacc = acc[order]
        su = au[order]
        ssid = sids[gacc]
        sch = ach[order]
        san = aan[order]
        m = gacc.shape[0]
        is_start = np.empty(m, dtype=bool)
        is_start[0] = True
        np.not_equal(su[1:], su[:-1], out=is_start[1:])
        is_start[1:] |= ((ssid[1:] != ssid[:-1]) | (sch[1:] != sch[:-1])
                         | (san[1:] != san[:-1]))
        starts = np.flatnonzero(is_start)
        st = times[gacc]
        sp = phases[gacc]
        run_user = su[starts].tolist()
        run_key = list(zip(ssid[starts].tolist(), sch[starts].tolist(),
                           san[starts].tolist()))
        seed_t = st[starts].tolist()
        seed_p = sp[starts].tolist()
        run_chain = [0] * len(run_key)
        # Chain ids in order of each run's first arrival, as row-wise
        # ingest would number them; a fresh chain seeds with its own
        # first row (a segment start).
        for ri in np.argsort(gacc[starts], kind="stable").tolist():
            key = run_key[ri]
            cid, tail = self._states[run_user[ri]].chain(
                key, self._coefs[key[1]])
            if tail is not None:
                seed_t[ri], seed_p[ri] = tail
            run_chain[ri] = cid
        wd, seg = chain_deltas(st, sp, starts, seed_t, seed_p,
                               self._max_gap_s)
        ends = np.append(starts[1:], m) - 1
        for uid, cid, tail_t, tail_p in zip(run_user, run_chain,
                                            st[ends].tolist(),
                                            sp[ends].tolist()):
            self._states[uid].tails[cid] = (tail_t, tail_p)
        row_wd = np.empty(n)
        row_wd[gacc] = wd
        row_seg = np.empty(n, dtype=bool)
        row_seg[gacc] = seg
        row_chain = np.empty(n, dtype=np.int64)
        row_chain[gacc] = np.repeat(run_chain, np.diff(np.append(starts, m)))

        for uid, chunks in by_user.items():
            rows_u = (np.sort(np.concatenate(chunks))
                      if len(chunks) > 1 else chunks[0])
            state = self._states[uid]
            tu = times[rows_u]
            tsort = np.argsort(tu, kind="stable")
            tail = state.index.last_time()
            if tail is None or tu[tsort[0]] >= tail:
                srt = rows_u[tsort]
                state.index.extend(
                    tu[tsort], port=antennas[srt], rssi=rssis[srt],
                    sid=sids[srt], dop=dopplers[srt], chan=channels[srt],
                    phase=phases[srt], wd=row_wd[srt], seg=row_seg[srt],
                    chain=row_chain[srt])
            else:
                # A straggler lands before the index tail (cross-stream
                # reordering against previously fed data): rare, row-wise
                # in arrival order.
                for i in rows_u.tolist():
                    state.index.add(
                        float(times[i]), port=int(antennas[i]),
                        rssi=float(rssis[i]), sid=int(sids[i]),
                        dop=float(dopplers[i]), chan=int(channels[i]),
                        phase=float(phases[i]), wd=float(row_wd[i]),
                        seg=bool(row_seg[i]), chain=int(row_chain[i]))
            state.version += rows_u.shape[0]

    def prune_stream(self, user_id: int, key: StreamKey,
                     horizon_s: float) -> None:
        """Mirror the engine's bounded-memory prune for one stream.

        Safe at any cut: a window re-anchors each chain at its first
        in-window row, so retained deltas stay valid verbatim; chain
        tails are untouched (pruning only removes from the front).
        """
        state = self._states.get(user_id)
        if state is None:
            return
        sid = state.sid_of.get(key)
        if sid is None:
            return
        where = state.index.column("sid") == sid
        if state.index.prune_before(horizon_s, where=where):
            state.version += 1

    def reset(self) -> None:
        """Forget every user's state (streaming reset / restore)."""
        self._states.clear()

    # ------------------------------------------------------------------
    # Tick side
    # ------------------------------------------------------------------
    def estimate(self, user_id: int, window_s: float,
                 previous_estimator: Optional[str] = None,
                 estimator_override: Optional[str] = None) -> TickOutcome:
        """One incremental tick over the trailing ``window_s`` seconds.

        Args:
            user_id: the user to estimate.
            window_s: trailing-window length.
            previous_estimator: the user's fallback hysteresis memory
                (the estimator that produced their previous streaming
                estimate), owned by the pipeline.
            estimator_override: per-call estimator override, bypassing
                ``auto`` selection.

        Raises:
            InsufficientDataError: no streamed data for the user, or the
                window holds too little signal (same contract and wording
                as the recompute path).
        """
        state = self._states.get(user_id)
        if state is None or not len(state.index):
            raise InsufficientDataError(
                f"no streamed data for user {user_id}")
        rb = self._robustness
        reasons: List[str] = []
        confidence = 1.0

        with perf.stage("pipeline.tick.window"):
            index = state.index
            all_times = index.times
            t_latest = float(all_times[-1])
            lo, hi = trailing_window_bounds(t_latest, window_s)
            a, b = index.window_bounds(lo, hi)
            times = all_times[a:b]
            ports = index.column("port")[a:b]
            sids = index.column("sid")[a:b]
            # Window positions surviving stages 2-3 (None: all of them);
            # the other columns are gathered once, after the filters.
            rows: Optional[np.ndarray] = None
            # Stage 1 (delivery hygiene) is a no-op here by construction:
            # feed() enforces per-stream order and dedup and the index
            # keeps global time order, so sanitize_reports would find
            # nothing to count.

            # The motion screen (stage 4b) scores the *full* sanitized
            # window — all antennas, pre-demotion — exactly like the
            # batch path: antenna selection exists for phase continuity,
            # while Doppler motion evidence is antenna-agnostic.
            m_times = times

            # Stage 2: antenna selection with failover past dead ports.
            antenna_port: Optional[int] = None
            unique_ports = np.unique(ports)
            if self._select_antenna and unique_ports.size > 1:
                antenna_port, failed_over = _select_port(
                    times, ports, index.column("rssi")[a:b], unique_ports,
                    rb.antenna_stale_s)
                if failed_over:
                    reasons.append(REASON_ANTENNA_FAILOVER)
                    confidence *= 0.85
                rows = np.flatnonzero(ports == antenna_port)
                times = times[rows]
                sids = sids[rows]
            elif unique_ports.size == 1:
                antenna_port = int(unique_ports[0])

            # Stage 3: staleness watchdog — demote dead tag streams.
            unique_sids = np.unique(sids)
            if times.shape[0] and unique_sids.size > 1:
                t_lat = float(times[-1])
                dead = [
                    s for s in unique_sids
                    if float(times[sids == s][-1]) < t_lat - rb.stale_stream_s
                ]
                if dead and len(dead) < unique_sids.size:
                    reasons.append(REASON_TAG_DEATH)
                    confidence *= max(
                        0.5,
                        (unique_sids.size - len(dead)) / unique_sids.size)
                    live = np.flatnonzero(~np.isin(sids, dead))
                    rows = live if rows is None else rows[live]
                    times = times[live]
                    sids = sids[live]

            def column(name: str) -> np.ndarray:
                values = index.column(name)[a:b]
                return values if rows is None else values[rows]

            # Stage 4: coverage — long holes in the read times.
            if times.shape[0] > 1:
                span = max(float(times[-1]) - float(times[0]), 1e-9)
                gaps = np.diff(times)
                # Sequential python sum, matching the batch path's
                # generator sum float for float (np.sum is pairwise).
                excess = sum(gaps[gaps > rb.gap_warn_s].tolist())
                if excess > 0.0:
                    reasons.append(REASON_GAPS)
                    confidence *= max(0.5, 1.0 - excess / span)

            # Stage 4b: Doppler motion screen (same pure function, same
            # full-window pre-selection arrays as the batch path).
            motion = STILL
            if self._motion.enabled and m_times.shape[0]:
                motion = score_motion(m_times, index.column("dop")[a:b],
                                      self._motion)
                confidence = apply_motion(motion, reasons, confidence)

        with perf.stage("pipeline.tick.fuse"):
            # Stage 5: every tag's windowed displacement (from the
            # feed-time deltas) + Hampel + Eq. (6)/(7) fusion, one
            # vectorized pass over all streams.  Streams are laid out in
            # order of first appearance in the surviving window, exactly
            # like group_reports_by_stream on the batch side.
            _, first_pos = np.unique(sids, return_index=True)
            order = sids[np.sort(first_pos)]
            rank = np.empty(len(state.keys), dtype=np.int64)
            rank[order] = np.arange(order.shape[0])
            kept, values = window_displacement(
                column("phase"), column("wd"), column("seg"),
                column("chain"), state.coefs.view(),
                min_segment_len=DEFAULT_MIN_SEGMENT_LEN)
            stream_of = rank[sids[kept]]
            by_stream = np.argsort(stream_of, kind="stable")
            stream_of = stream_of[by_stream]
            s_times = times[kept][by_stream]
            s_values = values[by_stream]
            lengths = np.bincount(stream_of, minlength=order.shape[0])
            n_samples = int(kept.shape[0])
            n_rejected = 0
            if rb.outlier_rejection:
                keep, n_rejected = hampel_rows(
                    s_values, lengths, window=rb.hampel_window,
                    n_sigmas=rb.hampel_n_sigmas)
                if n_rejected:
                    s_times = s_times[keep]
                    s_values = s_values[keep]
                    lengths = np.bincount(stream_of[keep],
                                          minlength=order.shape[0])
            try:
                track = fuse_sample_rows(user_id, s_times, s_values,
                                         lengths,
                                         bin_s=self._config.fusion_bin_s)
            except EmptyStreamError as exc:
                raise InsufficientDataError(str(exc)) from exc
            if n_samples and n_rejected / n_samples > rb.outlier_warn_fraction:
                reasons.append(REASON_OUTLIERS)
                confidence *= max(0.7, 1.0 - 5.0 * n_rejected / n_samples)

        with perf.stage("pipeline.tick.extract"):
            # Stage 6: estimator selection + extraction (DESIGN.md §16),
            # identical arithmetic and ordering to the batch path.
            roughness = track_roughness(track)
            chosen, est_factor = resolve_estimator(
                self._est_config, roughness, previous_estimator,
                estimator_override, reasons)
            confidence *= est_factor
            # ``tag=sids`` labels the same per-tag groups the batch path
            # labels with tag_id — only the partition is contracted.
            est_window = EstimationWindow(
                track=track, times=times, rssi=column("rssi"),
                channel=column("chan"), antenna=column("port"), tag=sids)
            estimate = self._estimators[chosen].estimate(est_window)

        return TickOutcome(
            estimate=estimate,
            antenna_port=antenna_port,
            tags_fused=int(order.shape[0]),
            read_count=int(times.shape[0]),
            confidence=confidence,
            reasons=reasons,
            n_rejected=n_rejected,
            n_samples=n_samples,
            estimator=chosen,
            motion_gated=motion.gated,
            motion_score=motion.score,
        )


def _select_port(times: np.ndarray, ports: np.ndarray, rssis: np.ndarray,
                 unique_ports: np.ndarray,
                 stale_s: float) -> Tuple[int, Tuple[int, ...]]:
    """Column-store twin of ``select_antenna_with_failover``.

    Same score (via the shared :func:`~repro.core.quality.quality_score`),
    same span and liveness definitions; exact score ties break toward the
    lowest live port (the batch path's small-int set iteration does the
    same in practice — a documented measure-zero deviation otherwise).
    """
    span = max(float(times[-1]) - float(times[0]), 1e-9)
    t_latest = float(times[-1])
    scores: Dict[int, float] = {}
    last_seen: Dict[int, float] = {}
    for p in unique_ports:
        port = int(p)
        selected = ports == p
        port_times = times[selected]
        scores[port] = quality_score(
            int(selected.sum()), span, float(np.mean(rssis[selected])))
        last_seen[port] = float(port_times[-1])
    live = [p for p in sorted(last_seen)
            if last_seen[p] >= t_latest - stale_s]
    chosen = max(live, key=lambda p: scores[p])
    failed_over = tuple(sorted(
        p for p in scores
        if p not in live and scores[p] > scores[chosen]
    ))
    return chosen, failed_over
