"""Structure-of-arrays report batches for the columnar hot path.

A :class:`ReportBatch` carries the same seven LLRP fields as a list of
:class:`~repro.reader.tagreport.TagReport` objects — timestamp, phase,
RSSI, Doppler, channel, antenna, EPC — but as parallel numpy columns,
so screening, phase-chain differencing, and wire encoding can run as
array operations instead of per-object attribute chasing.  The EPC is
carried pre-split into its ``user_id``/``tag_id`` halves (the only form
the pipeline ever consumes; ``EPC96.from_user_tag`` reconstructs the
full 96-bit code losslessly).

Batches are validated once on construction with the exact same bounds
``TagReport.__post_init__`` enforces per report, so a batch round-trips
to a report list and back bit-for-bit.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..epc.codec import EPC96
from ..errors import ReaderError
from ..units import TWO_PI
from .tagreport import TagReport

#: (name, numpy dtype) of every batch column, in canonical order.
COLUMNS = (
    ("t", np.float64),
    ("phase", np.float64),
    ("rssi", np.float64),
    ("doppler", np.float64),
    ("channel", np.int64),
    ("antenna", np.int64),
    ("user_id", np.uint64),
    ("tag_id", np.uint64),
)

#: Slack TagReport allows past 2*pi for float round-off, mirrored here.
_PHASE_SLACK = 1e-12


class ReportBatch:
    """A column-oriented batch of tag reports.

    Args:
        t: report timestamps in seconds (float64).
        phase: raw wrapped phase in ``[0, 2*pi)`` radians (float64).
        rssi: received signal strength in dBm (float64).
        doppler: raw Doppler shift in Hz (float64).
        channel: hop channel indices, >= 0 (int).
        antenna: antenna ports, >= 1 (int).
        user_id: upper-64-bit EPC halves (uint64).
        tag_id: lower-32-bit EPC halves (uint64, < 2**32).

    Raises:
        ReaderError: when column lengths disagree or any value is out
            of the range ``TagReport`` itself would reject.
    """

    __slots__ = ("t", "phase", "rssi", "doppler", "channel", "antenna",
                 "user_id", "tag_id")

    def __init__(self, t, phase, rssi, doppler, channel, antenna,
                 user_id, tag_id) -> None:
        cols = (t, phase, rssi, doppler, channel, antenna, user_id, tag_id)
        for (name, dtype), raw in zip(COLUMNS, cols):
            arr = np.ascontiguousarray(raw, dtype=dtype)
            if arr.ndim != 1:
                raise ReaderError(f"batch column {name!r} must be 1-D")
            object.__setattr__(self, name, arr)
        n = self.t.shape[0]
        for name, _ in COLUMNS:
            if getattr(self, name).shape[0] != n:
                raise ReaderError(
                    f"batch column {name!r} has "
                    f"{getattr(self, name).shape[0]} rows, expected {n}")
        if n:
            self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ReportBatch is immutable")

    def _validate(self) -> None:
        phase = self.phase
        if np.any(~np.isfinite(phase)) or np.any(phase < 0.0) \
                or np.any(phase >= TWO_PI + _PHASE_SLACK):
            raise ReaderError("phase must be a finite value in [0, 2*pi)")
        if np.any(self.channel < 0):
            raise ReaderError("channel index must be >= 0")
        if np.any(self.antenna < 1):
            raise ReaderError("antenna ports are 1-based")
        if np.any(self.tag_id > np.uint64(0xFFFFFFFF)):
            raise ReaderError("tag_id exceeds the 32-bit EPC serial field")

    def __len__(self) -> int:
        return int(self.t.shape[0])

    @classmethod
    def from_reports(cls, reports: Sequence[TagReport]) -> "ReportBatch":
        """Pack a sequence of reports into columns (order preserved)."""
        n = len(reports)
        t = np.empty(n)
        phase = np.empty(n)
        rssi = np.empty(n)
        doppler = np.empty(n)
        channel = np.empty(n, dtype=np.int64)
        antenna = np.empty(n, dtype=np.int64)
        user = np.empty(n, dtype=np.uint64)
        tag = np.empty(n, dtype=np.uint64)
        for i, r in enumerate(reports):
            t[i] = r.timestamp_s
            phase[i] = r.phase_rad
            rssi[i] = r.rssi_dbm
            doppler[i] = r.doppler_hz
            channel[i] = r.channel_index
            antenna[i] = r.antenna_port
            user[i] = r.user_id
            tag[i] = r.tag_id
        return cls(t, phase, rssi, doppler, channel, antenna, user, tag)

    def to_reports(self) -> List[TagReport]:
        """Materialize the batch as TagReport objects (order preserved)."""
        return [
            TagReport(epc=EPC96.from_user_tag(int(u), int(g)),
                      timestamp_s=ts, phase_rad=ph, rssi_dbm=rs,
                      doppler_hz=dp, channel_index=int(ch),
                      antenna_port=int(an))
            for ts, ph, rs, dp, ch, an, u, g in zip(
                self.t.tolist(), self.phase.tolist(), self.rssi.tolist(),
                self.doppler.tolist(), self.channel.tolist(),
                self.antenna.tolist(), self.user_id.tolist(),
                self.tag_id.tolist())
        ]

    def select(self, rows) -> "ReportBatch":
        """A new batch of the given rows (boolean mask or index array).

        Rows of a validated batch are valid, so the result is built
        without validating them again.
        """
        out = object.__new__(ReportBatch)
        for name, _ in COLUMNS:
            object.__setattr__(out, name, np.ascontiguousarray(
                getattr(self, name)[rows]))
        return out

    def split_by_user(self) -> Iterator[Tuple[int, "ReportBatch"]]:
        """Yield ``(user_id, sub_batch)`` per user, rows in batch order.

        Users are yielded in order of first appearance, and each
        sub-batch keeps its rows in original batch order, so feeding the
        sub-batches sequentially is equivalent to feeding the batch.
        """
        user = self.user_id
        n = user.shape[0]
        if not n:
            return
        order = np.argsort(user, kind="stable")
        sorted_user = user[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_user[1:] != sorted_user[:-1])))
        bounds = np.append(starts, n)
        groups = [np.sort(order[bounds[i]: bounds[i + 1]])
                  for i in range(starts.shape[0])]
        for rows in sorted(groups, key=lambda g: int(g[0])):
            yield int(user[rows[0]]), self.select(rows)
