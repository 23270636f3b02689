"""Span tracing for the benchmark's traced runs, kept outside ``src/``.

Two halves live here:

* **Recording** (:func:`install_sut`): runs inside every SUT process of a
  traced run (loaded by ``perfbench/hook/sitecustomize.py``).  It wraps public functions
  of each layer, so every call records one span: name, parent span,
  thread-CPU start and end.  Root spans also carry a monotonic wall
  start, which is how the analysis keeps only the measured window.
  Spans stay in memory and are written as one JSON file per process
  when the process exits.
* **Analysis** (:func:`self_times`, :func:`coverage`, :func:`load_dumps`):
  turns dumped spans into per-layer self times.  A span's self time is
  its duration minus the durations of its direct children.

Span clocks are thread CPU time, not wall time: a SUT process shares two
cores with the load generator and its siblings, and a wall clock would
charge preemption to whichever layer happened to be running.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: User ids at or above this prefix belong to contending item tags (see
#: ``repro.sim.scenario``): they are not monitored people.
ITEM_USER_PREFIX = 0xFFFF_FFFF_0000_0000

#: Span tuple layout: (name index, parent span index or -1, cpu start ns,
#: cpu end ns, monotonic wall start ns for roots else 0).
Span = Tuple[int, int, int, int, int]

_cpu_ns = time.thread_time_ns
_wall_ns = time.monotonic_ns


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        #: Per-call records, each led by its monotonic ns so the analysis
        #: can keep the measured window: (at, submit -> ingest wait ns),
        #: (at, reports) per ingest, (at, offered, accepted) per feed and
        #: (at, non-monitored?, insufficient?) per tick.
        self.queue_waits: List[Tuple[int, int]] = []
        self.ingests: List[Tuple[int, int]] = []
        self.feeds: List[Tuple[int, int, int]] = []
        self.ticks: List[Tuple[int, bool, bool]] = []
        self.pending_submits: Dict[int, int] = {}
        self.counts: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # open/close allocate no container between the stack push and the
    # first CPU read, nor between the second CPU read and the stack pop,
    # so a garbage collection (itself a span) never lands inside a span's
    # tree but outside its interval.
    def open(self) -> Tuple[int, int, int, int]:
        """Start a span; returns (index, parent, wall ns, cpu ns)."""
        stack = self.stack
        parent = stack[-1] if stack else -1
        wall = _wall_ns() if parent < 0 else 0
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        return index, parent, wall, _cpu_ns()

    def close(self, name_id: int, opened: Tuple[int, int, int, int]) -> None:
        """End the span ``opened`` by :meth:`open`."""
        cpu1 = _cpu_ns()
        self.stack.pop()
        index, parent, wall, cpu0 = opened
        self.spans[index] = (name_id, parent, cpu0, cpu1, wall)

    def dump(self) -> Dict:
        return {
            "pid": os.getpid(),
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
            "complete": all(s is not None for s in self.spans),
            "queue_waits": self.queue_waits,
            "ingests": self.ingests,
            "feeds": self.feeds,
            "ticks": self.ticks,
            "counts": self.counts,
        }


def _wrap(rec: Recorder, name: str, fn, materialize: bool = False):
    """``fn`` recording one span per call (generators are drained)."""
    name_id = rec.name_id(name)
    open_span, close_span = rec.open, rec.close

    def traced(*args, **kwargs):
        opened = open_span()
        try:
            result = fn(*args, **kwargs)
            if materialize:
                result = iter(list(result))
            return result
        finally:
            close_span(name_id, opened)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class _JsonProxy:
    """Stands in for one module's ``json`` so only that module's calls of
    one function (``dumps`` or ``loads``) are timed."""

    def __init__(self, rec: Recorder, name: str, function: str) -> None:
        setattr(self, function, _wrap(rec, name, getattr(json, function)))

    def __getattr__(self, attr):
        return getattr(json, attr)


def _patch(rec: Recorder, name: str, owner, attr: str,
           materialize: bool = False) -> None:
    setattr(owner, attr, _wrap(rec, name, getattr(owner, attr), materialize))


def install_serve(rec: Recorder) -> None:
    """Wrap the serve stack's layer entry points (SUT processes)."""
    import asyncio.base_events as base_events

    from repro.core.pipeline import TagBreathe
    from repro.errors import InsufficientDataError
    from repro.reader.batch import ReportBatch
    from repro.serve import client, fabric, hashring, protocol, server, session

    _patch(rec, "loop", base_events.BaseEventLoop, "_run_once")
    _patch(rec, "protocol.feed", protocol.FrameDecoder, "feed")
    _patch(rec, "protocol.decode", protocol, "decode_column_frame")
    _patch(rec, "protocol.encode", fabric, "encode_column_frame")
    _patch(rec, "batch.split", ReportBatch, "split_by_user",
           materialize=True)
    _patch(rec, "batch.select", ReportBatch, "select")
    _patch(rec, "session.lookup", session.SessionShard, "session_for")
    _patch(rec, "session.estimate", session.UserSession, "maybe_estimate")
    _patch(rec, "emit.to_wire", session, "estimate_to_wire")
    _patch(rec, "emit.publish", server.BreathServer, "_publish")
    _patch(rec, "serve.checkpoint", server.BreathServer, "checkpoint_now")
    _patch(rec, "fabric.ring", hashring.HashRing, "owner")
    _patch(rec, "fabric.write", client.IngestClient, "write_frame")
    # Watch lines: encoded by the server and the router, decoded by the
    # router's per-worker watch pumps.
    server.json = _JsonProxy(rec, "emit.encode", "dumps")
    fabric.json = _JsonProxy(rec, "emit.encode", "dumps")
    client.json = _JsonProxy(rec, "fabric.watch_decode", "loads")

    submit = session.SessionShard.submit_batch
    ingest = session.UserSession.ingest_batch
    estimate_user = TagBreathe.estimate_user
    feed_batch = TagBreathe.feed_batch
    user_session_init = session.UserSession.__init__

    def submit_batch(self, batch):
        rec.pending_submits[id(batch)] = _wall_ns()
        return submit(self, batch)

    def ingest_batch(self, batch):
        at = _wall_ns()
        t0 = rec.pending_submits.pop(id(batch), None)
        if t0 is not None:
            rec.queue_waits.append((at, at - t0))
        rec.ingests.append((at, len(batch)))
        return ingest(self, batch)

    def counted_feed(self, batch):
        at = _wall_ns()
        accepted = feed_batch(self, batch)
        rec.feeds.append((at, len(batch), int(accepted)))
        return accepted

    def tick(self, user_id, *args, **kwargs):
        at = _wall_ns()
        try:
            result = estimate_user(self, user_id, *args, **kwargs)
        except InsufficientDataError:
            rec.ticks.append((at, user_id >= ITEM_USER_PREFIX, True))
            raise
        rec.ticks.append((at, user_id >= ITEM_USER_PREFIX, False))
        return result

    def new_session(self, user_id, *args, **kwargs):
        rec.count("sessions")
        if user_id >= ITEM_USER_PREFIX:
            rec.count("sessions_non_monitored")
        return user_session_init(self, user_id, *args, **kwargs)

    session.SessionShard.submit_batch = _wrap(rec, "session.submit",
                                              submit_batch)
    session.UserSession.ingest_batch = _wrap(rec, "session.ingest",
                                             ingest_batch)
    TagBreathe.feed_batch = _wrap(rec, "pipeline.feed_batch", counted_feed)
    TagBreathe.estimate_user = _wrap(rec, "pipeline.tick", tick)
    session.UserSession.__init__ = new_session


def install_gc(rec: Recorder) -> None:
    """Record garbage-collector pauses as ``gc`` spans."""
    name_id = rec.name_id("gc")
    opened: List[Tuple[int, int, int, int]] = []

    def on_gc(phase, _info):
        if phase == "start":
            opened.append(rec.open())
        elif opened:
            rec.close(name_id, opened.pop())

    gc.callbacks.append(on_gc)


def install_sut(out_dir: str) -> Recorder:
    """Trace this SUT process and write its spans to ``out_dir`` at exit."""
    rec = Recorder()
    install_serve(rec)
    install_gc(rec)

    def write() -> None:
        from repro import perf

        rec.counts["perf_stages"] = perf.snapshot()["stages"]
        path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(rec.dump(), fh)
        os.replace(path + ".tmp", path)

    atexit.register(write)
    return rec


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load_dumps(out_dir: str) -> Dict[int, Dict]:
    """Every process's span dump in ``out_dir``, keyed by pid."""
    dumps = {}
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry)) as fh:
                doc = json.load(fh)
            dumps[int(doc["pid"])] = doc
    return dumps


def in_window(spans: Sequence[Sequence[int]], start_ns: int,
              end_ns: int) -> List[bool]:
    """Per span: does its root span start inside ``[start_ns, end_ns]``?

    Children are appended after their parents, so one forward pass
    propagates each root's verdict down its tree.
    """
    keep: List[bool] = []
    for _name, parent, _c0, _c1, wall in spans:
        if parent < 0:
            keep.append(start_ns <= wall <= end_ns)
        else:
            keep.append(keep[parent])
    return keep


def self_times(names: Sequence[str], spans: Sequence[Sequence[int]],
               keep: Optional[Sequence[bool]] = None) -> Dict[str, Dict]:
    """Per span name: calls, inclusive ns and self ns.

    Self time is a span's duration minus the summed durations of its
    direct children, so the self times of one tree add up to its root's
    duration and nothing is counted twice.
    """
    durations = [c1 - c0 for _n, _p, c0, c1, _w in spans]
    child_ns = [0] * len(spans)
    for index, (_n, parent, _c0, _c1, _w) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += durations[index]
    out: Dict[str, Dict] = {}
    for index, (name_id, _p, _c0, _c1, _w) in enumerate(spans):
        if keep is not None and not keep[index]:
            continue
        row = out.setdefault(names[name_id],
                             {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += durations[index]
        row["self_ns"] += durations[index] - child_ns[index]
    return out


def coverage(layer_self_ns: Iterable[int], busy_cpu_ns: int) -> float:
    """Summed layer self time as a share of the processes' busy CPU."""
    if busy_cpu_ns <= 0:
        raise ValueError("busy CPU must be positive to compute coverage")
    return sum(layer_self_ns) / busy_cpu_ns


def durations_of(name: str, names: Sequence[str],
                 spans: Sequence[Sequence[int]],
                 keep: Optional[Sequence[bool]] = None) -> List[int]:
    """Inclusive durations (ns) of every kept span called ``name``."""
    if name not in names:
        return []
    wanted = names.index(name)
    return [c1 - c0 for i, (n, _p, c0, c1, _w) in enumerate(spans)
            if n == wanted and (keep is None or keep[i])]


def add_hook_path(env: Dict[str, str], root: str) -> None:
    """Point a SUT environment's PYTHONPATH at the tracing hook."""
    hook = os.path.join(root, "perfbench", "hook")
    env["PYTHONPATH"] = os.pathsep.join(
        [hook, root] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])

