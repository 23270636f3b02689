"""``ward_live`` and ``ward_fabric``: a synthesised ward streamed, open
loop, into ``repro serve`` running as separate processes.

One run:

1. **Set-up**: synthesise every room's capture (timed), remap its EPCs
   so no two rooms share a stream key and cut the frames (not timed),
   then cold-start the SUT ``START_REPEATS`` times; each start is timed
   from ``Popen`` to the ``welcome`` on the ingest link.  ``setup_s`` is
   the synthesis time plus the median start.  The last start stays up
   for the run and gets the first PREROLL_S of stream as fast as it
   takes them (timed on its own, not part of ``setup_s``).
2. **Load**: one process, two connections.  The ingest link sends every
   timed frame at its scheduled wall time (open loop), the watch link records
   when each estimate arrives.  A ``flush`` barrier ends the load, then
   the watch stream is read until it goes quiet.
3. **Oracle**: the exact frame bytes are replayed in process through
   ``SessionShard``/``UserSession``; every received estimate must equal
   its replayed twin byte for byte, and the replay's estimate set is
   what ``failed`` counts missing estimates against.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import common, tracing

#: Rooms in the ward.  Each is one reader with BEDS_PER_ROOM beds.
ROOMS = 2

#: Stream time one LLRP periodic report covers (ROReportSpec period).
#: One frame per room per slice: ~16 reports, about one per person.
SLICE_S = 0.1

#: Time acceleration per workload, fixed so that the seed server is
#: about half busy (see NOTES.md for the measurement behind each).
SPEEDUP = {"ward_live": 4.0, "ward_fabric": 12.0}

#: Reports per coalesced frame on ward_fabric: IngestClient's default
#: column-frame size, what a buffering gateway in front of the readers
#: would send.
GATEWAY_FRAME_REPORTS = 256

#: Fabric worker processes (one per core of the reference box).
FABRIC_WORKERS = 2

#: Serving cadence of ``repro serve`` (its ``--interval`` default).  Rooms
#: start CADENCE_S / ROOMS apart and every bed joins at a random instant
#: of the first CADENCE_S, as admissions do: a session's estimates fall
#: due every CADENCE_S after its first report, so beds that all started
#: together would tick in one burst per room per cadence.
CADENCE_S = 5.0

#: Stream time replayed before the timed load, as fast as the server
#: takes it: the last bed joins by 5 s and a session's first estimate
#: comes 25 s after its first report, so after 30 s every session is in
#: its steady estimate cadence.  The timed load measures a warm ward.
PREROLL_S = 30.0

#: Cold starts per run; setup_s takes their median.
START_REPEATS = 3

#: The watch stream counts as finished after this long without a line.
QUIET_S = 0.5

#: Latency samples needed for a p95 backed by at least 10 samples.  A
#: p99 would need 1000 monitored estimates, several minutes of load at
#: this rate; a run gets about 270 (see NOTES.md).
MIN_LATENCY_SAMPLES = 200

#: Child processes the oracle replay is split over (one per core of
#: the reference box); it runs after the SUT has stopped.
ORACLE_PROCESSES = 2

#: Backlog rule: the run is overloaded when the last third's median
#: estimate latency exceeds both twice and 20 ms over the first third's,
#: when its p99 generator lag exceeds the first third's by 50 ms, or when
#: the flush barrier after the last frame takes over a second (a server
#: that keeps up answers it within one frame's work).
BACKLOG_LATENCY_FACTOR = 2.0
BACKLOG_LATENCY_SLACK_MS = 20.0
BACKLOG_LAG_SLACK_MS = 50.0
BACKLOG_DRAIN_S = 1.0

#: Estimates must reach this mean paper accuracy (Eq. 8) to count as
#: correct output; the paper reports ~98%, a crowded 15-bed room ~95%.
ACCURACY_FLOOR = 0.85

_ADDR = re.compile(rb"(?:serving|fabric) on ([0-9.]+):(\d+)")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Room:
    offset_s: float
    result: object          # repro SimulationResult
    batch: object           # served ReportBatch: remapped, beds joined
    users: Dict[int, int]   # global monitored user id -> local id


@dataclass
class Ward:
    workload: str
    speedup: float
    stream_s: float                           # timed stream seconds
    rooms: List[Room]
    #: (send_at wall s after the timed load starts, batch), pre-roll
    #: frames first (their send_at is negative and unused).
    frames: List[Tuple[float, object]]
    preroll_frames: int
    user_frames: Dict[int, Tuple[List[float], List[int]]]
    synth_s: float
    sim_stages: Dict[str, Dict]

    @property
    def monitored(self) -> Dict[int, Tuple[Room, int]]:
        return {uid: (room, local) for room in self.rooms
                for uid, local in room.users.items()}

    @property
    def reports(self) -> int:
        return sum(len(batch) for _at, batch in self.frames)


def join_beds(batch, seed: int):
    """Drop each bed's reports before its patient's admission instant,
    drawn uniformly from the first CADENCE_S of the stream."""
    rng = np.random.default_rng(seed)
    users = np.unique(batch.user_id[batch.user_id < np.uint64(
        tracing.ITEM_USER_PREFIX)])
    join_at = np.zeros(len(batch))
    for uid, at in zip(users, rng.uniform(0.0, CADENCE_S, size=len(users))):
        join_at[batch.user_id == uid] = at
    return batch.select(batch.t >= join_at)


def remap(batch, room: int):
    """Give a room's capture ward-unique user ids.

    Monitored user ``u`` becomes ``100 * (room + 1) + u``; item tags keep
    their ``0xFFFFFFFF_0000_0000`` prefix so they still decode as
    non-monitored, with the room folded into the low bits.
    """
    from repro.reader.batch import COLUMNS, ReportBatch

    user = batch.user_id.copy()
    items = user >= np.uint64(tracing.ITEM_USER_PREFIX)
    user[~items] += np.uint64(100 * (room + 1))
    low = user[items] & np.uint64(0xFFFF)
    user[items] = (np.uint64(tracing.ITEM_USER_PREFIX)
                   | np.uint64((room + 1) << 8) | low)
    cols = {name: getattr(batch, name) for name, _ in COLUMNS}
    cols["user_id"] = user
    return ReportBatch(**cols)


def build_ward(workload: str, seed: int, seconds: float) -> Ward:
    """Synthesise the rooms (only ``run_scenario`` is timed) and cut the
    frame schedule."""
    from repro import perf
    from repro.reader.batch import ReportBatch
    from repro.sim.engine import run_scenario

    speedup = SPEEDUP[workload]
    stream_s = seconds * speedup
    end_s = PREROLL_S + stream_s
    perf.reset()
    synth_s = 0.0
    rooms = []
    for r in range(ROOMS):
        room_seed = seed * 1000 + r
        scenario = common.room_scenario(room_seed)
        t0 = time.perf_counter()
        result = run_scenario(scenario, duration_s=end_s, seed=room_seed)
        synth_s += time.perf_counter() - t0
        batch = remap(join_beds(ReportBatch.from_reports(result.reports),
                                room_seed), r)
        users = {100 * (r + 1) + uid: uid
                 for uid in scenario.monitored_user_ids}
        rooms.append(Room(r * CADENCE_S / ROOMS, result, batch, users))
    if workload == "ward_live":
        frames = _slice_frames(rooms)
    else:
        frames = _gateway_frames(rooms)
    frames = [((at - PREROLL_S) / speedup, batch)
              for at, batch in frames if at <= end_s]
    preroll = sum(1 for at, _batch in frames if at < 0)
    stages = perf.snapshot()["stages"]
    user_frames: Dict[int, Tuple[List[float], List[int]]] = {}
    for index, (_at, batch) in enumerate(frames):
        for uid, sub in batch.split_by_user():
            times, owners = user_frames.setdefault(uid, ([], []))
            times.append(float(sub.t.max()))
            owners.append(index)
    return Ward(workload, speedup, stream_s, rooms, frames, preroll,
                user_frames, synth_s, stages)


def _slice_frames(rooms: List[Room]):
    """One frame per room per SLICE_S, sent when its slice closes
    (stream-time send instants)."""
    frames = []
    for room in rooms:
        t = room.batch.t
        slot = np.floor(t / SLICE_S).astype(np.int64)
        cuts = np.flatnonzero(np.diff(slot)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [len(t)]))
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            close = (slot[lo] + 1) * SLICE_S
            frames.append((room.offset_s + close,
                           room.batch.select(np.arange(lo, hi))))
    frames.sort(key=lambda f: f[0])
    return frames


def _gateway_frames(rooms: List[Room]):
    """All rooms merged by arrival, cut into GATEWAY_FRAME_REPORTS frames,
    each sent when its last report arrives."""
    from repro.reader.batch import COLUMNS, ReportBatch

    arrival = np.concatenate([room.batch.t + room.offset_s
                              for room in rooms])
    order = np.argsort(arrival, kind="stable")
    merged = ReportBatch(**{
        name: np.concatenate([getattr(room.batch, name) for room in rooms])
        [order] for name, _ in COLUMNS})
    arrival = arrival[order]
    frames = []
    for lo in range(0, len(merged), GATEWAY_FRAME_REPORTS):
        hi = min(lo + GATEWAY_FRAME_REPORTS, len(merged))
        frames.append((float(arrival[hi - 1]),
                       merged.select(np.arange(lo, hi))))
    return frames


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------
class Sut:
    """One ``repro serve`` deployment started as separate processes.

    Output goes to files in the run directory, the port is ephemeral and
    parsed from the banner, a fabric gets a fresh ``--state-dir``, and
    :meth:`stop` kills every pid it ever learned of, workers included.
    """

    def __init__(self, root: str, run_dir: str, name: str, fabric: bool,
                 trace_dir: Optional[str] = None) -> None:
        self.root = root
        self.run_dir = run_dir
        self.name = name
        self.fabric = fabric
        self.trace_dir = trace_dir
        self.state_dir = os.path.join(run_dir, f"{name}-state")
        self.proc: Optional[subprocess.Popen] = None
        self.worker_pids: List[int] = []
        self.addr: Optional[Tuple[str, int]] = None
        self._out = None
        self._err = None

    def command(self) -> List[str]:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", "127.0.0.1", "--port", "0"]
        if self.fabric:
            cmd += ["--workers", str(FABRIC_WORKERS),
                    "--state-dir", self.state_dir]
        return cmd

    def launch(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["PYTHONUNBUFFERED"] = "1"
        env.pop("PERFBENCH_TRACE_DIR", None)
        if self.trace_dir is not None:
            tracing.add_hook_path(env, self.root)
            env["PERFBENCH_TRACE_DIR"] = self.trace_dir
        if self.fabric:
            os.makedirs(self.state_dir)
        out_path = os.path.join(self.run_dir, f"{self.name}.out")
        self._out = open(out_path, "wb")
        self._err = open(os.path.join(self.run_dir, f"{self.name}.err"), "wb")
        self.proc = subprocess.Popen(
            self.command(), cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._out, stderr=self._err)

    async def wait_addr(self, timeout_s: float = 90.0) -> Tuple[str, int]:
        path = os.path.join(self.run_dir, f"{self.name}.out")
        deadline = time.monotonic() + timeout_s
        while True:
            with open(path, "rb") as fh:
                match = _ADDR.search(fh.read())
            if match:
                self.addr = (match.group(1).decode(), int(match.group(2)))
                break
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited with {self.proc.returncode} before "
                    f"listening; see "
                    f"{os.path.join(self.run_dir, self.name)}.err")
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name} did not listen in time")
            await asyncio.sleep(0.01)
        if self.fabric:
            self._read_workers()
        return self.addr

    def _read_workers(self) -> None:
        with open(os.path.join(self.state_dir, "fabric.json")) as fh:
            doc = json.load(fh)
        self.worker_pids = sorted(int(w["pid"])
                                  for w in doc["workers"].values())
        if len(self.worker_pids) != FABRIC_WORKERS:
            raise RuntimeError(f"fabric.json lists {self.worker_pids}")

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid] + list(self.worker_pids)

    def cpu_s(self) -> Dict[int, float]:
        return {pid: common.proc_cpu_s(pid) for pid in self.pids}

    def hwm_mb(self) -> float:
        return sum(common.proc_hwm_mb(pid) for pid in self.pids)

    def stop(self, grace_s: float = 20.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever remains."""
        try:
            if self.proc is not None and self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=grace_s)
                except subprocess.TimeoutExpired:
                    pass
            for pid in self.pids if self.proc is not None else []:
                _kill(pid)
            if self.proc is not None:
                self.proc.wait(timeout=10)
            for pid in self.worker_pids:
                _wait_gone(pid, 10.0)
        finally:
            for fh in (self._out, self._err):
                if fh is not None:
                    fh.close()


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_gone(pid: int, timeout_s: float) -> None:
    """Wait until a non-child pid has exited (reaped or a zombie)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.02)
    raise RuntimeError(f"pid {pid} did not exit")


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class Link:
    """A framed connection speaking ``repro.serve.protocol``."""

    def __init__(self, reader, writer) -> None:
        from repro.serve.protocol import FrameDecoder

        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder("json")
        self.inbox: List[Dict] = []

    @classmethod
    async def open(cls, addr, hello: Dict) -> "Link":
        from repro.serve.protocol import encode_frame

        reader, writer = await asyncio.open_connection(*addr)
        link = cls(reader, writer)
        writer.write(encode_frame(hello, "json"))
        await writer.drain()
        welcome = await link.next_message()
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"handshake failed: {welcome!r}")
        return link

    async def next_message(self) -> Dict:
        while not self.inbox:
            data = await self.reader.read(1 << 16)
            if not data:
                raise ConnectionError("server closed the link")
            self.inbox.extend(self.decoder.feed(data))
        return self.inbox.pop(0)

    def send(self, message: Dict) -> None:
        from repro.serve.protocol import encode_frame

        self.writer.write(encode_frame(message, "json"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class LoadResult:
    start: float = 0.0                   # loop time of schedule origin
    preroll_s: float = 0.0
    preroll_reports: int = 0
    drain_s: float = 0.0                 # last timed frame -> flushed
    sent_frames: List[bytes] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    encode_ns: int = 0
    bytes_sent: int = 0
    reports_sent: int = 0                # timed frames only
    received: int = 0                    # from the last flushed barrier
    shed: int = 0                        # from the pong after it
    estimates: List[Tuple[float, bytes]] = field(default_factory=list)
    window_ns: Tuple[int, int] = (0, 0)
    cpu_s: Dict[int, float] = field(default_factory=dict)
    hwm_mb: float = 0.0


async def _collect_watch(reader, into: List[Tuple[float, bytes]]) -> None:
    loop = asyncio.get_running_loop()
    while True:
        line = await reader.readline()
        if not line:
            return
        into.append((loop.time(), line))


async def _wait_quiet(into: List, quiet_s: float, limit_s: float) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + limit_s
    seen = -1
    while loop.time() < deadline:
        if len(into) == seen:
            return
        seen = len(into)
        await asyncio.sleep(quiet_s)


async def _flushed(ingest: Link) -> int:
    """Send the ``flush`` barrier; the server's received count."""
    ingest.send({"type": "flush"})
    await ingest.writer.drain()
    while True:
        message = await ingest.next_message()
        if message.get("type") == "flushed":
            return int(message["received"])


async def drive(sut: Sut, ingest: Link, ward: Ward) -> LoadResult:
    """Push the ward through ``sut`` on schedule and collect estimates."""
    from repro.serve.protocol import encode_column_frame

    loop = asyncio.get_running_loop()
    out = LoadResult()
    watch = await Link.open(sut.addr, {"type": "hello", "role": "watch",
                                       "codec": "json"})
    watch.send({"type": "watch"})
    await watch.writer.drain()
    watcher = asyncio.ensure_future(_collect_watch(watch.reader,
                                                   out.estimates))
    try:
        await asyncio.sleep(0.2)  # let a fabric subscribe to its workers
        writer = ingest.writer
        t0 = time.perf_counter()
        for _at, batch in ward.frames[:ward.preroll_frames]:
            data = encode_column_frame(batch)
            writer.write(data)
            out.sent_frames.append(data)
            out.preroll_reports += len(batch)
            await writer.drain()
        await _flushed(ingest)
        out.preroll_s = time.perf_counter() - t0
        cpu0 = sut.cpu_s()
        out.window_ns = (time.monotonic_ns(), 0)
        out.start = loop.time() + 0.05
        for at, batch in ward.frames[ward.preroll_frames:]:
            due = out.start + at
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
                now = loop.time()
            out.lag_s.append(max(0.0, now - due))
            e0 = time.perf_counter_ns()
            data = encode_column_frame(batch)
            out.encode_ns += time.perf_counter_ns() - e0
            writer.write(data)
            out.sent_frames.append(data)
            out.bytes_sent += len(data)
            out.reports_sent += len(batch)
            if writer.transport.get_write_buffer_size() > (1 << 18):
                await writer.drain()
        sent_all = loop.time()
        out.received = await _flushed(ingest)
        out.drain_s = loop.time() - sent_all
        await _wait_quiet(out.estimates, QUIET_S, 30.0)
        out.window_ns = (out.window_ns[0], time.monotonic_ns())
        cpu1 = sut.cpu_s()
        out.cpu_s = {pid: cpu1[pid] - cpu0[pid] for pid in cpu1}
        ingest.send({"type": "ping", "nonce": 1})
        await writer.drain()
        while True:
            message = await ingest.next_message()
            if message.get("type") == "pong":
                out.shed = int(message.get("shed_total", 0))
                break
        out.hwm_mb = sut.hwm_mb()
        ingest.send({"type": "bye"})
        await writer.drain()
    finally:
        watcher.cancel()
        await asyncio.gather(watcher, return_exceptions=True)
        await watch.close()
        await ingest.close()
    return out


async def start_sut(sut: Sut) -> Tuple[float, Link]:
    """Launch ``sut``; seconds from launch to the ingest ``welcome``."""
    t0 = time.perf_counter()
    sut.launch()
    await sut.wait_addr()
    link = await Link.open(sut.addr, {"type": "hello", "role": "ingest",
                                      "codec": "json",
                                      "frames": ["column"]})
    return time.perf_counter() - t0, link


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def canonical(message: Dict) -> str:
    """The watch stream's JSONL encoding of one estimate."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True)


async def replay(frames: List[bytes], part: int = 0,
                 parts: int = 1) -> List[Dict]:
    """Every estimate the serve path publishes for these exact frames,
    for the users with ``user_id % parts == part``.

    Sessions are independent, so replaying the users in disjoint parts
    gives the same estimates as one replay of all of them.
    """
    from repro.errors import DegradedEstimateWarning
    from repro.serve.protocol import decode_column_frame
    from repro.serve.session import SessionConfig, SessionShard

    published: List[Dict] = []
    shard = SessionShard(0, SessionConfig(), published.append)
    shard.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedEstimateWarning)
            for data in frames:
                batch = decode_column_frame(data[4:])["batch"]
                for uid, sub in batch.split_by_user():
                    if uid % parts == part:
                        shard.submit_batch(sub)
                await shard.drain()
    finally:
        await shard.stop()
    return published


def _write_frames(path: str, frames: List[bytes]) -> None:
    with open(path, "wb") as fh:
        for data in frames:
            fh.write(struct.pack("<I", len(data)))
            fh.write(data)


def _read_frames(path: str) -> List[bytes]:
    with open(path, "rb") as fh:
        blob = fh.read()
    frames, at = [], 0
    while at < len(blob):
        (size,) = struct.unpack_from("<I", blob, at)
        frames.append(blob[at + 4:at + 4 + size])
        at += 4 + size
    return frames


def replay_main(argv: List[str]) -> None:
    """Child entry of :func:`replay_all`: ``FRAMES PART PARTS OUT``."""
    frames_path, part, parts, out_path = argv
    published = asyncio.run(replay(_read_frames(frames_path), int(part),
                                   int(parts)))
    with open(out_path, "w") as fh:
        for message in published:
            fh.write(canonical(message) + "\n")


def replay_all(frames: List[bytes], work_dir: str) -> List[Dict]:
    """:func:`replay` for every user, split over ORACLE_PROCESSES child
    processes.  Frames and estimates pass through files in ``work_dir``;
    every child is waited for, and killed first if the replay fails."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root, os.path.join(root, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("PERFBENCH_TRACE_DIR", None)
    frames_path = os.path.join(work_dir, "oracle-frames.bin")
    _write_frames(frames_path, frames)
    outs = [os.path.join(work_dir, f"oracle-{part}.jsonl")
            for part in range(ORACLE_PROCESSES)]
    children: List[subprocess.Popen] = []
    try:
        for part, out_path in enumerate(outs):
            children.append(subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; from perfbench.ward import replay_main; "
                 "replay_main(sys.argv[1:])",
                 frames_path, str(part), str(ORACLE_PROCESSES), out_path],
                cwd=root, env=env, stdin=subprocess.DEVNULL))
        for child in children:
            if child.wait() != 0:
                raise RuntimeError(
                    f"oracle replay exited with {child.returncode}")
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    expected: List[Dict] = []
    for out_path in outs:
        with open(out_path) as fh:
            expected += [json.loads(line) for line in fh]
        os.remove(out_path)
    os.remove(frames_path)
    return expected


@dataclass
class Verdict:
    matched: List[Tuple[float, Dict]]    # (arrival, estimate)
    mismatched: int
    unexpected: int
    missing: int


def check_estimates(expected: List[Dict],
                    received: List[Tuple[float, bytes]]) -> Verdict:
    """Match received watch lines to replayed estimates by (user, t).

    A received line must equal its replayed twin byte for byte; a line
    with no twin is unexpected, a twin never received is missing.
    """
    want: Dict[Tuple[int, float], str] = {}
    for message in expected:
        want[(int(message["user_id"]), float(message["t"]))] = \
            canonical(message)
    matched, mismatched, unexpected = [], 0, 0
    seen = set()
    for arrival, line in received:
        message = json.loads(line)
        if message.get("type") != "estimate":
            continue
        key = (int(message["user_id"]), float(message["t"]))
        twin = want.get(key)
        if twin is None or key in seen:
            unexpected += 1
        elif twin != line.decode().rstrip("\n"):
            mismatched += 1
        else:
            matched.append((arrival, message))
        seen.add(key)
    missing = sum(1 for key in want if key not in seen)
    return Verdict(matched, mismatched, unexpected, missing)


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
E2E_UNITS = {
    "setup_s": "s",
    "users_per_core": "users",
    "accuracy_mean": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """Everything one SUT pass measured."""
    load: LoadResult
    start_s: List[float]
    verdict: Verdict
    expected: int
    latencies_ms: List[float]
    accuracy: List[float]
    overloaded: bool
    users_per_core: float
    trace_dir: Optional[str] = None
    phase_s: Dict[str, float] = field(default_factory=dict)


async def _serve(root: str, run_dir: str, ward: Ward, starts: int,
                 trace_dir: Optional[str],
                 tag: str) -> Tuple[List[float], LoadResult]:
    fabric = ward.workload == "ward_fabric"
    start_s: List[float] = []
    for i in range(starts):
        sut = Sut(root, run_dir, f"{tag}-sut{i}", fabric, trace_dir)
        try:
            seconds, link = await start_sut(sut)
            start_s.append(seconds)
            if i < starts - 1:
                await link.close()
                continue
            load = await drive(sut, link, ward)
        finally:
            sut.stop()
    return start_s, load


def one_pass(root: str, run_dir: str, ward: Ward, starts: int,
             trace_dir: Optional[str], tag: str) -> "Pass":
    """Start the SUT ``starts`` times, load the last start, check it."""
    t0 = time.perf_counter()
    start_s, load = asyncio.run(_serve(root, run_dir, ward, starts,
                                       trace_dir, tag))
    t1 = time.perf_counter()
    expected = replay_all(load.sent_frames, run_dir)
    verdict = check_estimates(expected, load.estimates)
    done = _score(ward, load, start_s, verdict, len(expected), trace_dir)
    done.phase_s = {"serve": t1 - t0, "oracle": time.perf_counter() - t1}
    return done


def _score(ward: Ward, load: LoadResult, start_s: List[float],
           verdict: Verdict, expected: int,
           trace_dir: Optional[str]) -> Pass:
    from repro.metrics.accuracy import breathing_rate_accuracy

    monitored = ward.monitored
    latencies, accuracy, arrivals = [], [], []
    for arrival, message in verdict.matched:
        uid = int(message["user_id"])
        if uid not in monitored:
            continue
        t = float(message["t"])
        times, owners = ward.user_frames[uid]
        room, local = monitored[uid]
        frame = owners[bisect.bisect_right(times, t) - 1]
        if frame >= ward.preroll_frames:
            sent_at = load.start + ward.frames[frame][0]
            latencies.append((arrival - sent_at) * 1000.0)
            arrivals.append(arrival)
        truth = room.result.ground_truth.rate_bpm(local, max(0.0, t - 25.0), t)
        accuracy.append(breathing_rate_accuracy(float(message["rate_bpm"]),
                                                truth))
    by_arrival = [lat for _a, lat in sorted(zip(arrivals, latencies))]
    early, late = common.thirds(by_arrival)
    lag_early, lag_late = common.thirds([x * 1000.0 for x in load.lag_s])
    overloaded = load.drain_s > BACKLOG_DRAIN_S or bool(early) and (
        common.median(late) > max(
            BACKLOG_LATENCY_FACTOR * common.median(early),
            common.median(early) + BACKLOG_LATENCY_SLACK_MS)
        or common.percentile(lag_late, 99) > common.percentile(
            lag_early, 99) + BACKLOG_LAG_SLACK_MS)
    cpu = sum(load.cpu_s.values())
    users = len(monitored)
    return Pass(load, start_s, verdict, expected, latencies, accuracy,
                overloaded, users * ward.stream_s / cpu if cpu else 0.0,
                trace_dir)


def batch_analysis(ward: Ward) -> Tuple[float, int]:
    """``TagBreathe.process`` over every room's served recording, as
    ``repro analyze`` runs it: (CPU seconds, reports)."""
    from repro.core.pipeline import TagBreathe
    from repro.errors import DegradedEstimateWarning

    seconds, reports = 0.0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        for room in ward.rooms:
            recording = room.batch.to_reports()
            engine = TagBreathe(user_ids=set(room.users))
            t0 = time.thread_time()
            engine.process(recording)
            seconds += time.thread_time() - t0
            reports += len(recording)
    return seconds, reports


def _problems(ward: Ward, p: Pass) -> List[str]:
    problems = []
    if p.verdict.mismatched or p.verdict.unexpected:
        problems.append(f"oracle: {p.verdict.mismatched} mismatched, "
                        f"{p.verdict.unexpected} unexpected estimates")
    if p.overloaded:
        problems.append("overloaded: backlog grew over the run")
    if len(p.latencies_ms) < MIN_LATENCY_SAMPLES:
        problems.append(f"only {len(p.latencies_ms)} latency samples")
    if common.mean(p.accuracy) < ACCURACY_FLOOR:
        problems.append("accuracy below floor")
    if p.load.preroll_reports + p.load.reports_sent != ward.reports:
        problems.append("not every frame was sent")
    return problems


def run(root: str, run_dir: str, workload: str, seed: int, seconds: float,
        trace: bool) -> Tuple[bool, int, int, Dict, List[str]]:
    """One benchmark run; returns (correct, attempted, failed, metrics,
    report lines)."""
    ward = build_ward(workload, seed, seconds)
    base = one_pass(root, run_dir, ward, 1 if trace else START_REPEATS,
                    None, "plain")
    lines = _describe(ward, base)
    p95 = common.percentile(base.latencies_ms, 95)
    lines.append(
        f"estimate latency p50 {common.percentile(base.latencies_ms, 50):.1f}"
        f" ms, p95 {p95:.1f} ms over {len(base.latencies_ms)} samples, "
        f"{common.above(base.latencies_ms, p95)} above p95")
    problems = _problems(ward, base)
    sent = base.load.preroll_reports + base.load.reports_sent
    failed = (sent - base.load.received) + base.load.shed \
        + base.verdict.missing
    attempted = sent + base.expected
    if not trace:
        values = {
            "setup_s": ward.synth_s + common.median(base.start_s),
            "users_per_core": base.users_per_core,
            "accuracy_mean": common.mean(base.accuracy),
            "peak_rss_mb": base.load.hwm_mb,
        }
        metrics = common.metric_block(values, E2E_UNITS)
    else:
        from .layers import ward_layers

        trace_dir = os.path.join(run_dir, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        traced = one_pass(root, run_dir, ward, 1, trace_dir, "traced")
        problems += [f"traced pass: {p}" for p in _problems(ward, traced)]
        metrics = ward_layers(ward, base, traced, *batch_analysis(ward))
        lines.append(
            "trace coverage {:.3f} ({:.3f} in named layers), overhead "
            "{:+.1%} (users_per_core {:.1f} untraced, {:.1f} traced)".format(
                metrics["trace.coverage"]["value"],
                metrics["trace.named_coverage"]["value"],
                metrics["trace.overhead"]["value"],
                base.users_per_core, traced.users_per_core))
    lines += [f"problem: {p}" for p in problems]
    return not problems, attempted, failed, metrics, lines


def _describe(ward: Ward, p: Pass) -> List[str]:
    cpu = sum(p.load.cpu_s.values())
    wall = ward.frames[-1][0]
    timed = len(ward.frames) - ward.preroll_frames
    return [
        f"{ward.workload}: {len(ward.rooms)} rooms, {len(ward.monitored)} "
        f"monitored users, {PREROLL_S:.0f} s pre-roll then "
        f"{ward.stream_s:.0f} s of stream at {ward.speedup:g}x: {timed} "
        f"frames, {p.load.reports_sent / wall:.0f} reports/s offered",
        f"synthesis {ward.synth_s:.1f} s, pre-roll {p.load.preroll_s:.1f} s, "
        f"SUT starts+load+stops {p.phase_s['serve']:.1f} s, oracle "
        f"{p.phase_s['oracle']:.1f} s, final flush "
        f"{p.load.drain_s * 1e3:.0f} ms",
        f"SUT busy {cpu / wall:.0%} of one core over the load, "
        f"{p.expected} estimates expected, {len(p.verdict.matched)} "
        f"matched, {p.verdict.missing} missing",
    ]
