"""Pieces shared by the benchmark's modules: the room, /proc readers,
percentiles and the result line."""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

import numpy as np

#: Beds per room: the paper's multi-user ceiling is a handful of people
#: per reader, a ward room packs 15 beds into one reader's beam.
BEDS_PER_ROOM = 15

#: Contending item tags per room (the paper's Fig. 14 clutter level, and
#: ``repro bench``'s CONTENDING_TAGS).
ITEM_TAGS = 10

#: Beds per row and the distance step between rows.  Every bed sits
#: inside the reader antenna's 70-degree beam, so every monitored person
#: is readable; ``repro.bench.benchmark_scenario`` seats 15 users side by
#: side and pushes the outermost ones out of the beam.
BEDS_PER_ROW = 5
FIRST_ROW_M = 2.0
ROW_STEP_M = 1.0
#: Lateral spacing as a share of the row's distance (about 16 degrees).
LATERAL_SHARE = 0.28

#: Metronome rates drawn per bed, in breaths per minute.  The floor keeps
#: at least 3.5 breaths inside the 25 s serving window, which Eq. 5 needs.
RATE_RANGE_BPM = (10, 18)

CLK_TCK = os.sysconf("SC_CLK_TCK")


def room_scenario(seed: int):
    """One room: BEDS_PER_ROOM beds in rows, nearest row first, plus
    ITEM_TAGS item tags."""
    from repro.body import MetronomeBreathing, Subject
    from repro.sim.scenario import Scenario

    rng = np.random.default_rng(seed)
    rates = rng.integers(RATE_RANGE_BPM[0], RATE_RANGE_BPM[1] + 1,
                         size=BEDS_PER_ROOM)
    subjects = []
    for i in range(BEDS_PER_ROOM):
        row, col = divmod(i, BEDS_PER_ROW)
        distance = FIRST_ROW_M + row * ROW_STEP_M
        subjects.append(Subject(
            user_id=i + 1,
            distance_m=distance,
            lateral_offset_m=(col - (BEDS_PER_ROW - 1) / 2) * LATERAL_SHARE
            * distance,
            breathing=MetronomeBreathing(float(rates[i])),
            sway_seed=seed * 100 + i,
        ))
    return Scenario(subjects).with_contending_tags(ITEM_TAGS, seed=seed)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def above(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def metric_block(values: Dict[str, float],
                 units: Dict[str, str]) -> Dict[str, Dict]:
    """``{"name": {"value": v, "unit": u}}`` in declaration order."""
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict]) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def thirds(values: List[float]):
    """First and last third of a sequence (in its given order)."""
    n = len(values) // 3
    return values[:n], values[len(values) - n:]
