"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run, tracing, ward  # noqa: E402
from perfbench.layers import LAYER_UNITS, SpanTotals, trace_coverage  # noqa: E402,E501

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(workload, seconds, trace, cwd=ROOT):
    """Run the benchmark; a run directory it keeps (tiny runs are too
    short to be correct) is removed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    kept = _kept_dir(proc.stdout + proc.stderr)
    if kept is not None:
        run.remove_run_dir(kept)
    return proc


def _kept_dir(text):
    for line in text.splitlines():
        if line.startswith("run files kept in "):
            return line[len("run files kept in "):]
    return None


TINY_SECONDS = 3


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"]
                                      for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, TINY_SECONDS, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(m["value"])
               for m in result["metrics"].values())
    assert _leftovers() == []


#: Command-line marks of every process a run starts: SUT routers and
#: workers, oracle children, and the multiprocessing helpers a run must
#: not leave behind.
RUN_PROCESS_MARKS = ("repro serve", "repro.serve.worker", "replay_main",
                     "multiprocessing")


def _leftovers():
    """Python processes other than this one that look like ones a
    benchmark run starts."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().decode(errors="replace").split("\0")
        except OSError:
            continue
        cmd = " ".join(argv)
        if os.path.basename(argv[0]).startswith("python") and any(
                mark in cmd for mark in RUN_PROCESS_MARKS):
            found.append((int(entry), cmd))
    return found


ORPHAN_SCRIPT = """
import os, subprocess, sys, time
sys.path.insert(0, sys.argv[1])
from perfbench import run
run.adopt_orphans()
out = subprocess.run(["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
                     capture_output=True, text=True, check=True).stdout
orphan = int(out)
time.sleep(0.2)
with open(f"/proc/{orphan}/stat") as fh:
    assert fh.read().rsplit(")", 1)[1].split()[1] == str(os.getpid())
run.reap_children()
assert not os.path.exists(f"/proc/{orphan}")
print("reaped")
"""


def test_orphaned_descendants_are_killed_and_reaped():
    proc = subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT, ROOT],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "reaped", proc.stderr[-2000:]


def test_per_layer_spec_matches_the_code():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(LAYER_UNITS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("ward_live", 3, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    tiny = ward.build_ward("ward_live", seed=3, seconds=6)
    from repro.serve.protocol import encode_column_frame

    frames = [encode_column_frame(batch) for _at, batch in tiny.frames]
    expected = ward.replay_all(frames,
                               str(tmp_path_factory.mktemp("oracle")))
    assert expected, "a 30 s stream must publish estimates after warm-up"
    return frames, expected


def _lines(messages):
    return [(float(i), (ward.canonical(m) + "\n").encode())
            for i, m in enumerate(messages)]


def test_split_replay_equals_one_replay(replayed):
    frames, expected = replayed
    whole = asyncio.run(ward.replay(frames))
    assert sorted(ward.canonical(m) for m in whole) == sorted(
        ward.canonical(m) for m in expected)


def test_oracle_accepts_exact_estimates(replayed):
    _frames, expected = replayed
    verdict = ward.check_estimates(expected, _lines(expected))
    assert (verdict.mismatched, verdict.unexpected, verdict.missing) == (
        0, 0, 0)
    assert len(verdict.matched) == len(expected)


def test_oracle_rejects_a_perturbed_estimate(replayed):
    _frames, expected = replayed
    bad = dict(expected[0])
    bad["rate_bpm"] = math.nextafter(bad["rate_bpm"], math.inf)
    received = _lines([bad] + expected[1:])
    verdict = ward.check_estimates(expected, received)
    assert verdict.mismatched == 1
    assert len(verdict.matched) == len(expected) - 1


def test_oracle_counts_missing_and_unexpected(replayed):
    _frames, expected = replayed
    stray = dict(expected[0])
    stray["t"] = expected[0]["t"] + 1000.0
    verdict = ward.check_estimates(expected, _lines(expected[1:] + [stray]))
    assert (verdict.missing, verdict.unexpected) == (1, 1)


# Synthetic spans: (name index, parent, cpu start, cpu end, wall start).
NAMES = ["loop", "decode", "tick"]
SPANS = [
    (0, -1, 0, 100, 1_000),    # loop [0, 100]
    (1, 0, 10, 30, 0),         #   decode [10, 30]
    (2, 0, 40, 90, 0),         #   tick [40, 90]
    (1, 2, 50, 60, 0),         #     decode [50, 60]
    (0, -1, 200, 260, 9_000),  # loop [200, 260], outside window below
]


def test_self_time_subtracts_direct_children_only():
    rows = tracing.self_times(NAMES, SPANS)
    assert rows["loop"] == {"calls": 2, "total_ns": 160,
                            "self_ns": (100 - 20 - 50) + 60}
    assert rows["tick"] == {"calls": 1, "total_ns": 50, "self_ns": 40}
    assert rows["decode"] == {"calls": 2, "total_ns": 30, "self_ns": 30}
    assert sum(r["self_ns"] for r in rows.values()) == 100 + 60


def test_coverage_is_self_time_over_busy_cpu():
    rows = tracing.self_times(NAMES, SPANS)
    selfs = [r["self_ns"] for r in rows.values()]
    assert tracing.coverage(selfs, 200) == pytest.approx(160 / 200)
    with pytest.raises(ValueError):
        tracing.coverage(selfs, 0)


def test_window_keeps_whole_trees_by_root_start():
    keep = tracing.in_window(SPANS, 0, 5_000)
    assert keep == [True, True, True, True, False]
    rows = tracing.self_times(NAMES, SPANS, keep)
    assert rows["loop"]["self_ns"] == 30
    assert tracing.coverage([r["self_ns"] for r in rows.values()],
                            100) == pytest.approx(1.0)


def _layer_ns(names, spans):
    dump = {"names": names, "spans": spans, "counts": {}}
    return SpanTotals({1: dump}).self_ns()


def test_named_coverage_drops_when_a_wrapper_is_lost():
    names = ["loop", "protocol.decode", "pipeline.tick"]
    whole = trace_coverage(_layer_ns(names, SPANS), 200)
    assert whole["trace.coverage"] == pytest.approx(160 / 200)
    assert whole["trace.named_coverage"] == pytest.approx((30 + 40) / 200)
    # The same work with protocol.decode unwrapped: its time falls into
    # the loop residual, which total coverage cannot tell apart.
    unwrapped = [(0, -1, 0, 100, 1_000), (2, 0, 40, 90, 0),
                 (0, -1, 200, 260, 9_000)]
    lost = trace_coverage(_layer_ns(names, unwrapped), 200)
    assert lost["trace.coverage"] == whole["trace.coverage"]
    assert lost["trace.named_coverage"] == pytest.approx(50 / 200)


ARGS = ["--workload", "ward_live", "--seed", "1", "--seconds", "1"]


def test_a_correct_run_removes_its_directory(monkeypatch, capsys):
    made = []

    def fake(root, run_dir, *_args):
        made.append(run_dir)
        return True, 1, 0, {}, []

    monkeypatch.setattr(ward, "run", fake)
    assert run.main(ARGS) == 0
    assert not os.path.exists(made[0])
    assert "run files kept" not in capsys.readouterr().out


def test_an_incorrect_run_keeps_its_directory(monkeypatch, capsys):
    monkeypatch.setattr(ward, "run",
                        lambda *_args: (False, 1, 1, {}, ["problem: x"]))
    assert run.main(ARGS) == 0
    out = capsys.readouterr().out
    kept = _kept_dir(out)
    try:
        assert os.path.isdir(kept)
        assert json.loads(out.splitlines()[-1])["correct"] is False
    finally:
        run.remove_run_dir(kept)


def test_a_failing_run_keeps_its_directory(monkeypatch, capsys):
    def fail(*_args):
        raise RuntimeError("server exited")

    monkeypatch.setattr(ward, "run", fail)
    with pytest.raises(RuntimeError):
        run.main(ARGS)
    kept = _kept_dir(capsys.readouterr().err)
    try:
        assert os.path.isdir(kept)
    finally:
        run.remove_run_dir(kept)


def test_recorder_wraps_calls_into_nested_spans():
    rec = tracing.Recorder()

    def inner(x):
        return x + 1

    wrapped_inner = tracing._wrap(rec, "inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    assert tracing._wrap(rec, "outer", outer)(1) == 4
    dump = rec.dump()
    assert dump["complete"]
    (outer_span, inner_span) = dump["spans"]
    assert dump["names"][outer_span[0]] == "outer"
    assert outer_span[1] == -1 and outer_span[4] > 0
    assert inner_span[1] == 0 and inner_span[4] == 0
    assert outer_span[2] <= inner_span[2] <= inner_span[3] <= outer_span[3]
