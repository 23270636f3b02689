"""The serve-path benchmark: one command, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ward_live --seed 1 --seconds 12 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown from a traced run.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run works in
``.perfbench_runs/<workload>-<seed>-<pid>`` and deletes it when the run
is correct; a failed or incorrect run keeps it (SUT output, span dumps)
and says where.  Before it exits, on every path, the benchmark kills and
waits for every process it started.  Workloads, metrics and the reasons behind every
constant are in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import time

WORKLOADS = ("ward_live", "ward_fabric")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def remove_run_dir(run_dir: str) -> None:
    """Delete a finished run's directory, and its parent once empty."""
    shutil.rmtree(run_dir)
    try:
        os.rmdir(os.path.dirname(run_dir))
    except OSError:
        pass  # another run still owns a directory there


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): a fabric worker whose router died is
    re-parented here instead of to init, so :func:`reap_children` can
    kill and wait for it."""
    import ctypes

    pr_set_child_subreaper = 36
    if ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1,
                                                0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list:
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def reap_children(timeout_s: float = 10.0) -> None:
    """SIGKILL every process still a child of this one and wait for it,
    until none is left."""
    deadline = time.monotonic() + timeout_s
    while True:
        pids = _children()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"children {pids} would not exit")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    run_dir = os.path.join(ROOT, ".perfbench_runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    from perfbench import ward
    from perfbench.common import result_line

    adopt_orphans()
    try:
        correct, attempted, failed, metrics, lines = ward.run(
            ROOT, run_dir, args.workload, args.seed, args.seconds,
            bool(args.trace))
    except BaseException:
        print(f"run files kept in {run_dir}", file=sys.stderr)
        raise
    finally:
        reap_children()
    if correct:
        remove_run_dir(run_dir)
    else:
        lines.append(f"run files kept in {run_dir}")
    for line in lines:
        print(line)
    print(f"failed_fraction {failed / max(1, attempted):.6f} "
          f"({failed} of {attempted})")
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
