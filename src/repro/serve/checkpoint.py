"""Checkpoint/resume of live monitoring sessions.

A serving checkpoint is one JSON document holding, per user, the raw
reports still inside the engine's bounded streaming window plus the
session's cadence clock and drop counters.  Raw reports — not derived
signal state — remain the checkpointed representation even now that the
engine maintains incremental state (the per-user row store of Eq. 3
phase deltas, the tick memo): that state is a *pure function*
of the buffered reports, so ``restore_streaming`` rebuilds it
deterministically by replaying them, and restoring the window restores
every subsequent estimate bit for bit (``tests/test_serve.py`` asserts
resume continuity against an uninterrupted run; DESIGN.md §12 covers
the rebuild contract).  Serialising row-store/memo internals would only
buy a faster restore at the price of a schema coupled to pipeline
internals.  The cost is modest: the window is bounded (~4 analysis
windows per tag stream), so a checkpoint is O(users), not O(session
lifetime).

Since v2 the document also carries ``client_seqs`` — the highest report
sequence number accepted per ``client_id`` — snapshotted in the *same*
document as the session windows, so a restored server's duplicate
filter rewinds exactly as far as its session state does (the idempotent
resume contract of :class:`~repro.serve.client.IngestClient`).

Durability is defended in depth (the fabric's chaos harness corrupts
these files mid-write on purpose):

* **atomic** — written to a temp file and ``os.replace``d into place,
  so a crash mid-checkpoint never leaves a torn live file;
* **fsynced** — the temp file is flushed and ``os.fsync``ed *before*
  the rename (and the directory after it, best effort), so the rename
  cannot be reordered ahead of the data hitting disk;
* **verified** — a file that fails to parse or validate raises a typed
  :class:`~repro.errors.CheckpointCorruptError`, never a raw decode
  exception;
* **generational** — the previous good checkpoint survives as
  ``<path>.prev``; :func:`load_checkpoint` falls back to it when the
  live file is corrupt or missing mid-rotation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import CheckpointCorruptError, ServeError
from ..reader.tagreport import TagReport
from .protocol import ProtocolError, report_to_wire, wire_to_report

#: Checkpoint document magic / schema version.
CHECKPOINT_FORMAT = "repro-serve-checkpoint"
#: v2 added ``client_seqs`` (idempotent-resume watermarks); v1 files
#: load fine — the key just defaults to empty.
CHECKPOINT_VERSION = 2


def previous_path(path: Union[str, Path]) -> Path:
    """Where :func:`save_checkpoint` keeps the previous good generation."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


def session_state_to_doc(state: Dict[str, Any]) -> Dict[str, Any]:
    """One session's ``UserSession.state()`` as a JSON-ready document.

    Also the wire shape of fabric shard migration (``migrate_out`` /
    ``migrate_in`` carry lists of exactly these documents), which is
    what makes migration checkpoint-equivalent by construction.
    """
    doc = dict(state)
    reports: List[TagReport] = doc.pop("reports")
    doc["reports"] = [report_to_wire(r) for r in reports]
    return doc


def session_state_from_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`session_state_to_doc` (reports become TagReports).

    Raises:
        CheckpointCorruptError: when the document is malformed.
    """
    try:
        state = dict(doc)
        state["user_id"] = int(state["user_id"])
        state["reports"] = [wire_to_report(m) for m in state["reports"]]
        return state
    except (KeyError, TypeError, ValueError, ProtocolError) as exc:
        raise CheckpointCorruptError(
            f"malformed session document: {exc}") from exc


def save_checkpoint(path: Union[str, Path],
                    sessions: List[Dict[str, Any]],
                    counters: Dict[str, int],
                    client_seqs: Optional[Dict[str, int]] = None,
                    hibernated_docs: Optional[List[Dict[str, Any]]] = None,
                    ) -> int:
    """Write a checkpoint atomically and durably; returns reports captured.

    Args:
        path: destination file (parent directory must exist).
        sessions: per-session state dicts from ``UserSession.state()``.
        counters: server-level totals (frames, sheds, connections) so a
            restarted server's metrics keep counting instead of lying
            back to zero.
        client_seqs: highest accepted report sequence per ``client_id``
            (the duplicate-filter watermarks; omitted = empty).
        hibernated_docs: already wire-shaped session documents from the
            hibernation cold tier (flagged ``"hibernated": true``).
            They land in the same ``sessions`` list as live sessions —
            one uniform schema — without ever inflating an engine.

    The previous live checkpoint, if any, is rotated to ``<path>.prev``
    before the new one lands, so there is always at most one torn
    generation and at least one good one on disk.
    """
    path = Path(path)
    session_docs = [session_state_to_doc(s) for s in sessions]
    session_docs.extend(dict(d) for d in (hibernated_docs or []))
    session_docs.sort(key=lambda d: d["user_id"])
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "counters": {k: int(v) for k, v in sorted(counters.items())},
        "client_seqs": {str(k): int(v)
                        for k, v in sorted((client_seqs or {}).items())},
        "sessions": session_docs,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(doc, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    if path.exists():
        os.replace(path, previous_path(path))
    os.replace(tmp, path)
    try:  # directory fsync makes the rename itself durable (best effort)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return sum(len(s["reports"]) for s in doc["sessions"])


def _load_document(path: Path) -> Dict[str, Any]:
    """Parse and validate one checkpoint file (no fallback).

    Raises:
        ServeError: when the file cannot be read at all (missing, EPERM).
        CheckpointCorruptError: when it exists but cannot be trusted.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ServeError(f"cannot read checkpoint {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # Torn write, truncation, or garbage — typed so callers can fall
        # back to the previous generation instead of cold-starting.
        raise CheckpointCorruptError(
            f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointCorruptError(
            f"{path} is not a repro-serve checkpoint")
    if doc.get("version", 0) > CHECKPOINT_VERSION:
        raise ServeError(
            f"checkpoint {path} is version {doc.get('version')}, "
            f"newer than supported version {CHECKPOINT_VERSION}")
    try:
        sessions = [session_state_from_doc(state)
                    for state in doc.get("sessions", [])]
        counters = {k: int(v)
                    for k, v in doc.get("counters", {}).items()}
        client_seqs = {str(k): int(v)
                       for k, v in doc.get("client_seqs", {}).items()}
    except (TypeError, ValueError, AttributeError) as exc:
        raise CheckpointCorruptError(
            f"malformed checkpoint {path}: {exc}") from exc
    return {"counters": counters, "sessions": sessions,
            "client_seqs": client_seqs, "fallback": False}


def load_checkpoint(path: Union[str, Path],
                    allow_fallback: bool = True) -> Dict[str, Any]:
    """Read a checkpoint back; reports are decoded into TagReports.

    Args:
        path: the live checkpoint file.
        allow_fallback: when True (default) a corrupt or mid-rotation
            missing live file falls back to ``<path>.prev``; the result
            then carries ``"fallback": True``.

    Returns:
        ``{"counters": {...}, "client_seqs": {...}, "sessions": [...],
        "fallback": bool}`` where each session state carries a
        ``reports`` list of TagReport objects, ready for
        ``UserSession.restore``.

    Raises:
        CheckpointCorruptError: the live file is corrupt and no good
            previous generation exists either.
        ServeError: the file is missing (cold start) or a newer schema
            version than this code understands.
    """
    path = Path(path)
    try:
        return _load_document(path)
    except (CheckpointCorruptError, ServeError) as exc:
        prev = previous_path(path)
        if not allow_fallback or not prev.exists():
            raise
        # A missing live file only falls back when a rotation could
        # have been interrupted (a .prev exists); corruption always
        # tries the previous generation.
        doc = _load_document(prev)
        doc["fallback"] = True
        doc["fallback_reason"] = str(exc)
        return doc
