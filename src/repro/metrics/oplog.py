"""Structured operational log with trace-ID correlation.

Where :mod:`repro.telemetry` records what the *simulated machine* did,
the oplog records what a *serving process* did: one JSONL record per
operational event (submission received, job queued/started/done,
worker run), every record stamped with
a wall-clock ``ts``, the emitting ``pid``, a severity ``level``, and —
wherever one exists — the ``trace_id`` minted at client submission.

Trace IDs are the debugging primitive: a client mints one per spec
(:func:`mint_trace_id`) and carries it next to (never inside) the
``RunSpec``, so cache keys are unperturbed, and every record about
that spec's execution carries it.  ``repro.analysis.oplog`` joins the
stream back into per-trace lifecycles.

The global oplog is **disabled until configured** — ``oplog().emit``
on the disabled sentinel is a single attribute check, so library code
logs unconditionally and pays nothing in unconfigured processes.
:func:`configure` opens a sink (stderr by default, or a path); worker
processes forked after configuration inherit the open sink, and
append-mode line writes keep concurrent records whole.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import uuid
from typing import Optional, TextIO

__all__ = ["LEVELS", "OpLog", "configure", "disable", "mint_trace_id",
           "oplog"]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace ID (collision-safe per deployment)."""
    return uuid.uuid4().hex[:16]


class OpLog:
    """A JSONL sink with level filtering; see the module docstring."""

    def __init__(self, stream: Optional[TextIO] = None,
                 path: Optional[str] = None, level: str = "info"):
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r} "
                             f"(one of {sorted(LEVELS)})")
        self.level = level
        self._threshold = LEVELS[level]
        self._lock = threading.Lock()
        self._owns_stream = False
        self.path = path
        if path is not None:
            # append mode: forked workers inherit the handle and their
            # line writes land at the end without clobbering the parent
            self._stream = open(path, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = stream if stream is not None else sys.stderr
        self.emitted = 0
        self.enabled = True

    def emit(self, event: str, level: str = "info",
             trace_id: Optional[str] = None, **fields) -> None:
        """Write one record; silently dropped below the level threshold."""
        if not self.enabled or LEVELS.get(level, 20) < self._threshold:
            return
        rec = {"ts": round(time.time(), 6), "level": level,
               "event": event, "pid": os.getpid()}
        if trace_id is not None:
            rec["trace_id"] = trace_id
        rec.update(fields)
        line = json.dumps(rec, separators=(",", ":"),
                          default=str) + "\n"
        with self._lock:
            try:
                self._stream.write(line)
                self._stream.flush()
            except (OSError, ValueError):
                return                # sink gone: drop, never raise
            self.emitted += 1

    def close(self) -> None:
        self.enabled = False
        if self._owns_stream:
            try:
                self._stream.close()
            except OSError:          # pragma: no cover
                pass


class _Disabled:
    """The unconfigured sentinel: every emit is a cheap no-op."""

    enabled = False
    path = None
    emitted = 0

    def emit(self, event: str, level: str = "info",
             trace_id: Optional[str] = None, **fields) -> None:
        return

    def close(self) -> None:
        return


_DISABLED = _Disabled()
_global: object = _DISABLED


def oplog():
    """The process-wide oplog (the disabled sentinel until
    :func:`configure` runs)."""
    return _global


def configure(path: Optional[str] = None,
              stream: Optional[TextIO] = None,
              level: str = "info") -> OpLog:
    """Install the process-wide oplog and return it.

    ``path`` wins over ``stream``; with neither, records go to stderr.
    Reconfiguring closes the previous instance.
    """
    global _global
    previous = _global
    log = OpLog(stream=stream, path=path, level=level)
    _global = log
    if previous is not _DISABLED:
        previous.close()
    return log


def disable() -> None:
    """Close and remove the process-wide oplog (back to the sentinel)."""
    global _global
    previous = _global
    _global = _DISABLED
    if previous is not _DISABLED:
        previous.close()
