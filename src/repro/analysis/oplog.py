"""Join operational logs back into per-trace lifecycles.

An operational log (:mod:`repro.metrics.oplog`) holds one JSONL record
per operational event, every record carrying the ``trace_id`` minted
at client submission.  :class:`OpLogView` loads such a file
(through the same forgiving :func:`~repro.analysis.ingest.read_jsonl`
the other analysis tools use) and answers the debugging questions the
flat stream can't: *what happened to this submission*, end to end —
when it was submitted, whether it coalesced onto another client's
execution, which worker ran it, how long it took, how it settled.

A ``coalesced`` record links its waiter ``trace_id`` to the winning
execution's ``exec_trace_id``; :meth:`OpLogView.trace` follows that
link, so a waiter's lifecycle includes the execution it rode on.

:meth:`OpLogView.join` correlates other per-run JSONL artifacts
(span traces, telemetry exports) against the oplog by a shared field —
the run ``label`` by default, since span/telemetry rows predate trace
IDs — giving one command-line path from "this submission was slow" to
the simulator-level evidence.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.ingest import read_jsonl

__all__ = ["OpLogView"]


class OpLogView:
    """An in-memory oplog with per-trace indexing; see the module
    docstring."""

    def __init__(self, records: List[dict], skipped: int = 0):
        self.records = records
        self.skipped = skipped
        self._by_trace: Dict[str, List[dict]] = {}
        self._exec_of: Dict[str, str] = {}    # waiter -> exec trace
        for rec in records:
            tid = rec.get("trace_id")
            if tid:
                self._by_trace.setdefault(tid, []).append(rec)
            if rec.get("event") == "coalesced" and tid \
                    and rec.get("exec_trace_id"):
                self._exec_of[tid] = rec["exec_trace_id"]

    @classmethod
    def load(cls, path: str) -> "OpLogView":
        rows, skipped = read_jsonl(path)
        return cls(rows, skipped)

    # -- per-trace access -----------------------------------------------------

    def trace_ids(self) -> List[str]:
        """Every trace ID seen, in first-appearance order."""
        return list(self._by_trace)

    def trace(self, trace_id: str,
              follow: bool = True) -> List[dict]:
        """Every record for ``trace_id``, in file order.  With
        ``follow`` (default), a coalesced waiter's view also includes
        the winning execution's records."""
        records = list(self._by_trace.get(trace_id, ()))
        exec_id = self._exec_of.get(trace_id)
        if follow and exec_id and exec_id != trace_id:
            records.extend(self._by_trace.get(exec_id, ()))
            records.sort(key=lambda r: r.get("ts", 0.0))
        return records

    def lifecycle(self, trace_id: str) -> dict:
        """One summary row: how this submission moved through the
        stack and how it settled."""
        records = self.trace(trace_id)
        events = [r.get("event") for r in records]
        done = next((r for r in records if r.get("event") == "done"),
                    None)
        # label/client come from the trace's *own* records first: a
        # coalesced waiter keeps its own client even though the merged
        # view starts with the winner's submission
        own = self.trace(trace_id, follow=False) + records
        out = {
            "trace_id": trace_id,
            "events": events,
            "label": next((r["label"] for r in own
                           if r.get("label")), None),
            "client": next((r["client"] for r in own
                            if r.get("client")), None),
            "coalesced_onto": self._exec_of.get(trace_id),
            "interrupted": "interrupted" in events,
            "ok": done.get("ok") if done else None,
            "source": done.get("source") if done else None,
            "elapsed": done.get("elapsed") if done else None,
        }
        if records:
            out["t0"] = records[0].get("ts")
            out["t1"] = records[-1].get("ts")
        return out

    def table(self) -> List[dict]:
        """A lifecycle summary per trace, in first-appearance order."""
        return [self.lifecycle(tid) for tid in self._by_trace]

    # -- correlation with other artifacts -------------------------------------

    def join(self, rows: List[dict], field: str = "label",
             trace_id: Optional[str] = None) -> Dict[str, List[dict]]:
        """Correlate foreign JSONL rows (spans, telemetry) with traces.

        Returns ``{trace_id: [matching rows]}``: a foreign row matches
        a trace when its ``field`` value equals any value that trace's
        oplog records carry under the same field.  Restrict to one
        trace with ``trace_id``.
        """
        wanted = [trace_id] if trace_id else list(self._by_trace)
        out: Dict[str, List[dict]] = {}
        for tid in wanted:
            values = {r.get(field) for r in self.trace(tid)
                      if r.get(field) is not None}
            if not values:
                continue
            hits = [row for row in rows if row.get(field) in values]
            if hits:
                out[tid] = hits
        return out

    # -- rendering ------------------------------------------------------------

    def format(self, limit: Optional[int] = None) -> str:
        """A human-readable per-trace table (``top``'s offline
        sibling)."""
        lines = [f"{'trace':16}  {'client':12}  {'label':28}  "
                 f"{'outcome':11}  flow"]
        for row in self.table()[:limit]:
            if row["interrupted"]:
                outcome = "interrupted"
            elif row["ok"] is None:
                outcome = "in-flight"
            elif row["ok"]:
                outcome = f"ok/{row['source']}"
            else:
                outcome = "failed"
            flow = " > ".join(row["events"])
            if row["coalesced_onto"]:
                flow += f" [rode {row['coalesced_onto']}]"
            lines.append(f"{row['trace_id']:16}  "
                         f"{(row['client'] or '-'):12}  "
                         f"{(row['label'] or '-'):28}  "
                         f"{outcome:11}  {flow}")
        if self.skipped:
            lines.append(f"({self.skipped} malformed line(s) skipped)")
        return "\n".join(lines)
