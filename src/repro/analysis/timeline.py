"""Timeline analysis of telemetry recordings.

Loads a ``--telemetry`` recording (JSONL or CSV, or the in-memory
record list of a live :class:`repro.telemetry.Telemetry`) back into
typed records and derives the control-loop views the paper plots:

* :meth:`Timeline.per_frame_table` — one row per frame joining the
  ``frame``, prediction-error and ``gate`` streams (frame time,
  prediction error, throttle stall, gate state).
* :meth:`Timeline.gating_duty_cycle` — fraction of the recorded span
  the ATU gate was open, reconstructed from ``gate`` edge events.
* :meth:`Timeline.summary` — scalar digest of the whole recording.
* :func:`plot_prediction_error` / :func:`plot_gating_vs_ipc` —
  matplotlib figures (FRPU error over frames, Fig. 8 flavour; gate
  spans against interval CPU IPC).  matplotlib is imported lazily and
  is **optional**: every tabular entry point works without it.

Usage::

    from repro.analysis.timeline import Timeline
    tl = Timeline.load("run.jsonl")
    for row in tl.per_frame_table():
        print(row)
    print(tl.summary())
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, Optional, Tuple

from repro.analysis.ingest import read_jsonl, warn_skipped
from repro.telemetry.events import SCHEMA

_CASTS = {"int": int, "float": float, "str": str}


def _coerce(record: dict) -> dict:
    """Cast a stringly CSV row back to the schema's field kinds."""
    etype = record.get("type", "")
    spec = SCHEMA.get(etype)
    if spec is None:
        return record
    out = {"type": etype}
    for f in spec.fields:
        raw = record.get(f.name)
        if raw is None or raw == "":
            continue
        out[f.name] = _CASTS[f.kind](raw)
    return out


def load_records(path: str) -> list[dict]:
    """Read a telemetry file (.jsonl/.json or .csv) into record dicts.

    Malformed lines (a truncated tail from an interrupted run, a row
    that no longer casts against the schema) are skipped with a counted
    :class:`~repro.analysis.ingest.MalformedLineWarning`.
    """
    return _load_records(path)[0]


def _load_records(path: str) -> Tuple[list, int]:
    ext = os.path.splitext(path)[1].lower()
    if ext != ".csv":
        return read_jsonl(path)
    records: list = []
    skipped = 0
    first_bad: Optional[int] = None
    with open(path, newline="", encoding="utf-8") as fh:
        # header is line 1; DictReader yields data rows from line 2
        for lineno, row in enumerate(csv.DictReader(fh), 2):
            try:
                records.append(_coerce(row))
            except (ValueError, TypeError):
                skipped += 1
                if first_bad is None:
                    first_bad = lineno
    warn_skipped(path, skipped, first_bad, len(records))
    return records, skipped


class Timeline:
    """A telemetry recording, indexed by event type for analysis."""

    def __init__(self, records: Iterable[dict]):
        self.records = list(records)
        #: malformed lines dropped by :meth:`load` (0 for in-memory use)
        self.skipped_lines: int = 0
        self.by_type: dict[str, list[dict]] = {}
        for r in self.records:
            self.by_type.setdefault(r.get("type", "?"), []).append(r)
        meta = self.by_type.get("run_meta")
        self.meta: dict = meta[0] if meta else {}

    @classmethod
    def load(cls, path: str) -> "Timeline":
        records, skipped = _load_records(path)
        tl = cls(records)
        tl.skipped_lines = skipped
        return tl

    @classmethod
    def from_telemetry(cls, telemetry) -> "Timeline":
        """Wrap a live Telemetry's in-memory buffer (``buffer=True``)."""
        return cls(telemetry.records)

    def __len__(self) -> int:
        return len(self.records)

    def events(self, etype: str) -> list[dict]:
        return self.by_type.get(etype, [])

    def prediction_errors(self) -> list[dict]:
        """Per-frame prediction-error records of whichever predictor
        ran: ``frpu_error`` from the reference extrapolator,
        ``predictor_error`` from the others (docs/predictors.md)."""
        return self.events("frpu_error") + self.events("predictor_error")

    @property
    def span_ticks(self) -> int:
        ticks = [r["tick"] for r in self.records if "tick" in r]
        return max(ticks) - min(ticks) if ticks else 0

    # -- derived views ------------------------------------------------------

    def gate_spans(self) -> list[tuple[int, int]]:
        """(open_tick, close_tick) spans from the gate edge stream.

        A still-open gate at the end of the recording closes at the
        last recorded tick.
        """
        spans: list[tuple[int, int]] = []
        opened: Optional[int] = None
        for e in self.events("gate"):
            if e["state"] == "open" and opened is None:
                opened = e["tick"]
            elif e["state"] == "closed" and opened is not None:
                spans.append((opened, e["tick"]))
                opened = None
        if opened is not None:
            end = max((r["tick"] for r in self.records if "tick" in r),
                      default=opened)
            spans.append((opened, max(end, opened)))
        return spans

    def gating_duty_cycle(self) -> float:
        """Fraction of the recorded span the ATU gate was open."""
        span = self.span_ticks
        if not span:
            return 0.0
        open_ticks = sum(b - a for a, b in self.gate_spans())
        return open_ticks / span

    def per_frame_table(self) -> list[dict]:
        """One row per rendered frame, joining the per-frame streams.

        Columns: ``frame``, ``tick``, ``cycles``, ``llc_accesses``,
        ``throttle_cycles``, ``n_rtps`` (from ``frame`` events),
        ``predicted_cycles`` / ``error_pct`` (from
        :meth:`prediction_errors`, when the predictor scored that
        frame), ``phase`` (the FRPU phase
        entered at that frame, if any) and ``gated`` (1 if the ATU gate
        was open at any point during the frame).
        """
        errors = {e["frame"]: e for e in self.prediction_errors()}
        phases = {e["frame"]: e["phase"] for e in self.events("frpu_phase")}
        spans = self.gate_spans()
        rows: list[dict] = []
        prev_end = 0
        for f in self.events("frame"):
            start, end = prev_end, f["tick"]
            prev_end = end
            gated = any(a < end and b > start for a, b in spans)
            row = {"frame": f["frame"], "tick": f["tick"],
                   "cycles": f["cycles"],
                   "llc_accesses": f["llc_accesses"],
                   "throttle_cycles": f["throttle_cycles"],
                   "n_rtps": f["n_rtps"],
                   "predicted_cycles": None, "error_pct": None,
                   "phase": phases.get(f["frame"], ""),
                   "gated": int(gated)}
            err = errors.get(f["frame"])
            if err is not None:
                row["predicted_cycles"] = err["predicted_cycles"]
                row["error_pct"] = err["error_pct"]
            rows.append(row)
        return rows

    def summary(self) -> dict:
        """Scalar digest of the recording."""
        frames = self.events("frame")
        errs = [abs(e["error_pct"]) for e in self.prediction_errors()]
        updates = self.events("atu_update")
        out = {
            "records": len(self.records),
            "span_ticks": self.span_ticks,
            "frames": len(frames),
            "mean_frame_cycles": (sum(f["cycles"] for f in frames)
                                  / len(frames)) if frames else 0.0,
            "frpu_predictions": len(errs),
            "frpu_mean_abs_error_pct": (sum(errs) / len(errs)) if errs
            else 0.0,
            "atu_updates": len(updates),
            "gate_spans": len(self.gate_spans()),
            "gating_duty_cycle": self.gating_duty_cycle(),
            "dram_priority_flips": len(self.events("dram_priority")),
        }
        out.update({k: self.meta[k] for k in ("mix", "policy", "scale")
                    if k in self.meta})
        return out

    def format_table(self, max_rows: int = 40) -> str:
        """Human-readable per-frame table (for the CLI / notebooks)."""
        rows = self.per_frame_table()
        hdr = (f"{'frame':>5s} {'cycles':>10s} {'accesses':>9s} "
               f"{'stall':>8s} {'err%':>7s} {'phase':>10s} {'gated':>5s}")
        lines = [hdr]
        for row in rows[:max_rows]:
            err = f"{row['error_pct']:+7.2f}" if row["error_pct"] is not None \
                else "      -"
            lines.append(
                f"{row['frame']:5d} {row['cycles']:10,d} "
                f"{row['llc_accesses']:9,d} {row['throttle_cycles']:8,d} "
                f"{err} {row['phase'] or '-':>10s} {row['gated']:5d}")
        if len(rows) > max_rows:
            lines.append(f"  ... {len(rows) - max_rows} more frame(s)")
        return "\n".join(lines)


# -- plots (matplotlib optional) --------------------------------------------

def _pyplot():
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:          # matplotlib is an optional extra
        raise RuntimeError(
            "plotting needs matplotlib, which is not installed; the "
            "tabular Timeline API (per_frame_table/summary) works "
            "without it") from exc
    return plt


def plot_prediction_error(timeline: Timeline, out_path: str) -> str:
    """FRPU prediction error per frame (the paper's Fig. 8 flavour)."""
    plt = _pyplot()
    errs = timeline.prediction_errors()
    fig, ax = plt.subplots(figsize=(8, 3))
    ax.axhline(0.0, color="0.7", lw=0.8)
    ax.plot([e["frame"] for e in errs], [e["error_pct"] for e in errs],
            marker=".", lw=0.8, label="prediction error")
    for f in timeline.events("frpu_phase"):
        if f["phase"] == "learning":
            ax.axvline(f["frame"], color="tab:red", lw=0.6, alpha=0.5)
    ax.set_xlabel("frame")
    ax.set_ylabel("error (%)")
    ax.set_title(f"FRPU prediction error — "
                 f"{timeline.meta.get('mix', '?')}/"
                 f"{timeline.meta.get('policy', '?')}")
    ax.legend(loc="best", fontsize=8)
    fig.tight_layout()
    fig.savefig(out_path, dpi=120)
    plt.close(fig)
    return out_path


def plot_gating_vs_ipc(timeline: Timeline, out_path: str) -> str:
    """Gate-open spans shaded under the interval CPU IPC curve."""
    plt = _pyplot()
    samples = timeline.events("cpu_interval")
    fig, ax = plt.subplots(figsize=(8, 3))
    ax.plot([s["tick"] for s in samples], [s["ipc"] for s in samples],
            lw=0.9, label="CPU IPC (interval)")
    for i, (a, b) in enumerate(timeline.gate_spans()):
        ax.axvspan(a, b, color="tab:orange", alpha=0.25,
                   label="gate open" if i == 0 else None)
    ax.set_xlabel("tick")
    ax.set_ylabel("IPC")
    duty = timeline.gating_duty_cycle()
    ax.set_title(f"GPU gating vs. CPU IPC — duty cycle {duty:.0%}")
    ax.legend(loc="best", fontsize=8)
    fig.tight_layout()
    fig.savefig(out_path, dpi=120)
    plt.close(fig)
    return out_path
