"""repro.telemetry — structured observability for the throttling loop.

The paper's mechanism is a closed control loop (FRPU prediction -> ATU
``(N_G, W_G)`` gate -> DRAM CPU-priority); this package records *why* a
run produced its FPS/IPC numbers as typed, schema-checked events:
frame boundaries, FRPU learning/prediction transitions with predicted
vs. actual cycles, ATU updates and gate-open/close spans, DRAM
priority-mode flips, and per-interval LLC/DRAM/CPU shares.

* :class:`Telemetry` — the hub components emit into; buffers in memory
  and streams to sinks.  Strictly opt-in: with none attached, every
  emitting site is a single ``is not None`` test on rare control events.
* :mod:`repro.telemetry.events` — the documented record schema
  (``SCHEMA``), enforced at emit time.
* :mod:`repro.telemetry.sinks` — JSONL / CSV / in-memory sinks.
* a recorded run: ``with Telemetry.to_file(path) as tel:
  run_system(cfg, mix, policy, telemetry=tel)`` (what ``python -m repro
  run --telemetry PATH`` does).
* :mod:`repro.analysis.timeline` — turn a recording back into per-frame
  tables and plots.

See docs/telemetry.md for the full schema reference and a worked
example.
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.events import SCHEMA, csv_columns, validate
from repro.telemetry.sinks import CsvSink, JsonlSink, ListSink, open_sink

__all__ = ["Telemetry", "SCHEMA", "csv_columns", "validate",
           "CsvSink", "JsonlSink", "ListSink", "open_sink"]
