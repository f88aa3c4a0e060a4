"""repro.spans — request-path span tracing with latency percentiles.

Where :mod:`repro.telemetry` records the *control loop* (FRPU/ATU/QoS
decisions), spans record the *data path*: a sampled
:class:`~repro.mem.request.MemRequest` is stamped at every stage
boundary — core/shader issue, LLC entry, hit/miss resolution, MSHR
allocation, DRAM queue entry, bank activation, data return — and the
tracer aggregates per-source latency distributions (p50/p95/p99 via
fixed-bucket log2 histograms) plus request-weighted occupancy gauges
(MSHR fill, per-bank DRAM queue depth, ring backlog).

* :class:`SpanTracer` — 1-in-N sampler, histogram registry, JSONL sink.
* :class:`Histogram` / :class:`Gauge` — the metric primitives (the
  LLC's always-on round-trip aggregates use them too).
* a traced run: ``with SpanTracer.to_file(path) as tracer:
  run_system(cfg, mix, policy, tracer=tracer)`` (what ``python -m repro
  run --trace-spans PATH`` does).
* :mod:`repro.analysis.latency` — turn a span stream back into a
  per-policy, per-source stage breakdown and queue-depth timelines.

Zero-cost when off: no component holds a default-on tracer; every
stamp site guards with one ``is None`` test, and a traced run is
bit-identical to an untraced one (``tests/sim/test_spans_golden.py``).
See docs/latency.md for the stage glossary and worked examples.
"""

from repro.spans.histogram import Gauge, Histogram
from repro.spans.tracer import (METRICS, STAGES, Span, SpanTracer,
                                stage_durations)

__all__ = ["Gauge", "Histogram", "Span", "SpanTracer", "STAGES",
           "METRICS", "stage_durations"]
