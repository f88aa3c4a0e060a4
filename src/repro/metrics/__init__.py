"""repro.metrics — the serving stack's operational observability.

The daemon, its worker pool and the ``top`` command that fed and read
this package are gone, and nothing in ``repro`` imports it any more;
it stays, with ``tests/metrics/``, until its own removal (ROADMAP.md,
"Delete the orphaned metrics layer").  Its modules:

* :mod:`repro.metrics.instruments` — :class:`Counter`, plus the span
  layer's :class:`Gauge` and 65-bucket log2 :class:`Histogram`
  (defined in :mod:`repro.spans.histogram`, re-exported here).
* :mod:`repro.metrics.registry` — the process-wide
  :class:`MetricsRegistry` of labeled instrument families with atomic
  snapshot/merge and Prometheus-text rendering.
* :mod:`repro.metrics.oplog` — a trace-ID-correlated structured JSONL
  operational log, a no-op until configured.
* :mod:`repro.metrics.top` — a parser for that Prometheus text and a
  terminal view of a daemon's ``GET /metrics`` and ``GET /healthz``.

:mod:`repro.analysis.oplog` joins operational logs back into
per-trace lifecycles.
"""

from repro.metrics.instruments import Counter, Gauge, Histogram
from repro.metrics.oplog import (configure, disable, mint_trace_id,
                                 oplog)
from repro.metrics.registry import (MetricsRegistry, registry,
                                    set_registry, snapshot_delta)


def counter(name: str, help: str = "", **labels):
    """The counter child for ``name`` (+ label values) in the
    process-wide registry.  Resolves through :func:`registry` on every
    call, so it always talks to the *current* registry — callers on a
    hot-ish path should hold the returned child instead."""
    fam = registry().counter(name, help, labels=tuple(sorted(labels)))
    return fam.labels(**labels) if labels else fam


def gauge(name: str, help: str = "", **labels):
    """Like :func:`counter`, for gauges."""
    fam = registry().gauge(name, help, labels=tuple(sorted(labels)))
    return fam.labels(**labels) if labels else fam


def histogram(name: str, help: str = "", **labels):
    """Like :func:`counter`, for histograms."""
    fam = registry().histogram(name, help, labels=tuple(sorted(labels)))
    return fam.labels(**labels) if labels else fam


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "configure", "counter", "disable", "gauge", "histogram",
           "mint_trace_id", "oplog", "registry", "set_registry",
           "snapshot_delta"]
