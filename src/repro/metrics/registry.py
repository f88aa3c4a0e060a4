"""Process-wide metrics registry with Prometheus-text rendering.

One :class:`MetricsRegistry` holds named *families* of
:class:`~repro.metrics.instruments.Counter` /
:class:`~repro.metrics.instruments.Gauge` /
:class:`~repro.metrics.instruments.Histogram` instruments; a family
with label names hands out one child instrument per label-value tuple
(``registry.counter("repro_cache_hits_total", labels=("layer",))
.labels(layer="memory").inc()``).

Design constraints, in order:

* **lock-free single-threaded fast path** — callers cache the child
  object once (``self._hits = family.labels(...)``) and every
  increment afterwards is one attribute add under the GIL; the
  registry's own lock is only taken on family/child *creation* and on
  snapshot/render, never per increment;
* **atomic snapshot/merge** — :meth:`MetricsRegistry.snapshot` freezes
  the whole registry into a JSON-able dict under the lock;
  :func:`snapshot_delta` subtracts a previous snapshot (counters and
  histogram buckets are monotone) and :meth:`MetricsRegistry.merge`
  folds a snapshot (or delta) back in, so a worker process can ship
  its metrics to its parent as a delta;
* **Prometheus text** — :meth:`MetricsRegistry.render` emits the
  ``text/plain; version=0.0.4`` exposition format a ``GET /metrics``
  endpoint serves: counters and gauges as single samples,
  histograms as cumulative ``_bucket{le=...}`` series (log2 upper
  edges) plus ``_sum``/``_count``.

The process-wide default lives behind :func:`registry`.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Dict, Iterable, Optional, Tuple

from repro.metrics.instruments import Counter, Gauge, Histogram

__all__ = ["MetricsRegistry", "registry", "set_registry",
           "snapshot_delta"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _child_key(values: Tuple[str, ...]) -> str:
    """Stable JSON key for one child's label values (snapshot form)."""
    return json.dumps(list(values), separators=(",", ":"))


class Family:
    """One named metric and its labeled children.

    ``labels(**kv)`` returns the child instrument for that label-value
    combination, creating it on first use; an unlabeled family has a
    single anonymous child reachable through the instrument-forwarding
    helpers (``inc``/``set``/``record``) or ``labels()`` with no
    arguments.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_children",
                 "_lock")

    def __init__(self, name: str, kind: str, help: str = "",
                 label_names: Tuple[str, ...] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if kind not in _KINDS:
            raise ValueError(f"bad metric kind {kind!r}")
        for ln in label_names:
            if not _LABEL_RE.match(ln):
                raise ValueError(f"bad label name {ln!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self):
        if self.kind == "gauge":
            return Gauge(self.name)
        return _KINDS[self.kind]()

    def labels(self, **kv) -> object:
        """The child instrument for these label values (created once).

        Callers on a hot-ish path should hold the returned object and
        talk to it directly — this lookup takes the family lock.
        """
        if set(kv) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(kv))}")
        values = tuple(str(kv[ln]) for ln in self.label_names)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._children[values] = self._make_child()
        return child

    # -- anonymous-child forwarding (unlabeled families) ---------------------

    def _solo(self):
        return self.labels()

    def inc(self, n: int = 1) -> None:
        self._solo().inc(n)

    def set(self, value: int) -> None:
        self._solo().set(value)

    def record(self, value: int) -> None:
        self._solo().record(value)

    @property
    def value(self):
        return self._solo().value

    def children(self) -> Dict[Tuple[str, ...], object]:
        with self._lock:
            return dict(self._children)


class MetricsRegistry:
    """A named collection of metric families; see the module docstring."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, Family] = {}

    # -- family accessors (idempotent get-or-create) -------------------------

    def _family(self, name: str, kind: str, help: str,
                labels: Iterable[str]) -> Family:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = Family(
                    name, kind, help, tuple(labels))
                return fam
        if fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, "
                f"not {kind}")
        if tuple(labels) and tuple(labels) != fam.label_names:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{fam.label_names}")
        return fam

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> Family:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> Family:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = ()) -> Family:
        return self._family(name, "histogram", help, labels)

    def get(self, name: str) -> Optional[Family]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> Dict[str, Family]:
        with self._lock:
            return dict(self._families)

    def clear(self) -> None:
        """Drop every family (tests only — cached children go stale)."""
        with self._lock:
            self._families.clear()

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict:
        """Freeze the registry into a JSON-able dict.

        ``{name: {kind, help, labels, children: {key: state}}}`` where
        ``key`` is the JSON form of the child's label values and
        ``state`` the instrument's ``to_dict()``.  Taken under the
        registry lock, so the family set is consistent; individual
        int reads are atomic under the GIL.
        """
        out: dict = {}
        for name, fam in self.families().items():
            out[name] = {
                "kind": fam.kind,
                "help": fam.help,
                "labels": list(fam.label_names),
                "children": {
                    _child_key(values): child.to_dict()
                    for values, child in fam.children().items()
                },
            }
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (or a :func:`snapshot_delta`) into this
        registry: counters and histogram buckets add, gauge
        distributions add with ``last`` following the merged-in side.
        Unknown families are created on the fly, so a worker process
        can define instruments its parent never touched.
        """
        for name, fam_snap in snapshot.items():
            kind = fam_snap.get("kind", "counter")
            fam = self._family(name, kind, fam_snap.get("help", ""),
                               tuple(fam_snap.get("labels", ())))
            cls = _KINDS[kind]
            for key, state in (fam_snap.get("children") or {}).items():
                values = tuple(json.loads(key))
                child = fam.labels(**dict(zip(fam.label_names, values)))
                if kind == "gauge":
                    child.merge(Gauge.from_dict(state))
                else:
                    child.merge(cls.from_dict(state))

    # -- Prometheus text exposition ------------------------------------------

    def render(self) -> str:
        """The registry in Prometheus text format (version 0.0.4)."""
        lines: list[str] = []
        for name, fam in sorted(self.families().items()):
            if fam.help:
                lines.append(f"# HELP {name} {_escape_help(fam.help)}")
            ptype = "histogram" if fam.kind == "histogram" else fam.kind
            lines.append(f"# TYPE {name} {ptype}")
            for values, child in sorted(fam.children().items()):
                pairs = list(zip(fam.label_names, values))
                if fam.kind == "counter":
                    lines.append(f"{name}{_labels(pairs)} {child.value}")
                elif fam.kind == "gauge":
                    lines.append(f"{name}{_labels(pairs)} {child.last}")
                else:
                    lines.extend(_render_histogram(name, pairs, child))
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(pairs, extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(pairs)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in items)
    return "{" + body + "}"


def _render_histogram(name: str, pairs, hist: Histogram) -> list:
    """Cumulative ``_bucket{le=...}`` series at the non-empty log2
    upper edges, plus the mandatory ``+Inf`` bucket, ``_sum`` and
    ``_count``."""
    lines = []
    cum = 0
    for i, c in enumerate(hist.counts):
        if not c:
            continue
        cum += c
        le = str(Histogram.bucket_upper(i))
        lines.append(f"{name}_bucket{_labels(pairs, ('le', le))} {cum}")
    lines.append(f"{name}_bucket{_labels(pairs, ('le', '+Inf'))} "
                 f"{hist.n}")
    lines.append(f"{name}_sum{_labels(pairs)} {hist.total}")
    lines.append(f"{name}_count{_labels(pairs)} {hist.n}")
    return lines


def snapshot_delta(current: dict, previous: dict) -> dict:
    """``current - previous`` for two :meth:`MetricsRegistry.snapshot`
    dicts taken from the same registry (counters and histogram buckets
    are monotone, so the subtraction is exact).  Children or families
    absent from ``previous`` pass through whole; gauges keep their
    ``last`` and subtract only the distribution.  Empty deltas are
    dropped, so a quiet interval ships almost no bytes over the pipe.
    """
    out: dict = {}
    for name, fam in current.items():
        prev_fam = previous.get(name)
        prev_children = (prev_fam or {}).get("children") or {}
        children = {}
        for key, state in (fam.get("children") or {}).items():
            prev = prev_children.get(key)
            if prev is None:
                if _non_empty(fam["kind"], state):
                    children[key] = state
                continue
            delta = _state_delta(fam["kind"], state, prev)
            if delta is not None:
                children[key] = delta
        if children:
            out[name] = {"kind": fam["kind"], "help": fam.get("help", ""),
                         "labels": fam.get("labels", []),
                         "children": children}
    return out


def _non_empty(kind: str, state: dict) -> bool:
    if kind == "counter":
        return bool(state.get("value"))
    if kind == "gauge":
        return bool((state.get("hist") or {}).get("n"))
    return bool(state.get("n"))


def _state_delta(kind: str, cur: dict, prev: dict) -> Optional[dict]:
    if kind == "counter":
        d = cur.get("value", 0) - prev.get("value", 0)
        return {"value": d} if d else None
    if kind == "gauge":
        hist = _hist_delta(cur.get("hist") or {}, prev.get("hist") or {})
        if hist is None:
            return None
        return {"last": cur.get("last", 0), "hist": hist}
    return _hist_delta(cur, prev)


def _hist_delta(cur: dict, prev: dict) -> Optional[dict]:
    dn = cur.get("n", 0) - prev.get("n", 0)
    if not dn:
        return None
    prev_counts = prev.get("counts") or {}
    counts = {}
    for i, c in (cur.get("counts") or {}).items():
        d = c - prev_counts.get(i, 0)
        if d:
            counts[i] = d
    return {"counts": counts, "n": dn,
            "total": cur.get("total", 0) - prev.get("total", 0),
            "min": cur.get("min"), "max": cur.get("max")}


# -- the process-wide default registry ----------------------------------------

_global = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer records into."""
    return _global


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one.

    Layers that cached child instruments keep recording into the old
    registry — swap *before* exercising the instrumented code path.
    """
    global _global
    old = _global
    _global = reg
    return old
