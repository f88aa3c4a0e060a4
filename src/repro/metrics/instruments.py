"""Metric primitives for the operational registry.

:class:`Histogram` and :class:`Gauge` (with ``N_BUCKETS``) live in
:mod:`repro.spans.histogram`, next to the span tracer and the LLC's
always-on round-trip aggregates; this module re-exports them, so both
import paths name the same classes.  :class:`Counter` is the one
primitive only the registry uses.
"""

from __future__ import annotations

from repro.spans.histogram import N_BUCKETS, Gauge, Histogram

__all__ = ["N_BUCKETS", "Counter", "Gauge", "Histogram"]


class Counter:
    """A monotonically increasing count (jobs done, cache hits...).

    The fast path is one attribute add under the GIL — callers that
    care hold the child object and call :meth:`inc` directly, paying
    no registry lookup per increment.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> "Counter":
        self.value += other.value
        return self

    def to_dict(self) -> dict:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data: dict) -> "Counter":
        out = cls()
        out.value = int(data.get("value", 0))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Counter):
            return NotImplemented
        return self.value == other.value

    def __repr__(self) -> str:
        return f"Counter({self.value})"
