"""The transaction that flows through LLC, interconnect, and DRAM."""

from __future__ import annotations

from typing import Callable, Optional

GPU_SOURCE = "gpu"
CPU_SOURCES = tuple(f"cpu{i}" for i in range(16))

#: GPU access kinds (used by HeLM and by the texture-share analysis)
GPU_KINDS = ("texture", "depth", "color", "vertex", "shader_i", "zhier")

#: CPU access kinds, as issued by :class:`repro.cpu.core.CpuCore`
#: ("data" is the generic default for ad-hoc requests).  Together with
#: :data:`GPU_KINDS` this is the full kind namespace — the trace codecs
#: in :mod:`repro.tracing` are derived from these tuples.
CPU_KINDS = ("data", "load", "store", "inst", "writeback", "prefetch")


class MemRequest:
    """One line-granularity memory transaction.

    ``source`` is ``"cpu<i>"`` or ``"gpu"``; ``kind`` further classifies
    GPU traffic (texture/depth/color/vertex/...) and CPU traffic
    (inst/load/store/writeback).  ``on_done`` fires when data is returned
    (reads) or accepted (writes); writes may carry no callback.

    ``span`` is ``None`` unless a :class:`repro.spans.SpanTracer`
    sampled this request; every stage stamp site guards on it, so the
    untraced hot path pays one attribute test.  ``is_gpu`` is fixed by
    ``source`` at construction (a slot read, not a property call, on
    the LLC and DRAM paths).
    """

    __slots__ = ("addr", "is_write", "source", "kind", "on_done",
                 "created_at", "meta", "bypass", "span", "is_gpu")

    def __init__(self, addr: int, is_write: bool, source: str,
                 kind: str = "data",
                 on_done: Optional[Callable[["MemRequest"], None]] = None,
                 created_at: int = 0):
        self.addr = addr
        self.is_write = is_write
        self.source = source
        self.is_gpu = source == GPU_SOURCE
        self.kind = kind
        self.on_done = on_done
        self.created_at = created_at
        self.meta: Optional[dict] = None
        #: set by LLC policies: fill must not allocate in the LLC
        self.bypass = False
        #: set by the span tracer when this request is sampled
        self.span = None

    def complete(self) -> None:
        if self.on_done is not None:
            self.on_done(self)

    def __repr__(self) -> str:
        rw = "W" if self.is_write else "R"
        return f"MemRequest({rw} 0x{self.addr:x} {self.source}/{self.kind})"
