"""The shared last-level cache.

Table I: 16 MB, 16-way, 64 B lines, 10-cycle lookup, two-bit SRRIP,
*inclusive for CPU lines* (evicting a CPU line back-invalidates that
core's private caches) and *non-inclusive for GPU lines*.

Timing model: a request arrives (the interconnect delay is paid by the
sender), pays the lookup latency, and on a hit completes after the
response delay.  Misses allocate an MSHR entry and go to DRAM through the
``dram_send`` hook; when the MSHR file is full, requests wait in an input
queue (this is the backpressure that makes gated GPU traffic pile up in
GPU-internal buffers, exactly the effect Section III-B describes).

Policy hooks
------------
``bypass_fn(req)``   — return True to not allocate a GPU read fill (HeLM,
                       and the Fig. 3 "bypass all" motivation experiment).
``back_invalidate``  — called with (owner, line_addr) when an inclusive
                       CPU line is evicted.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.config import LlcConfig
from repro.mem.cache import Cache
from repro.mem.mshr import MshrFile
from repro.mem.request import MemRequest
from repro.sim.engine import Simulator
from repro.sim.stats import StatSet
from repro.spans.histogram import Histogram

#: scheduled closure-free as ``after_call(delay, _COMPLETE, req)`` —
#: equivalent to ``after(delay, req.complete)`` without allocating a
#: bound-method object per response
_COMPLETE = MemRequest.complete


class SharedLLC:
    def __init__(self, sim: Simulator, cfg: LlcConfig,
                 dram_send: Callable[[MemRequest], None],
                 response_delay: Callable[[MemRequest], int] = lambda r: 0):
        self.sim = sim
        self.cfg = cfg
        self.cache = Cache(cfg.cache_config())
        #: precomputed line mask — ``access`` aligns every address and
        #: runs once per LLC-bound request, so the mask math is inlined
        #: there instead of calling :meth:`line_addr`
        self._line_mask = ~(cfg.line_bytes - 1)
        self.mshr = MshrFile(cfg.mshr_entries, "llc_mshr")
        self.dram_send = dram_send
        self.response_delay = response_delay
        self.bypass_fn: Optional[Callable[[MemRequest], bool]] = None
        #: LLC-management hook: given the primary request of a fill,
        #: return an SRRIP insertion RRPV override (or None for the
        #: policy default).  Used by TAP-/DRP-style policies.
        self.fill_rrpv_fn: Optional[Callable[[MemRequest],
                                             Optional[int]]] = None
        #: hook observing every eviction (owner, kind, was_reused) —
        #: DRP-style policies learn reuse probabilities from this
        self.eviction_observer: Optional[Callable[[str, str], None]] = None
        self.back_invalidate: Optional[Callable[[str, int], None]] = None
        self._wait: deque[MemRequest] = deque()
        self._bypass_lines: set[int] = set()
        #: span tracer (None unless the system wires one); per-request
        #: stamp sites guard on ``req.span``, this reference is only
        #: touched for sampled requests (occupancy gauges)
        self.tracer = None
        #: always-on per-side read round-trip latency (created_at ->
        #: data return), the cheap aggregate RunResult.llc_latency
        #: reports; log2 buckets, two int ops per completed read
        self.rt_hist = {"cpu": Histogram(), "gpu": Histogram()}

        self.stats = StatSet("llc")
        s = self.stats
        self._acc = {"cpu": s.counter("cpu_accesses"),
                     "gpu": s.counter("gpu_accesses")}
        self._miss = {"cpu": s.counter("cpu_misses"),
                      "gpu": s.counter("gpu_misses")}
        self._hit = {"cpu": s.counter("cpu_hits"),
                     "gpu": s.counter("gpu_hits")}
        self._wb = s.counter("writebacks_to_dram")
        self._backinv = s.counter("back_invalidations")
        self._bypassed = s.counter("gpu_bypassed_fills")
        self._gpu_kind: dict[str, object] = {}
        #: req.source -> interned "cpu"/"gpu", so the per-access side
        #: split is one dict hit instead of a property + string compare
        self._sides: dict[str, str] = {}

    # -- helpers -------------------------------------------------------

    def _side(self, req: MemRequest) -> str:
        src = req.source
        side = self._sides.get(src)
        if side is None:
            side = self._sides[src] = "gpu" if src == "gpu" else "cpu"
        return side

    def line_addr(self, addr: int) -> int:
        return addr & ~(self.cfg.line_bytes - 1)

    def _count_kind(self, req: MemRequest) -> None:
        if req.is_gpu:
            c = self._gpu_kind.get(req.kind)
            if c is None:
                c = self._gpu_kind[req.kind] = self.stats.counter(
                    f"gpu_{req.kind}_accesses")
            c.value += 1

    # -- entry point ----------------------------------------------------

    def access(self, req: MemRequest) -> None:
        """A request arrives at the LLC controller."""
        side = self._side(req)
        self._acc[side].value += 1
        if req.is_gpu:
            self._count_kind(req)
        addr = req.addr & self._line_mask

        if req.is_write:
            self._write(req, addr)
            return

        sp = req.span
        if sp is not None:
            sp.stamp("llc_enter", self.sim.now)
        line = self.cache.lookup(addr)
        if line is not None:
            self._hit[side].value += 1
            delay = self.cfg.latency + self.response_delay(req)
            if sp is not None:
                sp.stamp("llc_hit", self.sim.now)
            self.rt_hist[side].record(self.sim.now + delay
                                      - req.created_at)
            self.sim.after_call(delay, _COMPLETE, req)
            return
        self._miss[side].value += 1
        self._read_miss(req, addr)

    # -- write path ------------------------------------------------------

    def _write(self, req: MemRequest, addr: int) -> None:
        """Writebacks from L2s / GPU ROP caches.

        CPU lines are inclusive so writebacks normally hit; a missing
        line (already evicted + back-invalidated, or GPU non-inclusive
        victim) is allocated dirty without a DRAM fetch — writebacks are
        full-line.
        """
        line = self.cache.lookup(addr, write=True)
        side = self._side(req)
        if line is not None:
            self._hit[side].value += 1
        else:
            self._miss[side].value += 1
            ev = self.cache.allocate(addr, write=True, owner=req.source,
                                     kind=req.kind)
            if ev is not None:
                self._handle_eviction(ev)
        # response_delay is charged unconditionally: the ring counts the
        # message (and, under the contention model, occupies a slot) even
        # when the writeback carries no completion callback
        delay = self.cfg.latency + self.response_delay(req)
        if req.on_done is not None:
            self.sim.after_call(delay, _COMPLETE, req)

    # -- read-miss path ----------------------------------------------------

    def _read_miss(self, req: MemRequest, addr: int) -> None:
        if req.is_gpu and self.bypass_fn is not None and self.bypass_fn(req):
            req.bypass = True
            self._bypassed.value += 1
        sp = req.span
        if sp is not None:
            sp.stamp("llc_miss", self.sim.now)
            self.tracer.gauge_record("llc_mshr", self.sim.now,
                                     len(self.mshr))
        if self.mshr.full:
            self.mshr.note_full()
            if sp is not None:
                sp.stamp("llc_queue", self.sim.now)
            self._wait.append(req)
            return
        self._start_miss(req, addr)

    def _start_miss(self, req: MemRequest, addr: int) -> None:
        entry = self.mshr.allocate(addr, req, self.sim.now)
        sp = req.span
        if entry is None:
            # merged onto an in-flight fill; the primary's span (if
            # any) carries the DRAM stamps, a sampled secondary only
            # records the merge point
            if sp is not None:
                sp.stamp("mshr_merge", self.sim.now)
            return
        if req.bypass:
            self._bypass_lines.add(addr)
        fill = MemRequest(addr, False, req.source, req.kind,
                          on_done=self._fill_done,
                          created_at=self.sim.now)
        if sp is not None:
            sp.stamp("mshr_alloc", self.sim.now)
            # the fill shares the primary's span so the DRAM-side
            # stamps (queue, activate, data) land on the same record
            fill.span = sp
        self.sim.after_call(self.cfg.latency, self.dram_send, fill)

    def _fill_done(self, fill: MemRequest) -> None:
        addr = fill.addr              # fills are issued at line granularity
        if fill.span is not None:
            fill.span.stamp("fill_return", self.sim.now)
        waiters = self.mshr.complete(addr)
        bypass = addr in self._bypass_lines
        if bypass:
            self._bypass_lines.discard(addr)
        else:
            primary = waiters[0]
            override = (self.fill_rrpv_fn(primary)
                        if self.fill_rrpv_fn is not None else None)
            ev = self.cache.allocate(addr, owner=primary.source,
                                     kind=primary.kind,
                                     repl_override=override)
            if ev is not None:
                self._handle_eviction(ev)
        for req in waiters:
            delay = self.response_delay(req)
            self.rt_hist[self._side(req)].record(self.sim.now + delay
                                                 - req.created_at)
            if delay:
                self.sim.after_call(delay, _COMPLETE, req)
            else:
                req.complete()
        # MSHR slots freed: admit queued requests (already counted as
        # misses on arrival; don't re-count)
        while self._wait and not self.mshr.full:
            queued = self._wait.popleft()
            qaddr = self.line_addr(queued.addr)
            if self.cache.probe(qaddr) is not None:
                # another fill satisfied it while it queued
                delay = self.cfg.latency + self.response_delay(queued)
                self.rt_hist[self._side(queued)].record(
                    self.sim.now + delay - queued.created_at)
                self.sim.after_call(delay, _COMPLETE, queued)
            else:
                self._start_miss(queued, qaddr)

    # -- eviction handling ---------------------------------------------------

    def _handle_eviction(self, ev) -> None:
        if self.eviction_observer is not None:
            self.eviction_observer(ev.owner, ev.kind, ev.reused)
        core_dirty = False
        if ev.owner.startswith("cpu") and self.back_invalidate is not None:
            self._backinv.value += 1
            core_dirty = bool(self.back_invalidate(ev.owner, ev.addr))
        if ev.dirty or core_dirty:
            self._wb.value += 1
            wb = MemRequest(ev.addr, True, ev.owner, ev.kind,
                            created_at=self.sim.now)
            self.dram_send(wb)

    # -- introspection --------------------------------------------------------

    def rt_summary(self) -> dict[str, float]:
        """Per-side read round-trip latency aggregates.

        Flat mean/p95/n per side (``cpu_mean``, ``cpu_p95``, ...),
        cheap enough to always ship in :class:`RunResult`.  p95 is the
        log2-bucket upper bound (a guaranteed upper bound on the true
        order statistic, see :class:`repro.spans.Histogram`).
        """
        out: dict[str, float] = {}
        for side, h in self.rt_hist.items():
            out[f"{side}_mean"] = round(h.mean, 2)
            out[f"{side}_p95"] = float(h.percentile(95))
            out[f"{side}_n"] = float(h.n)
        return out

    def gpu_occupancy(self) -> int:
        return sum(n for o, n in self.cache.occupancy_by_owner().items()
                   if o == "gpu")

    def cpu_occupancy(self) -> int:
        return sum(n for o, n in self.cache.occupancy_by_owner().items()
                   if o.startswith("cpu"))

    def interval_state(self) -> dict[str, int]:
        """Occupancy split plus cumulative per-side access/miss counts.

        Consumed by the telemetry interval sampler
        (:class:`repro.telemetry.sampler.IntervalSampler`), which
        differences consecutive snapshots into per-interval shares.
        Read-only: sampling cannot perturb the run.
        """
        return {"cpu_lines": self.cpu_occupancy(),
                "gpu_lines": self.gpu_occupancy(),
                "cpu_accesses": self._acc["cpu"].value,
                "gpu_accesses": self._acc["gpu"].value,
                "cpu_misses": self._miss["cpu"].value,
                "gpu_misses": self._miss["gpu"].value}

    def guard_state(self) -> dict[str, int]:
        """Occupancy snapshot for the invariant monitor.  Read-only."""
        return {"mshr": len(self.mshr), "mshr_cap": self.mshr.capacity,
                "waiters": len(self._wait),
                "bypass_lines": len(self._bypass_lines)}
