"""Request-path span tracing: where does a memory request spend cycles?

The paper's mechanism argument (Sections III-V) is about *queueing*:
gating GPU LLC ports drains GPU-induced backlog in the LLC input
queue, the ring, and the DRAM bank queues, and CPU requests get
through faster.  End metrics (IPC, FPS) show the effect; spans show
the mechanism.  A sampled :class:`~repro.mem.request.MemRequest`
carries a :class:`Span` that every pipeline stage stamps with the
current tick:

========== =================================================== =========
stage       stamped by                                          meaning
========== =================================================== =========
issue       ``CpuCore._send`` / ``GpuPipeline._issue_llc``      core/shader hands the request to the interconnect
llc_enter   ``SharedLLC.access``                                arrival at the LLC controller (ring paid)
llc_hit     ``SharedLLC.access``                                hit resolution
llc_miss    ``SharedLLC._read_miss``                            miss resolution
llc_queue   ``SharedLLC._read_miss``                            entered the MSHR-full input queue
mshr_alloc  ``SharedLLC._start_miss``                           primary miss: MSHR entry allocated
mshr_merge  ``SharedLLC._start_miss``                           secondary miss: merged onto an in-flight fill
dram_enqueue ``MemoryController.enqueue``                       fill entered a channel's read queue
dram_issue  ``MemoryController._service``                       the access scheduler selected it
bank_act    ``MemoryController._service``                       the command needed an ACTIVATE (row miss/conflict)
dram_data   ``MemoryController._service``                       data transfer starts on the shared bus
dram_done   ``MemoryController._service``                       data transfer complete at the controller
fill_return ``SharedLLC._fill_done``                            fill arrived back at the LLC (ring paid)
done        the tracer's completion hook                        data returned to the requester
========== =================================================== =========

Only reads are traced (CPU loads, stores-for-ownership, ifetches,
prefetches; GPU fills) — writes carry no completion to measure.  A
miss's DRAM stamps land on the *primary* span (the fill request shares
it); merged secondaries record their merge wait instead.

Strictly observational: stamps read ``sim.now`` and write span fields,
never schedule events, so a traced run's :class:`RunResult` is
bit-identical to an untraced one (``tests/sim/test_spans_golden.py``).
Cost when off is a single ``is None`` test at each emit site; cost
when on is bounded by 1-in-``sample_every`` request sampling.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, TYPE_CHECKING

from repro.spans.histogram import Gauge, Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.request import MemRequest
    from repro.sim.system import HeterogeneousSystem

#: every stage a span may carry, in pipeline order (docs + validation)
STAGES = ("issue", "llc_enter", "llc_hit", "llc_miss", "llc_queue",
          "mshr_alloc", "mshr_merge", "dram_enqueue", "dram_issue",
          "bank_act", "dram_data", "dram_done", "fill_return", "done")

#: derived per-stage duration metrics, in report order
METRICS = ("total", "ring_fwd", "llc_service", "llc_wait", "to_dram",
           "dram_queue", "bank_service", "return_path", "merge_wait")


class Span:
    """Stage stamps of one sampled request, in stamping order."""

    __slots__ = ("sid", "source", "kind", "stages")

    def __init__(self, sid: int, source: str, kind: str):
        self.sid = sid
        self.source = source
        self.kind = kind
        self.stages: list[tuple[str, int]] = []

    def stamp(self, stage: str, tick: int) -> None:
        self.stages.append((stage, tick))

    def __repr__(self) -> str:
        return (f"Span(#{self.sid} {self.source}/{self.kind}: "
                + " ".join(f"{s}@{t}" for s, t in self.stages) + ")")


def stage_durations(stages) -> tuple[str, dict[str, int]]:
    """Classify a span and derive its per-stage durations (ticks).

    Returns ``(cls, durations)`` where ``cls`` is ``"hit"``, ``"miss"``
    (primary, went to DRAM), ``"merge"`` (secondary, rode an in-flight
    fill), ``"queued_hit"`` (waited in the MSHR-full queue, satisfied
    by another fill) or ``"open"`` (never completed).  Durations are
    keyed by the :data:`METRICS` names present for that class; for a
    miss they partition ``total``:
    ``ring_fwd + llc_wait + to_dram + dram_queue + bank_service +
    return_path == total``.
    """
    t = dict(stages)
    durs: dict[str, int] = {}
    done = t.get("done")
    issue = t.get("issue")
    enter = t.get("llc_enter")
    if done is not None and issue is not None:
        durs["total"] = done - issue
    if enter is not None and issue is not None:
        durs["ring_fwd"] = enter - issue
    if "llc_hit" in t:
        cls = "hit"
        if done is not None and enter is not None:
            durs["llc_service"] = done - enter
    elif "mshr_alloc" in t:
        cls = "miss"
        if enter is not None:
            durs["llc_wait"] = t["mshr_alloc"] - enter
        dq = t.get("dram_enqueue")
        if dq is not None:
            durs["to_dram"] = dq - t["mshr_alloc"]
            di = t.get("dram_issue")
            if di is not None:
                durs["dram_queue"] = di - dq
                dd = t.get("dram_done")
                if dd is not None:
                    durs["bank_service"] = dd - di
                    if done is not None:
                        durs["return_path"] = done - dd
    elif "mshr_merge" in t:
        cls = "merge"
        if enter is not None:
            durs["llc_wait"] = t["mshr_merge"] - enter
        if done is not None:
            durs["merge_wait"] = done - t["mshr_merge"]
    elif "llc_miss" in t:
        cls = "queued_hit"
        if done is not None and enter is not None:
            durs["llc_wait"] = done - enter
    else:
        cls = "open"
    return cls, durs


class SpanTracer:
    """Samples 1-in-N eligible requests, collects spans + occupancy.

    * per-(side, metric) latency :class:`Histogram` registry — the live
      p50/p95/p99 report (:meth:`format_report`);
    * named occupancy :class:`Gauge` s (MSHR fill, per-bank DRAM queue
      depth, ring injection backlog, per-core outstanding loads),
      recorded at the levels sampled requests actually observed;
    * an optional JSONL stream (``path``): one ``meta`` row, one row
      per finished span, one row per gauge observation — the input to
      :mod:`repro.analysis.latency`.

    Sampling is a deterministic modulo counter over *eligible* (read,
    completion-carrying) requests, so a fixed-seed run traces the same
    requests every time.
    """

    def __init__(self, sample_every: int = 64, path: Optional[str] = None):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.path = path
        self._fh = open(path, "w", encoding="utf-8") if path else None
        #: simulated clock; :meth:`bind` wires it to the system's
        self.now_fn: Callable[[], int] = lambda: 0
        self.meta: dict = {}
        self._eligible = 0
        self._next_sid = 0
        self.started = 0
        self.finished = 0
        #: (side, metric) -> Histogram of that stage duration
        self.hists: dict[tuple[str, str], Histogram] = {}
        self.gauges: dict[str, Gauge] = {}
        self._closed = False

    @classmethod
    def to_file(cls, path: str, sample_every: int = 64) -> "SpanTracer":
        return cls(sample_every=sample_every, path=path)

    # -- wiring ------------------------------------------------------------

    def bind(self, system: "HeterogeneousSystem") -> None:
        """Called by the system once built: clock access, the stamp
        sites (LLC, DRAM controllers, cores, GPU) and the meta row."""
        self.now_fn = lambda: system.sim.now
        system.llc.tracer = self
        for agent in (*system.dram.controllers, *system.cores):
            agent.tracer = self
        if system.gpu is not None:
            system.gpu.tracer = self
        self.meta = {"mix": system.mix.name,
                     "policy": system.policy.name,
                     "scale": system.cfg.scale.name,
                     "seed": system.cfg.seed}
        self._write({"t": "meta", "sample": self.sample_every,
                     **self.meta})

    # -- span lifecycle ----------------------------------------------------

    def maybe_start(self, req: "MemRequest", now: int) -> None:
        """Sample ``req`` 1-in-N; on selection attach a span and hook
        completion.  Writes and callback-less requests are ineligible
        (nothing to time)."""
        if req.is_write or req.on_done is None:
            return
        self._eligible += 1
        if (self._eligible - 1) % self.sample_every:
            return
        sp = Span(self._next_sid, req.source, req.kind)
        self._next_sid += 1
        self.started += 1
        sp.stamp("issue", now)
        req.span = sp
        orig = req.on_done

        def finish(r, _sp=sp, _orig=orig, _self=self):
            _self._record_done(_sp)
            _orig(r)
        req.on_done = finish

    def _record_done(self, sp: Span) -> None:
        sp.stamp("done", self.now_fn())
        self.finished += 1
        side = "gpu" if sp.source == "gpu" else "cpu"
        cls, durs = stage_durations(sp.stages)
        hists = self.hists
        for metric, val in durs.items():
            h = hists.get((side, metric))
            if h is None:
                h = hists[(side, metric)] = Histogram()
            h.record(val)
        self._write({"t": "span", "sid": sp.sid, "src": sp.source,
                     "kind": sp.kind, "cls": cls,
                     "stages": [[s, t] for s, t in sp.stages]})

    # -- gauges ------------------------------------------------------------

    def gauge_record(self, name: str, tick: int, value: int,
                     **extra) -> None:
        """Record an occupancy observation (and stream it, with any
        facet fields like ``ch``/``bank``, for the timeline views)."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        g.record(value)
        if self._fh is not None:
            row = {"t": "gauge", "tick": tick, "name": name, "v": value}
            row.update(extra)
            self._write(row)

    # -- output ------------------------------------------------------------

    def _write(self, row: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(row, separators=(",", ":"),
                                      sort_keys=True))
            self._fh.write("\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- live report -------------------------------------------------------

    def side_hists(self, side: str) -> dict[str, Histogram]:
        """Metric -> Histogram for one side, in :data:`METRICS` order."""
        out = {}
        for metric in METRICS:
            h = self.hists.get((side, metric))
            if h is not None:
                out[metric] = h
        return out

    def format_report(self) -> str:
        """Per-source stage breakdown from the in-memory registry."""
        lines = []
        head = "span latency report"
        if self.meta:
            head += (f" — mix={self.meta.get('mix')} "
                     f"policy={self.meta.get('policy')} "
                     f"scale={self.meta.get('scale')}")
        lines.append(head + f"  (1-in-{self.sample_every} sampling)")
        lines.append(f"  spans: {self.finished} finished, "
                     f"{self.started - self.finished} open at harvest")
        for side in ("cpu", "gpu"):
            hists = self.side_hists(side)
            if not hists:
                continue
            total = hists.get("total")
            denom = total.total if total is not None and total.total else 0
            lines.append(f"  {side}:")
            lines.append(f"    {'stage':12s} {'n':>8s} {'mean':>9s} "
                         f"{'p50':>7s} {'p95':>7s} {'p99':>7s} "
                         f"{'share':>6s}")
            for metric, h in hists.items():
                share = (f"{100.0 * h.total / denom:5.1f}%"
                         if denom and metric != "total" else "     -")
                lines.append(
                    f"    {metric:12s} {h.n:8d} {h.mean:9.1f} "
                    f"{h.percentile(50):7d} {h.percentile(95):7d} "
                    f"{h.percentile(99):7d} {share:>6s}")
        if self.gauges:
            lines.append("  occupancy (request-weighted):")
            for name in sorted(self.gauges):
                s = self.gauges[name].summary()
                lines.append(
                    f"    {name:16s} n {int(s['n']):7d}  mean "
                    f"{s['mean']:7.2f}  p95 {int(s['p95']):5d}  max "
                    f"{int(s['max']):5d}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"SpanTracer(1/{self.sample_every}, "
                f"{self.finished} finished, "
                f"{len(self.gauges)} gauge(s))")
