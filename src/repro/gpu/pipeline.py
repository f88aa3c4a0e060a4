"""The GPU rendering pipeline as a latency-tolerant issue engine.

The command processor walks frames -> RTPs -> tile updates.  Per tile it
pushes the generated accesses through the internal cache hierarchy;
LLC-bound traffic is paced by

* the GTT issue rate (``issue_rate`` accesses per GPU cycle),
* the ATU throttle gate (the paper's ``(N_G, W_G)`` token mechanism),
* MSHR backpressure (at ``mshr_entries`` outstanding fills the front end
  stalls — this is where gated requests "occupy GPU resources").

A tile also carries a compute budget; a tile's time is
``max(memory-issue time, compute time)`` which makes the GPU
compute-bound standalone and memory-bound under contention — the paper's
operating regime.  The frame completes when its last fill returns
(pipeline drain), and the ROP caches flush dirty lines to the LLC.

Observation hooks (consumed by the FRPU and by DynPrio):
:attr:`frame_progress`, per-RTP records, per-frame LLC access counts and
throttle-stall accounting.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import GPU_CYCLE_TICKS, GpuConfig
from repro.gpu.caches import GpuCacheHierarchy
from repro.gpu.framebuffer import FrameGenerator, KIND_NAMES
from repro.gpu.workloads import GameWorkload
from repro.mem.request import MemRequest
from repro.sim.engine import Simulator
from repro.sim.stats import StatSet

#: accesses processed per activation before yielding to the event loop
CHUNK = 512
QUANTUM = 2048


class RtpRecord:
    """What the FRPU's RTP-information table stores per plane."""

    __slots__ = ("updates", "cycles", "n_rtts", "llc_accesses",
                 "throttle_ticks")

    def __init__(self, updates: int, cycles: int, n_rtts: int,
                 llc_accesses: int, throttle_ticks: int):
        self.updates = updates
        self.cycles = cycles            # GPU cycles to finish the RTP
        self.n_rtts = n_rtts
        self.llc_accesses = llc_accesses
        self.throttle_ticks = throttle_ticks


class FrameRecord:
    __slots__ = ("index", "cycles", "llc_accesses", "rtps",
                 "throttle_ticks", "end_time")

    def __init__(self, index: int, cycles: int, llc_accesses: int,
                 rtps: list[RtpRecord], throttle_ticks: int, end_time: int):
        self.index = index
        self.cycles = cycles            # GPU cycles for the whole frame
        self.llc_accesses = llc_accesses
        self.rtps = rtps
        self.throttle_ticks = throttle_ticks
        self.end_time = end_time


class PassGate:
    """Default no-op throttle gate."""

    def next_issue_time(self, t: int, kind: str = "") -> int:
        return t

    @property
    def active(self) -> bool:
        return False


class GpuPipeline:
    def __init__(self, sim: Simulator, cfg: GpuConfig,
                 workload: GameWorkload, frames: FrameGenerator,
                 llc_send: Callable[[MemRequest], None],
                 on_frame_done: Optional[Callable[[FrameRecord], None]] = None,
                 max_frames: Optional[int] = None, mem_scale: int = 1):
        self.sim = sim
        self.cfg = cfg
        self.workload = workload
        self.frames = frames
        self.llc_send = llc_send
        self.on_frame_done = on_frame_done
        self.max_frames = max_frames
        self.caches = GpuCacheHierarchy(cfg.caches, mem_scale)
        self.gate = PassGate()          # replaced by the ATU when active
        self._issue_gap = max(GPU_CYCLE_TICKS // cfg.issue_rate, 1)

        # walk state
        self._time = 0.0
        self._frame = None
        self._frame_idx = 0
        self._rtp_idx = 0
        self._tile_idx = 0
        self._acc_idx = 0
        self._running = False
        self._stall: Optional[str] = None
        self._pending_send: Optional[tuple[int, str]] = None
        self.outstanding = 0
        self._draining = False
        self._tile_start = 0.0
        self._compute_share = 1.0
        self._last_llc_issue = 0.0
        self.stopped = False
        #: span tracer (None unless the system wires one) — samples
        #: shader/ROP reads at the LLC issue boundary
        self.tracer = None

        # observation state
        self._frame_start = 0.0
        self._rtp_start = 0.0
        self._frame_llc = 0
        self._rtp_llc = 0
        self._frame_throttle = 0.0
        self._rtp_throttle = 0.0
        self._rtp_records: list[RtpRecord] = []
        self.completed_frames: list[FrameRecord] = []

        self.stats = StatSet("gpu")
        s = self.stats
        self._c_llc = s.counter("llc_accesses")
        self._c_llc_reads = s.counter("llc_reads")
        self._c_llc_writes = s.counter("llc_writes")
        self._c_internal = s.counter("internal_accesses")
        self._c_mshr_stall = s.counter("mshr_stalls")
        self._kind_counts = {name: s.counter(f"llc_{name}")
                             for name in KIND_NAMES.values()}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._time = float(self.sim.now)
        self._begin_frame()
        self._schedule()

    def _schedule(self) -> None:
        if self._running or self.stopped:
            return
        self._running = True
        self.sim.at(max(int(self._time), self.sim.now), self._activate)

    def _activate(self) -> None:
        self._running = False
        if self._stall is not None or self.stopped:
            return
        self._time = max(self._time, float(self.sim.now))
        self._run_chunk()

    # -- frame walking -------------------------------------------------------

    def _begin_frame(self) -> None:
        self._frame = self.frames.next_frame(self._frame_idx)
        self._rtp_idx = 0
        self._tile_idx = 0
        self._acc_idx = 0
        self._frame_start = self._time
        self._rtp_start = self._time
        self._frame_llc = 0
        self._rtp_llc = 0
        self._frame_throttle = 0.0
        self._rtp_throttle = 0.0
        self._rtp_records = []
        self._tile_start = self._time
        self._draining = False

    @property
    def frames_completed(self) -> int:
        return len(self.completed_frames)

    @property
    def frame_progress(self) -> float:
        """Fraction of the current frame rendered (lambda in Eq. 2)."""
        if self._frame is None or self._frame.n_rtps == 0:
            return 0.0
        n = self._frame.n_rtps
        rtp = self._frame.rtps[self._rtp_idx] if self._rtp_idx < n else None
        frac_in_rtp = (self._tile_idx / rtp.n_tiles) if rtp else 0.0
        return min((self._rtp_idx + frac_in_rtp) / n, 1.0)

    def current_frame_elapsed_cycles(self) -> float:
        # wall-clock within the frame: the GPU's local time freezes
        # while it is stalled, which is exactly when observers (DynPrio,
        # the FRPU) most need to see time passing
        now = max(self._time, float(self.sim.now))
        return (now - self._frame_start) / GPU_CYCLE_TICKS

    def current_frame_llc_accesses(self) -> int:
        return self._frame_llc

    def current_frame_throttle_cycles(self) -> float:
        return self._frame_throttle / GPU_CYCLE_TICKS

    def current_rtp_records(self) -> list[RtpRecord]:
        return self._rtp_records

    # -- the issue loop ---------------------------------------------------------

    def _run_chunk(self) -> None:
        deadline = self.sim.now + QUANTUM
        budget = CHUNK
        while budget > 0 and not self.stopped:
            if self._draining:
                if self.outstanding > 0:
                    self._stall = "drain"
                    return
                self._finish_frame()
                if self.stopped:
                    return
            frame = self._frame
            rtp = frame.rtps[self._rtp_idx]
            tile = rtp.tiles[self._tile_idx]
            n = tile.n_accesses
            if self._acc_idx == 0:
                self._tile_start = self._time
                # spread the tile's compute across its accesses: the
                # shader/ROP work interleaves with memory issue, so the
                # GPU generates traffic smoothly instead of in bursts
                self._compute_share = tile.compute_ticks / max(n, 1)
            while self._acc_idx < n:
                if budget <= 0 or self._stall is not None:
                    break
                i = self._acc_idx
                self._acc_idx += 1
                budget -= 1
                self._time += self._compute_share
                self._do_access(int(tile.kinds[i]), int(tile.addrs[i]),
                                bool(tile.writes[i]))
            if self._stall is not None:
                return
            if self._acc_idx >= n:
                self._acc_idx = 0
                self._tile_idx += 1
                if self._tile_idx >= rtp.n_tiles:
                    self._end_rtp(rtp)
            if self._time > deadline:
                break
        if not self.stopped:
            self._schedule_at_time()

    def _schedule_at_time(self) -> None:
        if not self._running:
            self._running = True
            self.sim.at(max(int(self._time), self.sim.now), self._activate)

    def _end_rtp(self, rtp) -> None:
        cycles = max(int((self._time - self._rtp_start) / GPU_CYCLE_TICKS), 1)
        self._rtp_records.append(RtpRecord(
            rtp.updates, cycles, rtp.n_tiles, self._rtp_llc,
            int(self._rtp_throttle / GPU_CYCLE_TICKS)))
        self._rtp_start = self._time
        self._rtp_llc = 0
        self._rtp_throttle = 0.0
        self._tile_idx = 0
        self._rtp_idx += 1
        if self._rtp_idx >= self._frame.n_rtps:
            # flush ROP caches, then drain outstanding fills
            for addr, kind in self.caches.flush_rop():
                self._issue_llc(addr, True, kind)
            self._draining = True

    def _finish_frame(self) -> None:
        self._time = max(self._time, float(self.sim.now))
        cycles = max(int((self._time - self._frame_start)
                         / GPU_CYCLE_TICKS), 1)
        rec = FrameRecord(self._frame_idx, cycles, self._frame_llc,
                          self._rtp_records,
                          int(self._frame_throttle / GPU_CYCLE_TICKS),
                          int(self._time))
        self.completed_frames.append(rec)
        if self.on_frame_done is not None:
            self.on_frame_done(rec)
        self._frame_idx += 1
        if self.max_frames is not None and \
                self._frame_idx >= self.max_frames:
            self.stopped = True
            return
        self._begin_frame()

    # -- per-access handling ------------------------------------------------------

    def _do_access(self, kind: int, addr: int, write: bool) -> None:
        self._c_internal.inc()
        needs_read, writebacks = self.caches.access(kind, addr, write)
        kind_name = KIND_NAMES[kind]
        for wb_addr, wb_kind in writebacks:
            self._issue_llc(wb_addr, True, wb_kind)
        if needs_read:
            self._issue_llc(addr, False, kind_name)

    def _issue_llc(self, addr: int, write: bool, kind: str) -> None:
        # GTT port rate: consecutive LLC issues at least issue_gap apart
        t = max(self._time, self._last_llc_issue + self._issue_gap)
        self._last_llc_issue = t
        # ATU gate (the paper's N_G/W_G port disable)
        gated = self.gate.next_issue_time(int(t), kind)
        if gated > t:
            stall = gated - t
            self._frame_throttle += stall
            self._rtp_throttle += stall
            t = gated
        self._time = t
        if not write:
            if self.outstanding >= self.cfg.mshr_entries:
                self._stall = "mshr"
                self._c_mshr_stall.inc()
                # account and retry from the response handler; the access
                # has NOT been sent yet, so remember it
                self._pending_send = (addr, kind)
                return
            self.outstanding += 1
        self._count_llc(write, kind)
        req = MemRequest(addr, write, "gpu", kind,
                         on_done=self._fill_done if not write else None,
                         created_at=int(self._time))
        when = max(int(self._time), self.sim.now)
        tr = self.tracer
        if tr is not None:
            tr.maybe_start(req, when)
            if req.span is not None:
                tr.gauge_record("gpu_outstanding", when, self.outstanding)
        self.sim.at_call(when, self.llc_send, req)

    def _count_llc(self, write: bool, kind: str) -> None:
        self._c_llc.inc()
        self._frame_llc += 1
        self._rtp_llc += 1
        if write:
            self._c_llc_writes.inc()
        else:
            self._c_llc_reads.inc()
        self._kind_counts[kind].inc()

    def _fill_done(self, req: MemRequest) -> None:
        self.outstanding -= 1
        if self._stall == "mshr":
            self._stall = None
            self._time = max(self._time, float(self.sim.now))
            addr, kind = self._pending_send
            self._pending_send = None
            self.outstanding += 1
            self._count_llc(False, kind)
            retry = MemRequest(addr, False, "gpu", kind,
                               on_done=self._fill_done,
                               created_at=int(self._time))
            when = max(int(self._time), self.sim.now)
            tr = self.tracer
            if tr is not None:
                tr.maybe_start(retry, when)
                if retry.span is not None:
                    tr.gauge_record("gpu_outstanding", when,
                                    self.outstanding)
            self.sim.at_call(when, self.llc_send, retry)
            self._schedule_at_time()
        elif self._stall == "drain" and self.outstanding == 0:
            self._stall = None
            self._time = max(self._time, float(self.sim.now))
            self._schedule_at_time()

    # -- metrics ----------------------------------------------------------------

    def guard_state(self) -> dict:
        """Occupancy/stall snapshot for the invariant monitor."""
        return {"outstanding": self.outstanding,
                "mshr_cap": self.cfg.mshr_entries,
                "stall": self._stall,
                "pending_send": self._pending_send is not None,
                "frames": self.frames_completed,
                "stopped": self.stopped}

    def fps_measured(self, gpu_frame_cycles: int) -> float:
        """Mean FPS over completed frames, excluding the first (warm-up)
        frame when there is more than one."""
        frames = self.completed_frames[1:] \
            if len(self.completed_frames) > 1 \
            else self.completed_frames
        if not frames:
            return 0.0
        mean_cycles = sum(f.cycles for f in frames) / len(frames)
        return self.workload.fps_nominal * gpu_frame_cycles / mean_cycles

    def texture_share(self) -> float:
        tex = self._kind_counts["texture"].value
        total = self._c_llc.value
        return tex / total if total else 0.0
