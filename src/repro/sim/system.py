"""Assembly of the heterogeneous CMP out of its parts.

Address map: CPU application ``i`` owns the region starting at
``(1 + i) << 34`` (16 GB apart, so applications never share lines, as in
the paper's multiprogrammed runs); the GPU owns the region at
``8 << 34``.  DRAM channels are line-interleaved, so every region
spreads over both channels and all banks.

Completion: the run stops when every CPU core has committed its
(warm-up + measured) instructions AND the GPU has rendered at least
``scale.min_frames`` frames; the GPU self-stops at ``scale.max_frames``
(early-finishing CPU applications keep running until then, per
Section V-B).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import SystemConfig
from repro.cpu.core import CpuCore
from repro.cpu.spec import profile_for
from repro.cpu.trace import TraceGenerator
from repro.dram.controller import DramSystem
from repro.gpu.framebuffer import FrameGenerator
from repro.gpu.pipeline import GpuPipeline
from repro.gpu.workloads import workload_for
from repro.interconnect.ring import RingInterconnect
from repro.mem.llc import SharedLLC
from repro.mem.request import MemRequest
from repro.mixes import Mix
from repro.sim.engine import Simulator

CPU_REGION_SHIFT = 34
GPU_BASE = 8 << CPU_REGION_SHIFT

#: absolute safety cap on simulated ticks (no experiment needs this much)
MAX_TICKS = 2_000_000_000


class HeterogeneousSystem:
    def __init__(self, cfg: SystemConfig, mix: Mix, policy=None, *,
                 sim: Optional[Simulator] = None, telemetry=None,
                 tracer=None, monitor=None, faults=None):
        if policy is None:
            from repro.policies.baseline import BaselinePolicy
            policy = BaselinePolicy()
        self.cfg = cfg
        self.mix = mix
        self.policy = policy
        # the probes: ``telemetry`` (repro.telemetry.Telemetry),
        # ``tracer`` (repro.spans.SpanTracer), ``monitor``
        # (repro.guard.InvariantMonitor) and ``faults``
        # (repro.faults.FaultPlan), each None by default.  Every one
        # attaches through its ``bind(self)`` once the machine is built
        # (the loop at the end); emitting and stamping sites guard on
        # ``is not None`` / ``req.span``, so a probe-less run takes the
        # exact same code paths and schedules the same events.
        self.telemetry = telemetry
        self.tracer = tracer
        self.monitor = monitor
        # ``sim`` lets tests/benchmarks inject an alternative kernel
        # (e.g. engine.ReferenceSimulator for order-equivalence checks)
        self.sim = Simulator() if sim is None else sim
        n_cpus = mix.n_cpus
        self.ring = RingInterconnect(cfg.ring, max(n_cpus, 1))
        self.ring.wire_clock(lambda: self.sim.now)

        # DRAM
        self.dram = DramSystem(self.sim, cfg.dram,
                               scheduler_factory=policy.scheduler_factory(),
                               line_bytes=cfg.llc.line_bytes)

        # LLC (capacity scaled with the work preset, see Scale.llc_bytes)
        self.llc = SharedLLC(self.sim, cfg.effective_llc(),
                             dram_send=self._dram_send,
                             response_delay=self._response_delay)
        self.llc.back_invalidate = self._back_invalidate

        # the request path every agent sends into; probes interpose on
        # it through tap_send, per side
        self._sends = {"cpu": self._send, "gpu": self._send}

        # CPU cores
        self.cores: list[CpuCore] = []
        for i, spec_id in enumerate(mix.cpu_apps):
            profile = profile_for(spec_id)
            trace = TraceGenerator(
                profile, seed=cfg.seed * 100_003 + spec_id,
                base_addr=(1 + i) << CPU_REGION_SHIFT,
                mem_scale=cfg.scale.mem_scale)
            core = CpuCore(self.sim, cfg.effective_cpu(), i, trace,
                           llc_send=self._send,
                           target_instructions=cfg.scale.cpu_instructions,
                           on_target_reached=self._core_done,
                           warmup_instructions=
                           cfg.scale.warmup_instructions)
            self.cores.append(core)

        # GPU
        self.gpu: Optional[GpuPipeline] = None
        if mix.gpu_app is not None:
            workload = workload_for(mix.gpu_app)
            if cfg.gpu_frontend == "geometry":
                from repro.gpu.geometry import GeometryFrameGenerator
                frame_cls = GeometryFrameGenerator
            elif cfg.gpu_frontend == "procedural":
                frame_cls = FrameGenerator
            else:
                raise ValueError(
                    f"unknown gpu_frontend {cfg.gpu_frontend!r}")
            frames = frame_cls(
                workload, cfg.scale.gpu_frame_cycles, base_addr=GPU_BASE,
                seed=cfg.seed * 7919 + 1,
                mem_scale=cfg.scale.mem_scale)
            # standalone GPU runs render max_frames; heterogeneous runs
            # also stop the GPU at max_frames (CPU may finish earlier)
            self.gpu = GpuPipeline(self.sim, cfg.gpu, workload, frames,
                                   llc_send=self._send,
                                   on_frame_done=self._frame_done,
                                   max_frames=cfg.scale.max_frames,
                                   mem_scale=cfg.scale.mem_scale)

        self._cores_remaining = len(self.cores)
        self._stopped = False
        policy.attach(self)
        # faults first, so the monitor's tap wraps outside the
        # injectors and accounts for what they perturb; the order also
        # fixes where each probe's first event lands in the queue
        for probe in (faults, telemetry, tracer, monitor):
            if probe is not None:
                probe.bind(self)

    # -- the request-path seam ------------------------------------------------

    def tap_send(self, wrap: Callable) -> None:
        """Interpose on the request path: for each side (``"cpu"``,
        ``"gpu"``), ``wrap(send, side)`` returns the hook that replaces
        that side's current send, and every core (or the GPU) is
        pointed at it.  A later tap wraps outside the earlier ones; a
        tap that returns ``send`` unchanged leaves its side alone."""
        gpus = [] if self.gpu is None else [self.gpu]
        for side, agents in (("cpu", self.cores), ("gpu", gpus)):
            send = self._sends[side] = wrap(self._sends[side], side)
            for agent in agents:
                agent.llc_send = send

    # -- interconnect plumbing ------------------------------------------------

    def _send(self, req: MemRequest) -> None:
        d = self.ring.delay(req.source, "llc")
        if req.span is not None:
            self.tracer.gauge_record("ring_queued", self.sim.now,
                                     self.ring.last_queued)
        self.sim.after_call(d, self.llc.access, req)

    def _response_delay(self, req: MemRequest) -> int:
        return self.ring.delay("llc", req.source)

    def _dram_send(self, req: MemRequest) -> None:
        ch = self.dram.channel_of(req.addr)
        d = self.ring.delay("llc", f"mc{ch}")
        if req.on_done is not None:
            orig = req.on_done
            back = self.ring.delay(f"mc{ch}", "llc")

            def delayed(r, _orig=orig, _back=back):
                self.sim.after_call(_back, _orig, r)
            req.on_done = delayed
        self.sim.after_call(d, self.dram.send, req)

    def _back_invalidate(self, owner: str, addr: int) -> bool:
        idx = int(owner[3:])
        if idx < len(self.cores):
            return self.cores[idx].back_invalidate(addr)
        return False

    # -- completion tracking ------------------------------------------------------

    def _core_done(self, core_id: int) -> None:
        self._cores_remaining -= 1
        self._check_done()

    def _frame_done(self, rec) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(
                "frame", tick=rec.end_time, frame=rec.index,
                cycles=rec.cycles, llc_accesses=rec.llc_accesses,
                throttle_cycles=rec.throttle_ticks, n_rtps=len(rec.rtps))
        self._check_done()

    def _check_done(self) -> None:
        if self._stopped:
            return
        cores_ok = self._cores_remaining <= 0
        if self.gpu is None:
            gpu_ok = True
        elif self.cores:
            gpu_ok = (self.gpu.frames_completed >= self.cfg.scale.min_frames
                      or self.gpu.stopped)
        else:
            # standalone GPU: render them all.  The pipeline flags
            # ``stopped`` only after the last frame's callback returns,
            # so also count completed frames — otherwise the run ends by
            # queue drain and the clock (RunResult.ticks) advances to
            # the safety cap instead of the last frame's end time.
            gpu_ok = (self.gpu.stopped or
                      self.gpu.frames_completed >= self.cfg.scale.max_frames)
        if cores_ok and gpu_ok:
            self._stopped = True
            if self.gpu is not None:
                self.gpu.stopped = True
            self.sim.stop()

    # -- running -----------------------------------------------------------------

    def run(self, max_ticks: int = MAX_TICKS) -> "HeterogeneousSystem":
        for core in self.cores:
            core.start()
        if self.gpu is not None:
            self.gpu.start()
        self.sim.run(until=max_ticks)
        if self.monitor is not None:
            self.monitor.verify_final()
        if not self._stopped and self.sim.pending():
            raise RuntimeError(
                f"simulation hit the {max_ticks}-tick safety cap "
                f"(mix={self.mix.name}, policy={self.policy.name})")
        return self

    # -- convenience metrics ---------------------------------------------------------

    def gpu_fps(self) -> float:
        if self.gpu is None:
            return 0.0
        return self.gpu.fps_measured(self.cfg.scale.gpu_frame_cycles)

    def cpu_ipcs(self) -> dict[int, float]:
        return {c.core_id: c.ipc_achieved() for c in self.cores}
