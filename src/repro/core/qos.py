"""The QoS controller: FRPU -> ATU -> DRAM CPU-priority (Section III).

Every ``recompute_interval_gpu_cycles`` the controller:

1. asks the FRPU for the projected cycles/frame ``C_P`` (Eq. 3);
2. compares against ``C_T``, the cycles/frame at the target QoS rate
   (40 FPS: the 30 FPS visual-satisfaction floor plus a 10 FPS cushion);
3. if the GPU is faster than the target (``C_P < C_T``), computes the
   throttle ``(N_G, W_G)`` via the Fig. 6 flow, installs the gate on the
   GPU's GTT ports, and boosts CPU priority in the DRAM access
   schedulers it was handed (``throtcpuprio`` hands it all of them,
   ``throttle`` none);
4. otherwise removes the gate and the priority boost — the mix runs in
   baseline mode (the proposal "remains disabled" for GPU applications
   that fail to meet the target FPS).

``C_T`` in scaled cycles: a design-point frame is ``gpu_frame_cycles``
GPU cycles and corresponds to ``fps_nominal``; rendering at ``target_fps``
therefore takes ``gpu_frame_cycles * fps_nominal / target_fps`` cycles.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import GPU_CYCLE_TICKS, QosConfig
from repro.core.atu import AccessThrottlingUnit
from repro.dram.schedulers import CpuPriorityScheduler
from repro.gpu.pipeline import FrameRecord, GpuPipeline, PassGate
from repro.predict import Predictor, make_predictor
from repro.sim.engine import Simulator
from repro.sim.stats import StatSet


class QoSController:
    def __init__(self, sim: Simulator, cfg: QosConfig,
                 pipeline: GpuPipeline, gpu_frame_cycles: int,
                 dram_schedulers: Sequence[CpuPriorityScheduler] = (),
                 correct_throttle: bool = True, telemetry=None):
        self.sim = sim
        self.cfg = cfg
        self.pipeline = pipeline
        self.gpu_frame_cycles = gpu_frame_cycles
        self.dram_schedulers = list(dram_schedulers)
        #: optional repro.telemetry.Telemetry (shared with the FRPU):
        #: ATU updates, gate edges and DRAM priority flips are emitted
        self.telemetry = telemetry
        #: the frame-time predictor behind the FRPU seam
        #: (cfg.predictor selects the implementation; "rtp" is the
        #: paper's Eqs. 1-3 extrapolator).  The attribute keeps its
        #: historical name — metrics, guard and fault injectors all
        #: reach the predictor as ``qos.frpu``.
        self.frpu: Predictor = make_predictor(
            cfg.predictor,
            rtp_entries=cfg.rtp_table_entries,
            verify_threshold=cfg.verify_threshold,
            correct_throttle=correct_throttle, telemetry=telemetry)
        self.atu = AccessThrottlingUnit(wg_step=cfg.wg_step)
        self._pass_gate = PassGate()
        self.throttling = False
        self._interval_ticks = (cfg.recompute_interval_gpu_cycles *
                                GPU_CYCLE_TICKS)
        self.stats = StatSet("qos")
        self._c_recompute = self.stats.counter("recomputes")
        self._c_throttle_on = self.stats.counter("throttle_activations")
        self._c_throttle_off = self.stats.counter("throttle_deactivations")
        self._stopped = False

    # -- target ---------------------------------------------------------------

    @property
    def target_cycles_per_frame(self) -> float:
        w = self.pipeline.workload
        return self.gpu_frame_cycles * w.fps_nominal / self.cfg.target_fps

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self.pipeline.on_frame_done = self._chain_frame_done(
            self.pipeline.on_frame_done)
        self.sim.after(self._interval_ticks, self._tick)

    def stop(self) -> None:
        self._stopped = True
        self._disable()

    def _chain_frame_done(self, prev):
        def handler(rec: FrameRecord) -> None:
            self.frpu.on_frame_complete(rec)
            if not self.frpu.ready:
                # no valid estimate: run unthrottled (paper: steps 2-3
                # are only invoked with a valid estimate)
                self._disable()
            if prev is not None:
                prev(rec)
        return handler

    def _tick(self) -> None:
        if self._stopped or self.pipeline.stopped:
            return
        self.recompute()
        self.sim.after(self._interval_ticks, self._tick)

    # -- the three-step algorithm ---------------------------------------------

    def recompute(self) -> None:
        self._c_recompute.inc()
        c_p = self.frpu.predict_frame_cycles(self.pipeline)
        if c_p is None:
            self._disable()
            return
        c_t = self.target_cycles_per_frame
        a = self.frpu.frame_llc_accesses()
        if c_p >= c_t or a <= 0:
            # estimated frame rate below target: steps 2 and 3 are
            # not invoked
            self.atu.compute(c_p, c_t, max(a, 1))
            self._emit_atu(c_p, c_t, a, active=False)
            self._disable()
            return
        self.atu.compute(c_p, c_t, a)
        self._emit_atu(c_p, c_t, a, active=True)
        self._enable()

    def _emit_atu(self, c_p: float, c_t: float, a: int,
                  active: bool) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(
                "atu_update", tick=self.sim.now, ng=self.atu.ng,
                wg_cycles=self.atu.wg, c_p=c_p, c_t=c_t, a=int(a),
                active=int(active))

    def _enable(self) -> None:
        if not self.throttling:
            self.throttling = True
            self._c_throttle_on.inc()
            if self.telemetry is not None:
                self.telemetry.emit("gate", tick=self.sim.now,
                                    state="open", wg_cycles=self.atu.wg)
                if self.dram_schedulers:
                    self.telemetry.emit("dram_priority", tick=self.sim.now,
                                        mode="cpu_boost", source="qos")
        self.pipeline.gate = self.atu
        for s in self.dram_schedulers:
            s.boost = True

    def _disable(self) -> None:
        if self.throttling:
            self.throttling = False
            self._c_throttle_off.inc()
            if self.telemetry is not None:
                self.telemetry.emit("gate", tick=self.sim.now,
                                    state="closed", wg_cycles=0.0)
                if self.dram_schedulers:
                    self.telemetry.emit("dram_priority", tick=self.sim.now,
                                        mode="normal", source="qos")
        self.atu.reset_gate()
        self.pipeline.gate = self._pass_gate
        for s in self.dram_schedulers:
            s.boost = False

    # -- reporting ------------------------------------------------------------

    def predicted_fps(self) -> Optional[float]:
        return self.frpu.predicted_fps(
            self.pipeline, self.pipeline.workload.fps_nominal,
            self.gpu_frame_cycles)

    def storage_overhead_bits(self) -> int:
        """Section III-D: the hardware budget of the whole mechanism —
        the predictor state (for the reference extrapolator: the RTP
        information table plus the ATU/FRPU working registers, "just
        over a kilobyte of additional storage")."""
        return self.frpu.storage_bits()
