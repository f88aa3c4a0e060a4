"""DASH-lite: deadline-aware memory scheduling for accelerators
(Usui et al., TACO'16 — the paper's reference [40]), simplified.

DASH schedules heterogeneous agents by *urgency*: an accelerator whose
deadline is at risk becomes urgent and is prioritised over CPU cores;
a comfortably-on-track accelerator is deprioritised below them.  Unlike
DynPrio's three fixed modes, DASH uses the *fraction of the deadline
budget consumed relative to progress* as a continuous urgency signal
with hysteresis, and (in the original) per-application awareness of
CPU memory intensity.

The original estimates accelerator progress from profiled worst-case
execution times; the paper notes this reliance on prior profile
information as a drawback (Section IV).  Our substitute uses the same
live progress interface the FRPU exposes — consistent with how the
paper wired DynPrio.

Implemented as an extension policy (``make_policy("dash")``) and
compared in the LLC/scheduler ablations.
"""

from __future__ import annotations

from repro.config import GPU_CYCLE_TICKS
from repro.dram.schedulers import DynPrioScheduler
from repro.policies.base import Policy


class DashPolicy(Policy):
    name = "dash"

    #: urgency hysteresis: become urgent above hi, relax below lo
    URGENT_HI = 1.10
    URGENT_LO = 0.95

    def __init__(self, tick_gpu_cycles: int = 256):
        self.tick_gpu_cycles = tick_gpu_cycles
        self._schedulers: list[DynPrioScheduler] = []
        self.urgent = False
        self.urgency_log: list[float] = []

    def scheduler_factory(self):
        def make(ch: int) -> DynPrioScheduler:
            s = DynPrioScheduler()
            s.mode = "cpu_high"        # non-urgent accelerators yield
            self._schedulers.append(s)
            return s
        return make

    def attach(self, system) -> None:
        self._system = system
        if system.gpu is None:
            return
        w = system.gpu.workload
        self._deadline = (system.cfg.scale.gpu_frame_cycles *
                          w.fps_nominal / system.cfg.qos.target_fps)
        interval = self.tick_gpu_cycles * GPU_CYCLE_TICKS
        system.sim.after_call(interval, self._tick, interval)

    def _urgency(self) -> float:
        """>1: consuming budget faster than progress — deadline at risk."""
        gpu = self._system.gpu
        elapsed = gpu.current_frame_elapsed_cycles()
        progress = max(gpu.frame_progress, 1e-3)
        return (elapsed / self._deadline) / progress

    def _tick(self, interval: int) -> None:
        gpu = self._system.gpu
        if gpu is None or gpu.stopped:
            return
        u = self._urgency()
        self.urgency_log.append(u)
        was_urgent = self.urgent
        if not self.urgent and u >= self.URGENT_HI:
            self.urgent = True
        elif self.urgent and u <= self.URGENT_LO:
            self.urgent = False
        mode = "gpu_high" if self.urgent else "cpu_high"
        if self.urgent != was_urgent:
            now = self._system.sim.now
            self.emit("policy", tick=now, policy=self.name,
                      signal="urgent", value=float(self.urgent))
            self.emit("dram_priority", tick=now, mode=mode,
                      source=self.name)
        for s in self._schedulers:
            s.mode = mode
        self._system.sim.after_call(interval, self._tick, interval)
