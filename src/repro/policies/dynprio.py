"""DynPrio (Jeong et al., DAC'12): deadline-aware dynamic priority.

DynPrio tracks frame progress against the target frame time and sets the
DRAM scheduler's priority level:

* GPU ahead of schedule  -> CPU gets priority (``cpu_high``),
* GPU behind schedule    -> equal priority (plain FR-FCFS),
* last 10% of the frame's time budget -> GPU gets priority.

The original uses TBDR-specific progress estimation available only on
mobile GPUs; the paper (and we) substitute our FRPU-style progress — the
pipeline's RTP-walk fraction — as Section VI's evaluation does ("DynPrio
makes use of our frame rate estimation technique").
"""

from __future__ import annotations

from repro.config import GPU_CYCLE_TICKS
from repro.dram.schedulers import DynPrioScheduler
from repro.policies.base import Policy


class DynPrioPolicy(Policy):
    name = "dynprio"

    def __init__(self, tick_gpu_cycles: int = 256):
        self.tick_gpu_cycles = tick_gpu_cycles
        self._schedulers: list[DynPrioScheduler] = []
        self.mode_counts = {"cpu_high": 0, "equal": 0, "gpu_high": 0}

    def scheduler_factory(self):
        def make(ch: int) -> DynPrioScheduler:
            s = DynPrioScheduler()
            self._schedulers.append(s)
            return s
        return make

    def attach(self, system) -> None:
        self._system = system
        if system.gpu is None:
            return
        w = system.gpu.workload
        # frame deadline in GPU cycles at the QoS target, at this
        # game's time scale
        self._deadline = (system.cfg.scale.gpu_frame_cycles *
                          w.fps_nominal / system.cfg.qos.target_fps)
        interval = self.tick_gpu_cycles * GPU_CYCLE_TICKS
        system.sim.after_call(interval, self._tick, interval)

    def _tick(self, interval: int) -> None:
        gpu = self._system.gpu
        if gpu is None or gpu.stopped:
            return
        prev = self._schedulers[0].mode if self._schedulers else None
        elapsed = gpu.current_frame_elapsed_cycles()
        progress = gpu.frame_progress
        if elapsed >= self._deadline:
            # deadline already missed (a below-target GPU application):
            # the GPU "lags behind the target frame rendering time" and
            # gets equal priority — baseline FR-FCFS behaviour
            mode = "equal"
        elif elapsed >= 0.9 * self._deadline:
            mode = "gpu_high"        # last 10% of the time budget
        elif progress * self._deadline < elapsed:
            mode = "equal"           # lagging: GPU promoted to equal
        else:
            mode = "cpu_high"        # ahead of schedule: CPU first
        for s in self._schedulers:
            s.mode = mode
        if mode != prev:
            self.emit("dram_priority", tick=self._system.sim.now,
                      mode=mode, source=self.name)
        self.mode_counts[mode] += 1
        self._system.sim.after_call(interval, self._tick, interval)
