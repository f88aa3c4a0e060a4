"""The paper's proposal.

``ThrottlePolicy(cpu_priority=False)`` — "Throttled" in Fig. 9: FRPU +
ATU only; the DRAM scheduler stays baseline FR-FCFS.

``ThrottlePolicy(cpu_priority=True)`` — "Throttled+CPU priority" /
"ThrotCPUprio": additionally boosts CPU priority in the DRAM access
schedulers while throttling is active (Section III-C).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.qos import QoSController
from repro.dram.schedulers import CpuPriorityScheduler
from repro.policies.base import Policy


class ThrottlePolicy(Policy):
    def __init__(self, cpu_priority: bool = True, target_fps: float = None,
                 correct_throttle: bool = True):
        self.cpu_priority = cpu_priority
        self.target_fps = target_fps
        self.correct_throttle = correct_throttle
        self.name = "throtcpuprio" if cpu_priority else "throttle"
        self.qos: QoSController | None = None
        self._schedulers: list[CpuPriorityScheduler] = []

    def scheduler_factory(self):
        def make(ch: int) -> CpuPriorityScheduler:
            s = CpuPriorityScheduler()
            self._schedulers.append(s)
            return s
        return make

    def attach(self, system) -> None:
        self._system = system
        if system.gpu is None:
            return
        qos_cfg = system.cfg.qos
        if self.target_fps is not None:
            qos_cfg = replace(qos_cfg, target_fps=self.target_fps)
        self.qos = QoSController(
            system.sim, qos_cfg, system.gpu,
            system.cfg.scale.gpu_frame_cycles,
            # the controller boosts every scheduler it is handed
            dram_schedulers=self._schedulers if self.cpu_priority else (),
            correct_throttle=self.correct_throttle,
            telemetry=system.telemetry)
        self.qos.start()
