"""TAP-lite: TLP-aware LLC management (Lee & Kim, HPCA'12), simplified.

TAP asks whether GPU caching actually helps the GPU: GPGPU/graphics
workloads with ample thread-level parallelism hide memory latency
anyway, so their lines should not displace CPU lines.  The original
uses core sampling and cache block lifetime normalisation; this
reproduction implements the policy's essence on the shared SRRIP LLC:

* sample the GPU's LLC hit rate and its MSHR-stall rate per interval;
* if the GPU is latency-tolerant *and* its hit rate is low, insert GPU
  fills at distant RRPV (immediate eviction candidates), shifting
  capacity to the CPU;
* otherwise leave the baseline SRRIP insertion.

The paper lists TAP among the LLC-management alternatives (Section IV);
it is implemented here as an extension for the LLC-policy ablation.
"""

from __future__ import annotations

from repro.config import GPU_CYCLE_TICKS
from repro.mem.replacement import SRRIP_MAX_RRPV
from repro.policies.base import Policy, require_srrip_llc


class TapPolicy(Policy):
    name = "tap"

    def __init__(self, sample_interval_gpu_cycles: int = 4096,
                 hit_rate_threshold: float = 0.45,
                 stall_tolerance: float = 0.05):
        self.sample_interval = sample_interval_gpu_cycles
        self.hit_rate_threshold = hit_rate_threshold
        self.stall_tolerance = stall_tolerance
        self.demote_gpu = False
        self._last = {"hits": 0, "acc": 0, "stalls": 0, "reads": 0}
        self.samples = 0

    def attach(self, system) -> None:
        require_srrip_llc(self, system)
        self._system = system
        system.llc.fill_rrpv_fn = self._fill_rrpv
        if system.gpu is not None:
            interval = self.sample_interval * GPU_CYCLE_TICKS
            system.sim.after_call(interval, self._sample, interval)

    def _fill_rrpv(self, req):
        if req.is_gpu and self.demote_gpu:
            return SRRIP_MAX_RRPV          # distant: first eviction pick
        return None

    def _sample(self, interval: int) -> None:
        gpu = self._system.gpu
        if gpu is None or gpu.stopped:
            return
        llc = self._system.llc.stats
        cur = {"hits": llc.get("gpu_hits"), "acc": llc.get("gpu_accesses"),
               "stalls": gpu.stats.get("mshr_stalls"),
               "reads": gpu.stats.get("llc_reads")}
        d = {k: cur[k] - self._last[k] for k in cur}
        self._last = cur
        if d["acc"] > 0 and d["reads"] > 0:
            hit_rate = d["hits"] / d["acc"]
            tolerant = (d["stalls"] / d["reads"]) <= self.stall_tolerance
            was = self.demote_gpu
            self.demote_gpu = tolerant and \
                hit_rate < self.hit_rate_threshold
            if self.demote_gpu != was:
                self.emit("policy", tick=self._system.sim.now,
                          policy=self.name, signal="demote_gpu",
                          value=float(self.demote_gpu))
        self.samples += 1
        self._system.sim.after_call(interval, self._sample, interval)
