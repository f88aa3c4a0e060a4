"""DRP-lite: dynamic reuse-probability-aware LLC management
(Rai & Chaudhuri, ICS'16 — the paper's reference [31]), simplified.

The original estimates, per GPU access class, the probability that a
cached block is reused before eviction, and steers insertion age (and
promotion) with it.  This reproduction learns exactly that signal from
the live LLC's eviction stream:

    reuse_prob(class) = reused_evictions / all_evictions   (per class)

where *reused* means the line hit at least once after its fill.
Classes above ``hi`` insert near-MRU (RRPV 0); classes below ``lo``
insert at distant RRPV (first eviction candidates); in between, the
baseline SRRIP insertion applies.  The books decay periodically so the
estimates track phase changes.
"""

from __future__ import annotations

from repro.config import GPU_CYCLE_TICKS
from repro.mem.replacement import SRRIP_MAX_RRPV
from repro.policies.base import Policy, require_srrip_llc


class ReuseBook:
    """Per-class eviction-outcome counters with periodic decay."""

    __slots__ = ("reused", "dead")

    def __init__(self):
        self.reused = 0
        self.dead = 0

    @property
    def total(self) -> int:
        return self.reused + self.dead

    def prob(self) -> float:
        return self.reused / self.total if self.total else 0.5

    def decay(self) -> None:
        self.reused //= 2
        self.dead //= 2


class DrpPolicy(Policy):
    name = "drp"

    def __init__(self, hi: float = 0.55, lo: float = 0.20,
                 min_samples: int = 32,
                 decay_interval_gpu_cycles: int = 16384):
        self.hi = hi
        self.lo = lo
        self.min_samples = min_samples
        self.decay_interval = decay_interval_gpu_cycles
        self.books: dict[str, ReuseBook] = {}

    def book(self, kind: str) -> ReuseBook:
        b = self.books.get(kind)
        if b is None:
            b = self.books[kind] = ReuseBook()
        return b

    def attach(self, system) -> None:
        require_srrip_llc(self, system)
        self._system = system
        system.llc.fill_rrpv_fn = self._fill_rrpv
        system.llc.eviction_observer = self._on_eviction
        if system.gpu is not None:
            interval = self.decay_interval * GPU_CYCLE_TICKS
            system.sim.after_call(interval, self._decay, interval)

    # -- learning from the eviction stream ----------------------------------

    def _on_eviction(self, owner: str, kind: str, reused: bool) -> None:
        if owner != "gpu":
            return
        b = self.book(kind)
        if reused:
            b.reused += 1
        else:
            b.dead += 1

    # -- insertion steering ---------------------------------------------------

    def _fill_rrpv(self, req):
        if not req.is_gpu:
            return None
        b = self.book(req.kind)
        if b.total < self.min_samples:
            return None                    # not enough evidence yet
        p = b.prob()
        if p >= self.hi:
            return 0                       # near-MRU: high-reuse class
        if p <= self.lo:
            return SRRIP_MAX_RRPV          # distant: dead-on-arrival
        return None

    def _decay(self, interval: int) -> None:
        gpu = self._system.gpu
        if gpu is None or gpu.stopped:
            return
        now = self._system.sim.now
        for kind in sorted(self.books):
            b = self.books[kind]
            if b.total >= self.min_samples:
                self.emit("policy", tick=now, policy=self.name,
                          signal=f"reuse_prob.{kind}", value=b.prob())
            b.decay()
        self._system.sim.after_call(interval, self._decay, interval)
