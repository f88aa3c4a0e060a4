"""Bidirectional ring interconnect (Table I: single-cycle hop).

Stops are laid out as ``cpu0..cpuN-1, gpu, llc, mc0, mc1`` on a ring.
A message takes the shorter direction; base latency = hops * hop_ticks.

Two models, selected by ``RingConfig.model``:

* ``"latency"`` (default) — pure hop latency.  The paper's ring is
  never the first-order bottleneck (its contention story is LLC
  capacity + DRAM bandwidth), and this keeps the calibrated baseline.
* ``"contention"`` — each direction is a pipelined channel with a
  finite injection rate: a message occupies its direction's injection
  slot for ``slot_ticks``, so bursts queue behind each other and the
  returned delay includes the queueing.  Used by the NoC sensitivity
  tests and available to downstream experiments.
"""

from __future__ import annotations

from repro.config import RingConfig
from repro.sim.stats import StatSet


class RingInterconnect:
    def __init__(self, cfg: RingConfig, n_cpus: int):
        self.cfg = cfg
        self.model = cfg.model
        self.slot_ticks = cfg.slot_ticks
        self.stops: list[str] = (
            [f"cpu{i}" for i in range(n_cpus)] + ["gpu", "llc", "mc0",
                                                  "mc1"])
        self._index = {name: i for i, name in enumerate(self.stops)}
        self.n = len(self.stops)
        #: ``(src, dst) -> hops`` for every pair of stops, so the
        #: per-message :meth:`delay` is one dict lookup
        self._hops = {(a, b): self.hops(a, b)
                      for a in self.stops for b in self.stops}
        #: next free injection slot per direction (cw / ccw)
        self._free_at = {"cw": 0, "ccw": 0}
        #: queueing component of the most recent contention-model
        #: delay() — read by the span tracer's ring-occupancy gauge
        #: (always 0 under the latency model)
        self.last_queued = 0
        self._now_fn = lambda: 0      # wired by the system when needed
        self.stats = StatSet("ring")
        self._messages = self.stats.counter("messages")
        self._hop_total = self.stats.counter("hops")
        self._queued_ticks = self.stats.counter("queued_ticks")

    def wire_clock(self, now_fn) -> None:
        """Give the contention model access to simulated time."""
        self._now_fn = now_fn

    def hops(self, src: str, dst: str) -> int:
        a, b = self._index[src], self._index[dst]
        d = abs(a - b)
        return min(d, self.n - d)

    def direction(self, src: str, dst: str) -> str:
        a, b = self._index[src], self._index[dst]
        cw = (b - a) % self.n
        return "cw" if cw <= self.n - cw else "ccw"

    def delay(self, src: str, dst: str) -> int:
        """Latency in ticks for one message; updates traffic stats.

        Under the contention model the delay additionally includes the
        wait for the direction's injection slot.
        """
        h = self._hops[src, dst]
        self._messages.value += 1
        self._hop_total.value += h
        base = h * self.cfg.hop_ticks
        if self.model == "latency":
            return base               # last_queued stays 0
        if h == 0:
            self.last_queued = 0
            return base
        now = self._now_fn()
        direction = self.direction(src, dst)
        start = max(now, self._free_at[direction])
        queued = start - now
        self._free_at[direction] = start + self.slot_ticks
        if queued:
            self._queued_ticks.value += queued
        self.last_queued = queued
        return base + queued

    def mean_hops(self) -> float:
        m = self._messages.value
        return self._hop_total.value / m if m else 0.0
