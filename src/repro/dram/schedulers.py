"""DRAM access schedulers.

The baseline is FR-FCFS (row hits first, then oldest).  The paper's
proposal optionally boosts CPU priority (:class:`CpuPriorityScheduler`);
the comparison policies are SMS (staged memory scheduler, batch formation
plus a probabilistic shortest-batch-first / round-robin stage) and DynPrio
(deadline-aware priority levels driven by frame progress).

A scheduler sees *issuable* entries (bank ready at ``now``) and picks one.
SMS additionally intercepts read enqueues to form source batches.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.dram.controller import PendingReq, MemoryController


class FrFcfsScheduler:
    """First-ready, first-come-first-served.

    Row hits win, oldest-first among equals.  Like every practical
    FR-FCFS implementation, a starvation cap bounds how long a
    row-miss request can be bypassed by a stream of row hits
    (``starvation_ticks``); without it a row-streaming GPU can starve
    CPU requests indefinitely.
    """

    name = "fr-fcfs"

    def __init__(self, starvation_ticks: int = 400):
        self.starvation_ticks = starvation_ticks

    def on_enqueue(self, entry: "PendingReq") -> bool:
        """Return True if the scheduler consumed the entry (SMS does)."""
        return False

    def select(self, ctrl: "MemoryController",
               candidates: Sequence["PendingReq"]) -> Optional["PendingReq"]:
        if not candidates:
            return None
        now = ctrl.sim.now
        oldest = min(candidates, key=lambda e: e.arrival)
        if now - oldest.arrival >= self.starvation_ticks:
            return oldest
        best = None
        best_key = None
        for e in candidates:
            row_hit = ctrl.banks[e.bank].open_row == e.row
            key = (not row_hit, e.arrival)
            if best_key is None or key < best_key:
                best, best_key = e, key
        return best


class CpuPriorityScheduler(FrFcfsScheduler):
    """FR-FCFS with a dynamic CPU-over-GPU priority boost.

    ``boost`` is flipped by the QoS controller: it is raised only while
    the GPU is being throttled (i.e. it comfortably meets the target
    frame rate), exactly as in Section III-C.
    """

    name = "cpu-priority"

    def __init__(self, starvation_ticks: int = 400) -> None:
        super().__init__(starvation_ticks)
        self.boost = False

    def select(self, ctrl, candidates):
        if not candidates:
            return None
        if not self.boost:
            return super().select(ctrl, candidates)
        # boosted: CPU first; a generous starvation guard keeps gated GPU
        # traffic from livelocking behind an endless CPU stream
        oldest = min(candidates, key=lambda e: e.arrival)
        if ctrl.sim.now - oldest.arrival >= 4 * self.starvation_ticks:
            return oldest
        best = None
        best_key = None
        for e in candidates:
            row_hit = ctrl.banks[e.bank].open_row == e.row
            key = (e.is_gpu, not row_hit, e.arrival)
            if best_key is None or key < best_key:
                best, best_key = e, key
        return best


class DynPrioScheduler(FrFcfsScheduler):
    """Three-level priority driven by GPU frame progress (Jeong et al.).

    ``mode``:
      * ``"cpu_high"`` — GPU ahead of schedule: CPU first (their default)
      * ``"equal"``    — GPU lagging: plain FR-FCFS
      * ``"gpu_high"`` — last 10% of frame time: GPU first
    """

    name = "dynprio"

    def __init__(self, starvation_ticks: int = 400) -> None:
        super().__init__(starvation_ticks)
        self.mode = "equal"

    def select(self, ctrl, candidates):
        if not candidates:
            return None
        mode = self.mode
        best = None
        best_key = None
        for e in candidates:
            row_hit = ctrl.banks[e.bank].open_row == e.row
            if mode == "gpu_high":
                key = (not e.is_gpu, not row_hit, e.arrival)
            elif mode == "cpu_high":
                # soft demotion: GPU row-hits still stream (a full
                # freeze would build an unrecoverable backlog); GPU
                # row-misses yield to all CPU traffic
                key = (e.is_gpu and not row_hit, not row_hit, e.arrival)
            else:
                key = (False, not row_hit, e.arrival)
            if best_key is None or key < best_key:
                best, best_key = e, key
        return best


class _Batch:
    __slots__ = ("source", "entries", "last_row", "opened_at")

    def __init__(self, source: str, opened_at: int):
        self.source = source
        self.entries: list = []
        self.last_row: Optional[tuple[int, int]] = None
        self.opened_at = opened_at


class SmsScheduler:
    """Staged memory scheduler (Ausavarungnirun et al., ISCA'12).

    Stage 1 groups each source's reads into row-local batches; a batch
    closes on a row change, on reaching ``batch_cap``, or after
    ``age_limit`` ticks.  Stage 2 picks the next batch to service:
    shortest-batch-first with probability ``p`` (favours latency-sensitive
    CPU jobs), round-robin otherwise.  Requests are *not visible* to the
    bank scheduler until their batch is released — this batching delay is
    why SMS loses GPU FPS in Figs. 12–13.
    """

    name = "sms"

    def __init__(self, p_sjf: float = 0.9, batch_cap: int = 16,
                 age_limit: int = 2000, seed: int = 7):
        self.p_sjf = p_sjf
        self.batch_cap = batch_cap
        self.age_limit = age_limit
        self._rng = random.Random(seed)
        self._forming: dict[str, _Batch] = {}
        self._ready: list[_Batch] = []
        self._current: Optional[_Batch] = None
        self._rr_next = 0
        #: reads held in batches (forming, released and current) — the
        #: O(1) twin of :meth:`pending_reads`, kept at the two sites
        #: that add or remove batch entries (``on_enqueue``, ``select``)
        #: and cross-checked against the walk by the invariant monitor
        self.held = 0
        self.now_fn = lambda: 0       # wired by the controller

    # -- stage 1: batch formation ------------------------------------------

    def on_enqueue(self, entry) -> bool:
        if entry.is_write:
            return False              # writes use the normal drain path
        src = entry.source
        now = self.now_fn()
        batch = self._forming.get(src)
        rowkey = (entry.bank, entry.row)
        if batch is not None and (
                len(batch.entries) >= self.batch_cap or
                (batch.last_row is not None and batch.last_row != rowkey)):
            self._release(src)
            batch = None
        if batch is None:
            batch = self._forming[src] = _Batch(src, now)
        batch.entries.append(entry)
        batch.last_row = rowkey
        self.held += 1
        return True

    def _release(self, src: str) -> None:
        batch = self._forming.pop(src, None)
        if batch is not None and batch.entries:
            self._ready.append(batch)

    def _expire_old(self) -> None:
        now = self.now_fn()
        for src in [s for s, b in self._forming.items()
                    if now - b.opened_at >= self.age_limit]:
            self._release(src)

    # -- stage 2: batch scheduling ------------------------------------------

    def _next_batch(self) -> Optional[_Batch]:
        self._expire_old()
        if not self._ready:
            # nothing released yet: force-release the oldest forming batch
            if self._forming:
                oldest = min(self._forming, key=lambda s:
                             self._forming[s].opened_at)
                self._release(oldest)
        if not self._ready:
            return None
        if self._rng.random() < self.p_sjf:
            idx = min(range(len(self._ready)),
                      key=lambda i: (len(self._ready[i].entries),
                                     self._ready[i].opened_at))
        else:
            # round-robin between the CPU and GPU *classes* ("enforcing
            # fairness among bandwidth-sensitive CPU and GPU jobs"):
            # alternating over individual sources would starve the GPU
            # behind N CPU cores
            classes = sorted({b.source == "gpu" for b in self._ready})
            want_gpu = classes[self._rr_next % len(classes)]
            self._rr_next += 1
            idx = next(i for i, b in enumerate(self._ready)
                       if (b.source == "gpu") == want_gpu)
        return self._ready.pop(idx)

    def select(self, ctrl, candidates):
        # writes (drain path) still arrive via candidates
        if candidates:
            writes = [e for e in candidates if e.is_write]
            if writes:
                return min(writes, key=lambda e: e.arrival)
        cur = self._current
        if cur is None or not cur.entries:
            cur = self._current = self._next_batch()
            if cur is None:
                return None
        # serve the current batch in order, but only if its bank is ready
        banks = ctrl.banks
        now = ctrl.sim.now
        entry = cur.entries[0]
        if banks[entry.bank].ready_at <= now:
            cur.entries.pop(0)
            self.held -= 1
            return entry
        # head-of-line blocked: the current batch's bank is busy, so
        # fall through to the oldest released batch whose head targets
        # an idle bank (the current batch keeps its position and
        # resumes once its bank frees up)
        for batch in self._ready:
            e = batch.entries[0]
            if banks[e.bank].ready_at <= now:
                batch.entries.pop(0)
                self.held -= 1
                if not batch.entries:
                    self._ready.remove(batch)
                return e
        return None

    def pending_reads(self) -> int:
        """Reads held in batches, counted entry by entry (the
        reference :attr:`held` must always equal)."""
        n = sum(len(b.entries) for b in self._ready)
        n += sum(len(b.entries) for b in self._forming.values())
        if self._current is not None:
            n += len(self._current.entries)
        return n

    def earliest_hint(self) -> Optional[int]:
        """Earliest time a forming batch would age out."""
        if not self._forming:
            return None
        return min(b.opened_at + self.age_limit
                   for b in self._forming.values())
