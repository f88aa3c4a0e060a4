"""Deterministic discrete-event simulation kernel.

The whole reproduction runs on one :class:`Simulator`: components schedule
callbacks at integer tick times and the kernel executes them in
``(time, sequence)`` order, so ties are broken by scheduling order and every
run is bit-reproducible.

This is the hottest loop in the package, and it is hand-tuned:

* **Calendar queue.**  Events live in per-tick *buckets* (a dict keyed by
  tick) and a binary heap orders only the *distinct* tick values.  Almost
  every delay in the simulated machine is a small constant (1-10 tick ring
  hops, the 10-cycle LLC lookup, 4-tick DRAM command cycles), so most
  schedules land on a tick that already has a bucket — an O(1) list append
  with no comparisons at all.  Only the first event of a tick touches the
  heap, and those comparisons are C-level int compares, never a Python
  ``__lt__``.  Within a bucket, append order *is* ``seq`` order, so
  execution order is exactly the old kernel's ``(time, seq)`` order
  (proven by the golden tests in ``tests/sim/test_engine_golden.py``).

* **Closure-free scheduling.**  :meth:`Simulator.at_call` /
  :meth:`Simulator.after_call` store ``(fn, arg)`` directly in the event's
  slots, so the per-memory-access hot paths (core/GPU -> LLC -> DRAM)
  schedule without allocating a lambda or bound-method closure per event.

* **O(1) bookkeeping.**  ``pending()`` reads a live-event counter that
  :meth:`Event.cancel` and the run loop maintain; cancellation stays lazy,
  and when cancelled entries outnumber live ones the queue is compacted in
  place so long runs with heavy cancellation (DRAM ``_kick`` retimers, ATU
  gating) stay bounded in memory.

* **Exact next-tick re-arm.**  A component that polls once per tick
  while nothing it reads can change (the DRAM controller waiting on a
  busy bank) re-arms through :meth:`Simulator.rearm_next`: the event
  takes the position in tick ``now + 1`` that a literal
  ``at_call(now + 1, ...)`` would give it, but when that tick has no
  bucket it *floats* instead of creating one.  The run loop lands
  floating events into the next bucket it pops — first, if that
  bucket is ``now + 1`` (so it was created after the re-arm), else
  after the bucket's initial contents and before any same-tick
  appends, which is where the chain of literal re-arms through the
  unvisited ticks would have put it.  Ticks that would hold nothing
  but such polls are never visited; the caller names the tick its
  poll must really run at with :meth:`Simulator.ensure_tick`.
  ``tests/sim/test_engine_golden.py`` holds the order to the
  literal per-tick chain of :class:`ReferenceSimulator`.

* **Opt-in profiling.**  ``enable_profiling()`` attaches a
  :class:`repro.prof.KernelProfile`; the default path checks one attribute
  per ``run()`` call — per-event cost is strictly zero when disabled.

:class:`ReferenceSimulator` preserves the previous single-heap kernel
verbatim, with ``rearm_next`` as a literal re-push at ``now + 1``.  It
is not used by the simulator itself; it exists so the equivalence tests
and ``scripts/bench_kernel.py`` can compare order and speed against the
pre-calendar-queue implementation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: sentinel marking "no argument" on plain (closure-carrying) events
_NO_ARG = object()

#: compact when more than this many cancelled entries are enqueued AND
#: they outnumber the live ones (see Simulator._maybe_compact)
_COMPACT_MIN = 64


class Event:
    """A scheduled callback.  ``cancel()`` is O(1) (lazy deletion)."""

    __slots__ = ("time", "seq", "fn", "arg", "sim", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable, arg: Any,
                 sim: Optional["Simulator"]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.arg = arg
        self.sim = sim
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None:
                sim._live -= 1
                sim._cancelled += 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Simulator:
    """Event queue with integer time in ticks (1 tick = 1 CPU cycle).

    Scheduling API:

    * ``at(time, fn)`` / ``after(delay, fn)`` — call ``fn()`` (any
      callable, including closures).
    * ``at_call(time, fn, arg)`` / ``after_call(delay, fn, arg)`` — call
      ``fn(arg)``; the pair is stored in the event's slots, so hot paths
      avoid allocating a closure per scheduled callback.
    * ``rearm_next(ev)`` / ``ensure_tick(time)`` — the exact next-tick
      re-arm of a per-tick poll (module docstring).
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._stop = False
        #: tick -> list of events at that tick, in scheduling (seq) order
        self._buckets: dict[int, list[Event]] = {}
        #: heap of the distinct tick values present in ``_buckets``
        self._times: list[int] = []
        #: events re-armed by :meth:`rearm_next` into tick ``now + 1``
        #: while it had no bucket, in re-arm order; landed by the run
        #: loop into the next bucket it pops
        self._floats: list[Event] = []
        self._live = 0                  # scheduled, not cancelled, not run
        self._cancelled = 0             # cancelled but still enqueued
        self._size = 0                  # enqueued entries, floats included
        #: idle-epoch fast-forward accounting: the run loop advances the
        #: clock bucket-to-bucket, so any gap between consecutive event
        #: ticks is skipped in one heap pop.  ``ff_jumps`` counts the
        #: jumps that crossed at least one empty tick and ``ff_ticks``
        #: the total ticks never visited — evidence that idle intervals
        #: cost O(1), not O(interval).
        self.ff_jumps = 0
        self.ff_ticks = 0
        #: attached :class:`repro.prof.KernelProfile`, or None (default)
        self.profile = None

    # -- scheduling (each variant inlines the push: this is the hot path) --

    def at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute ``time`` (must be >= now)."""
        if time < self.now:
            raise ValueError(f"schedule in the past: {time} < {self.now}")
        self._seq += 1
        t = int(time)
        ev = Event(t, self._seq, fn, _NO_ARG, self)
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [ev]
            heapq.heappush(self._times, t)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1
        return ev

    def after(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        t = self.now + int(delay)
        ev = Event(t, self._seq, fn, _NO_ARG, self)
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [ev]
            heapq.heappush(self._times, t)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1
        return ev

    def at_call(self, time: int, fn: Callable[[Any], None],
                arg: Any) -> Event:
        """Schedule ``fn(arg)`` at absolute ``time`` without a closure."""
        if time < self.now:
            raise ValueError(f"schedule in the past: {time} < {self.now}")
        self._seq += 1
        t = int(time)
        ev = Event(t, self._seq, fn, arg, self)
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [ev]
            heapq.heappush(self._times, t)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1
        return ev

    def after_call(self, delay: int, fn: Callable[[Any], None],
                   arg: Any) -> Event:
        """Schedule ``fn(arg)`` ``delay`` ticks from now, closure-free."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        t = self.now + int(delay)
        ev = Event(t, self._seq, fn, arg, self)
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [ev]
            heapq.heappush(self._times, t)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1
        return ev

    # -- the exact next-tick re-arm ----------------------------------------

    def rearm_next(self, ev: Event) -> None:
        """Re-arm ``ev`` at ``now + 1``, where ``at_call(now + 1, ...)``
        would put it, without creating that tick's bucket.

        ``ev`` is the event that has just run, or a fresh :class:`Event`
        never scheduled — never one that may still sit in a bucket, since
        it would then run twice.  When tick ``now + 1`` has a bucket the
        event is appended to it; otherwise it floats and the run loop
        lands it into the next bucket it pops (see the module docstring).
        A floating event that reaches no visited tick never runs, so the
        caller :meth:`ensure_tick`\\ s the tick it must run at.
        """
        t = self.now + 1
        self._seq += 1
        ev.time = t
        ev.seq = self._seq
        ev.sim = self
        b = self._buckets.get(t)
        if b is None:
            self._floats.append(ev)
        else:
            b.append(ev)
        self._size += 1
        self._live += 1

    def ensure_tick(self, time: int) -> None:
        """Make the run loop visit tick ``time`` even if no event lands
        there: floating events are landed into it.  An empty bucket is
        skipped without moving the clock."""
        if time < self.now:
            raise ValueError(f"ensure a past tick: {time} < {self.now}")
        if time not in self._buckets:
            self._buckets[time] = []
            heapq.heappush(self._times, time)

    def _land(self, bucket: list[Event], t: int) -> None:
        """Move the floating events into ``bucket`` (tick ``t > now``).

        Tick ``now + 1`` got its bucket after the floats' re-arm, so they
        go first; a later bucket held all of its initial contents before
        the unvisited ticks' re-arms, so they go after them.
        """
        floats = self._floats
        for ev in floats:
            ev.time = t
        if t == self.now + 1:
            bucket[:0] = floats
        else:
            bucket += floats
        floats.clear()

    def _settle(self, until: int) -> None:
        """Carry the floats through the unvisited ticks up to ``until``
        (> now): their last re-arm, at ``until``, appends them to tick
        ``until + 1``'s bucket if it has one, else they float on."""
        t = until + 1
        b = self._buckets.get(t)
        if b is not None:
            self._land(b, t)
        else:
            for ev in self._floats:
                ev.time = t

    # -- bookkeeping ------------------------------------------------------

    def pending(self) -> int:
        """Live (scheduled, not cancelled) events — O(1)."""
        return self._live

    def head(self) -> Optional[tuple[int, int]]:
        """``(tick, bucket length)`` of the earliest pending bucket.

        Read-only introspection for diagnostics (the invariant monitor's
        dump); ``None`` when the queue is empty.  While the run loop is
        mid-bucket the executing bucket's tick has already been popped
        from the heap, so this reports the *next* tick.
        """
        if not self._times:
            return None
        t = self._times[0]
        b = self._buckets.get(t)
        return (t, len(b) if b else 0)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stop = True

    def fast_forward_stats(self) -> dict[str, int]:
        """Idle-epoch fast-forward counters (see ``__init__``)."""
        return {"jumps": self.ff_jumps, "ticks_skipped": self.ff_ticks}

    def enable_profiling(self):
        """Attach (and return) a :class:`repro.prof.KernelProfile`.

        Subsequent :meth:`run` calls record per-owner event counts and a
        wall-time breakdown.  Strictly opt-in: when no profile is
        attached the run loop takes the uninstrumented path.
        """
        from repro.prof import KernelProfile
        if self.profile is None:
            self.profile = KernelProfile()
        return self.profile

    def _maybe_compact(self) -> None:
        """Rebuild the queue without cancelled entries.

        Called only from safe points (between buckets in the run loop),
        never while a bucket is being iterated.  An emptied bucket keeps
        its tick — it may be an :meth:`ensure_tick` wake — and the run
        loop skips it without moving the clock, just as if it were gone.
        """
        if self._cancelled < _COMPACT_MIN or \
                self._cancelled * 2 <= self._size:
            return
        size = 0
        for b in self._buckets.values():
            keep = [ev for ev in b if not ev.cancelled]
            if len(keep) != len(b):
                b[:] = keep
            size += len(keep)
        floats = self._floats
        floats[:] = [ev for ev in floats if not ev.cancelled]
        self._size = size + len(floats)
        self._cancelled = 0

    # -- the run loop -----------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` ticks, or ``max_events``.

        When ``until`` is given the clock always reaches it unless the
        run was cut short by ``stop()`` or ``max_events`` — even if the
        queue drains earlier — so consecutive ``run(until=...)`` calls
        observe a consistent clock.  ``until`` before ``now`` raises
        ``ValueError``: the clock never moves backwards.  Returns the
        number of events executed.
        """
        if until is not None and until < self.now:
            raise ValueError(f"run(until={until}) is before now={self.now}")
        if self.profile is not None:
            return self._run_profiled(until, max_events)
        if max_events is not None and max_events < 1:
            max_events = 1            # old kernel ran one event, then cut
        executed = 0
        self._stop = False
        buckets = self._buckets
        times = self._times
        floats = self._floats
        heappop = heapq.heappop
        no_arg = _NO_ARG
        while times:
            if self._cancelled > _COMPACT_MIN:
                self._maybe_compact()
            t = times[0]
            if until is not None and t > until:
                if floats and until > self.now:
                    self._settle(until)
                if until > self.now + 1:
                    self.ff_jumps += 1
                    self.ff_ticks += until - self.now - 1
                self.now = until
                return executed
            heappop(times)
            # the bucket stays in the dict while it executes, so an event
            # scheduling at the current tick appends to it and runs in
            # this same pass, in seq order
            bucket = buckets[t]
            if floats and t > self.now:
                self._land(bucket, t)
            if not bucket:            # emptied by compaction, or a wake
                del buckets[t]        # nothing landed in: not a visit
                continue
            if t > self.now + 1:      # idle epoch: skipped in one pop
                self.ff_jumps += 1
                self.ff_ticks += t - self.now - 1
            self.now = t
            # per-bucket bookkeeping: ``_size``/``_cancelled`` are only
            # read between buckets (compaction) and from ``head()``, so
            # they are folded in once per bucket instead of once per
            # event; ``_live`` backs ``pending()``, which callbacks may
            # read, and stays exact per event
            i = 0
            ncancelled = 0
            while i < len(bucket):
                ev = bucket[i]
                i += 1
                if ev.cancelled:
                    ncancelled += 1
                    continue
                self._live -= 1
                ev.sim = None         # a late cancel() must not recount
                arg = ev.arg
                if arg is no_arg:
                    ev.fn()
                else:
                    ev.fn(arg)
                executed += 1
                if self._stop or executed == max_events:
                    # leave the unexecuted suffix for a later run()
                    del bucket[:i]
                    self._size -= i
                    self._cancelled -= ncancelled
                    if bucket:
                        heapq.heappush(times, t)
                    else:
                        del buckets[t]
                    return executed
            self._size -= i
            self._cancelled -= ncancelled
            del buckets[t]
        if (until is not None and not self._stop and self.now < until):
            # queue drained before the horizon: advance the clock to it
            if floats:
                self._settle(until)
            if until > self.now + 1:
                self.ff_jumps += 1
                self.ff_ticks += int(until) - self.now - 1
            self.now = int(until)
        return executed

    def _run_profiled(self, until: Optional[int],
                      max_events: Optional[int]) -> int:
        """Instrumented twin of :meth:`run` (identical event order)."""
        from time import perf_counter
        from repro.prof import owner_of
        prof = self.profile
        data = prof.by_owner
        t_loop = perf_counter()
        in_events = 0.0
        if max_events is not None and max_events < 1:
            max_events = 1
        executed = 0
        self._stop = False
        buckets = self._buckets
        times = self._times
        floats = self._floats
        heappop = heapq.heappop
        no_arg = _NO_ARG
        try:
            while times:
                if self._cancelled > _COMPACT_MIN:
                    prof.compactions_before = self._cancelled
                    self._maybe_compact()
                t = times[0]
                if until is not None and t > until:
                    if floats and until > self.now:
                        self._settle(until)
                    if until > self.now + 1:
                        self.ff_jumps += 1
                        self.ff_ticks += until - self.now - 1
                    self.now = until
                    return executed
                heappop(times)
                bucket = buckets[t]
                if floats and t > self.now:
                    self._land(bucket, t)
                if not bucket:
                    del buckets[t]
                    continue
                if t > self.now + 1:
                    self.ff_jumps += 1
                    self.ff_ticks += t - self.now - 1
                self.now = t
                i = 0
                ncancelled = 0
                while i < len(bucket):
                    ev = bucket[i]
                    i += 1
                    if ev.cancelled:
                        ncancelled += 1
                        prof.cancelled_seen += 1
                        continue
                    self._live -= 1
                    ev.sim = None
                    arg = ev.arg
                    key = owner_of(ev.fn)
                    t0 = perf_counter()
                    if arg is no_arg:
                        ev.fn()
                    else:
                        ev.fn(arg)
                    dt = perf_counter() - t0
                    in_events += dt
                    cell = data.get(key)
                    if cell is None:
                        data[key] = [1, dt]
                    else:
                        cell[0] += 1
                        cell[1] += dt
                    executed += 1
                    if self._stop or executed == max_events:
                        del bucket[:i]
                        self._size -= i
                        self._cancelled -= ncancelled
                        if bucket:
                            heapq.heappush(times, t)
                        else:
                            del buckets[t]
                        return executed
                self._size -= i
                self._cancelled -= ncancelled
                del buckets[t]
            if (until is not None and not self._stop and self.now < until):
                if floats:
                    self._settle(until)
                if until > self.now + 1:
                    self.ff_jumps += 1
                    self.ff_ticks += int(until) - self.now - 1
                self.now = int(until)
            return executed
        finally:
            prof.events += executed
            prof.event_time += in_events
            prof.run_time += perf_counter() - t_loop


class ReferenceSimulator:
    """The pre-calendar-queue kernel: one global binary heap of events.

    Kept verbatim (modulo the ``at_call``/``after_call`` extension, which
    the rest of the package now schedules through, and ``rearm_next``/
    ``ensure_tick``, here the literal per-tick re-push and a no-op) as
    the golden reference: the equivalence tests prove the calendar-queue
    kernel executes events in exactly this kernel's ``(time, seq)``
    order, and ``scripts/bench_kernel.py`` measures speedup against it.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[Event] = []
        self._seq: int = 0
        self._stop = False

    def at(self, time: int, fn: Callable[[], None]) -> Event:
        if time < self.now:
            raise ValueError(f"schedule in the past: {time} < {self.now}")
        self._seq += 1
        ev = Event(int(time), self._seq, fn, _NO_ARG, None)
        heapq.heappush(self._queue, ev)
        return ev

    def after(self, delay: int, fn: Callable[[], None]) -> Event:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.at(self.now + int(delay), fn)

    def at_call(self, time: int, fn: Callable[[Any], None],
                arg: Any) -> Event:
        if time < self.now:
            raise ValueError(f"schedule in the past: {time} < {self.now}")
        self._seq += 1
        ev = Event(int(time), self._seq, fn, arg, None)
        heapq.heappush(self._queue, ev)
        return ev

    def after_call(self, delay: int, fn: Callable[[Any], None],
                   arg: Any) -> Event:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.at_call(self.now + int(delay), fn, arg)

    def rearm_next(self, ev: Event) -> None:
        """The literal re-arm: push ``ev`` again at ``now + 1``."""
        self._seq += 1
        ev.time = self.now + 1
        ev.seq = self._seq
        heapq.heappush(self._queue, ev)

    def ensure_tick(self, time: int) -> None:
        """Nothing to do: every tick an event sits at is visited."""

    def pending(self) -> int:
        return sum(1 for ev in self._queue if not ev.cancelled)

    def stop(self) -> None:
        self._stop = True

    def enable_profiling(self):
        raise NotImplementedError(
            "profiling is a calendar-queue kernel feature")

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        if until is not None and until < self.now:
            raise ValueError(f"run(until={until}) is before now={self.now}")
        queue = self._queue
        executed = 0
        self._stop = False
        no_arg = _NO_ARG
        while queue:
            ev = heapq.heappop(queue)
            if ev.cancelled:
                continue
            if until is not None and ev.time > until:
                heapq.heappush(queue, ev)  # put it back for a later run()
                self.now = until
                break
            self.now = ev.time
            if ev.arg is no_arg:
                ev.fn()
            else:
                ev.fn(ev.arg)
            executed += 1
            if self._stop:
                break
            if max_events is not None and executed >= max_events:
                break
        if (until is not None and not queue and not self._stop
                and self.now < until):
            self.now = int(until)
        return executed
