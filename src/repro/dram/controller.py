"""Per-channel memory controller and the multi-channel DRAM system.

Each controller owns one DDR3 channel: per-bank row-buffer state, split
read/write queues with write-drain hysteresis, a shared data bus, and a
pluggable access scheduler (FR-FCFS by default).  Command issue is paced
at one command per DRAM cycle; bank-level parallelism emerges because a
bank only blocks its own next command while the data bus serialises the
actual transfers.

Batched issue path
------------------
``_try_issue`` fires once per DRAM command cycle while work is queued,
and most firings are *no-op polls*: every ready bank is waiting on
something else (typically writes parked below the drain watermark while
reads are outstanding).  The legacy path priced each poll at O(queue) —
a per-entry issuable scan plus a per-entry retry-hint scan.  The batched
path (default, see :mod:`repro.hotpath`) answers both questions in a
*single* O(banks) pass: ``Bank.queued_r``/``queued_w`` mirror exactly
the queue membership the legacy scans walked, so the candidate list,
the selection, *and the retry tick* are all identical.

SMS has its own twin of the fast path.  Its ``select`` is not pure (it
releases batches and draws from its RNG), so it still runs on every
poll; what changes is the work around it.  Every SMS read sits in a
scheduler batch and ``read_q`` stays empty, so ``queued_w`` answers the
write questions and the scheduler's live ``held`` count replaces the
per-batch ``pending_reads`` walk (:meth:`MemoryController._sms_candidates`,
:meth:`MemoryController._sms_retry_hint`).

Parked polls
------------
The poll *cadence* is part of the result: each poll's position in the
kernel's ``(time, seq)`` order decides whether it observes a same-tick
enqueue or completion, so the re-poll chain is semantically visible.
(A sharper hint that skipped the parked-writes re-polls was tried and
measurably diverged the simulation; see
:meth:`MemoryController._batched_poll`.)  Both fast paths keep every
poll of the chain where it is and stop paying for the ones that cannot
do anything.  A no-op whose retry hint is already due would re-poll at
``now + 1`` every tick; instead it *parks* (:meth:`MemoryController._park`)
with the first tick its outcome can change — a bank it waits on frees
up, capped at the next tREFI boundary.  Until then the event only
re-arms through the kernel's exact next-tick re-arm
(:meth:`repro.sim.engine.Simulator.rearm_next`), which costs nothing at
ticks where nothing else runs.  An enqueue before the parked poll's
position in a tick marks it dirty and it runs for real there; one after
it cancels it and polls at ``now``, as with the literal chain.

Each fast path is enabled only under the preconditions that make the
equivalence provable (tFAW disabled — the default configuration — and
either a queue-transparent FR-FCFS-family scheduler or exactly
``SmsScheduler``); anything else takes the legacy path and the literal
per-tick chain.  Bit-identity of the paths is enforced by
``tests/sim/test_hotpath_golden.py`` and ``tests/dram/test_parked_poll.py``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro import hotpath
from repro.config import DRAM_CYCLE_TICKS, DramConfig, LINE_BYTES
from repro.dram.bank import Bank
from repro.dram.schedulers import (CpuPriorityScheduler, DynPrioScheduler,
                                   FrFcfsScheduler, SmsScheduler)
from repro.dram.timing import TimingTicks
from repro.mem.request import MemRequest
from repro.sim.engine import Event, Simulator
from repro.sim.stats import StatSet

#: scheduler types whose ``select`` is pure and whose reads all live in
#: ``read_q`` (``on_enqueue`` never absorbs) — the provable-equivalence
#: precondition for the batched issue path.  Exact types, not
#: ``isinstance``: a subclass may override ``select`` with side effects
#: the batched no-op path would skip.
_BATCH_SAFE_SCHEDULERS = (FrFcfsScheduler, CpuPriorityScheduler,
                          DynPrioScheduler)

#: closure-free completion: ``at_call(t, _COMPLETE, req)`` avoids
#: allocating a ``req.complete`` bound method per served transaction
_COMPLETE = MemRequest.complete


class PendingReq:
    """One queued DRAM transaction (line granularity)."""

    __slots__ = ("req", "row", "bank", "arrival", "is_write", "is_gpu",
                 "source")

    def __init__(self, req: MemRequest, row: int, bank: int, arrival: int):
        self.req = req
        self.row = row
        self.bank = bank
        self.arrival = arrival
        self.is_write = req.is_write
        self.is_gpu = req.is_gpu
        self.source = req.source


class MemoryController:
    def __init__(self, sim: Simulator, cfg: DramConfig, channel_id: int,
                 scheduler=None, *, line_bytes: int = LINE_BYTES):
        self.sim = sim
        self.cfg = cfg
        self.channel_id = channel_id
        self.timing = TimingTicks.from_timing(cfg.timing)
        nbanks = cfg.banks_per_rank * cfg.ranks_per_channel
        self.banks = [Bank(i) for i in range(nbanks)]
        self.scheduler = scheduler if scheduler is not None \
            else FrFcfsScheduler()
        if hasattr(self.scheduler, "now_fn"):
            self.scheduler.now_fn = lambda: self.sim.now
        self.read_q: list[PendingReq] = []
        self.write_q: list[PendingReq] = []
        self.bus_free_at = 0
        self._draining = False
        self._try_event = None
        #: the tick a parked poll next really runs at (None: not parked)
        #: and whether an enqueue landed before its position this tick
        #: (see :meth:`_park`)
        self._wake: Optional[int] = None
        self._dirty = False
        #: rolling ACTIVATE timestamps for the tFAW constraint
        self._act_times: list[int] = []
        self.refreshes = 0
        self._refresh_applied = 0
        #: span tracer (None unless the system wires one); only touched
        #: when the entering request carries a sampled span
        self.tracer = None

        # address mapping (within the channel): row : bank : column : line.
        # The channel-select bits sit at line granularity ("line",
        # "bank-xor") or at row granularity ("row") and are stripped
        # before the bank/row decomposition.
        self._line_shift = line_bytes.bit_length() - 1
        self._chan_bits = max(cfg.channels - 1, 0).bit_length()
        self._strip_shift = (cfg.row_bytes.bit_length() - 1
                             if cfg.mapping == "row"
                             else self._line_shift)
        lines_per_row = cfg.row_bytes // line_bytes
        if lines_per_row < 1 or lines_per_row & (lines_per_row - 1):
            # the shift/mask decomposition below silently corrupts the
            # bank/row mapping for non-power-of-two geometries
            raise ValueError(
                f"row_bytes/line_bytes must be a power of two, got "
                f"{cfg.row_bytes}/{line_bytes}")
        self._col_bits = lines_per_row.bit_length() - 1
        self._col_mask = lines_per_row - 1
        self._bank_bits = (nbanks - 1).bit_length() if nbanks > 1 else 0
        self._bank_mask = nbanks - 1

        # drain watermarks, precomputed once.  ``hi`` rounds *up*: the
        # queue drains when it is at least ``write_drain_hi`` full, and
        # with e.g. 64 * 0.8 = 51.2 the first integer occupancy at or
        # above 80% is 52 — truncation fired one entry early (the
        # off-by-one class this module was audited for).  ``lo`` rounds
        # down for the symmetric reason: draining stops once occupancy
        # is at or below the fraction.
        self._drain_hi = math.ceil(cfg.write_queue * cfg.write_drain_hi)
        self._drain_lo = math.floor(cfg.write_queue * cfg.write_drain_lo)

        batchable = hotpath.use_batching() and self.timing.t_faw <= 0
        #: batched issue path (see module docstring): per-bank counter
        #: scans replace the per-entry queue walks.  Decided once at
        #: construction — the preconditions cannot change mid-run.
        self._fast = (batchable
                      and type(self.scheduler) in _BATCH_SAFE_SCHEDULERS)
        #: the SMS twin (:meth:`_sms_candidates`, :meth:`_sms_retry_hint`)
        #: for the exact ``SmsScheduler`` type, whose ``select`` still
        #: runs every poll (it releases batches and draws from its RNG)
        self._fast_sms = batchable and type(self.scheduler) is SmsScheduler

        self.stats = StatSet(f"mc{channel_id}")
        s = self.stats
        self._served = {("cpu", False): s.counter("cpu_reads"),
                        ("cpu", True): s.counter("cpu_writes"),
                        ("gpu", False): s.counter("gpu_reads"),
                        ("gpu", True): s.counter("gpu_writes")}
        self._lat = {"cpu": s.accumulator("cpu_read_latency"),
                     "gpu": s.accumulator("gpu_read_latency")}
        self.line_bytes = line_bytes

    # -- address mapping -------------------------------------------------

    def _strip_channel(self, addr: int) -> int:
        """Remove the channel-select bits from an address."""
        low = addr & ((1 << self._strip_shift) - 1)
        high = addr >> (self._strip_shift + self._chan_bits)
        return (high << self._strip_shift) | low

    def map_address(self, addr: int) -> tuple[int, int]:
        """(bank index, row) for an address routed to this channel."""
        a = self._strip_channel(addr) >> self._line_shift
        bank = (a >> self._col_bits) & self._bank_mask
        row = a >> (self._col_bits + self._bank_bits)
        if self.cfg.mapping == "bank-xor":
            bank = (bank ^ row) & self._bank_mask
        return bank, row

    # -- queueing -----------------------------------------------------------

    def enqueue(self, req: MemRequest) -> None:
        bank, row = self.map_address(req.addr)
        entry = PendingReq(req, row, bank, self.sim.now)
        b = self.banks[bank]
        b.queued += 1
        if entry.is_write:
            b.queued_w += 1
        else:
            b.queued_r += 1
        if req.span is not None:
            now = self.sim.now
            req.span.stamp("dram_enqueue", now)
            tr = self.tracer
            tr.gauge_record("dram_queue", now, self.queue_depth(),
                            ch=self.channel_id)
            tr.gauge_record("dram_bank_queue", now,
                            self.banks[bank].queued,
                            ch=self.channel_id, bank=bank)
        if req.is_write:
            self.write_q.append(entry)
        elif not self.scheduler.on_enqueue(entry):
            self.read_q.append(entry)
        self._kick(self.sim.now)

    def _pending_reads(self) -> int:
        n = len(self.read_q)
        if isinstance(self.scheduler, SmsScheduler):
            n += self.scheduler.pending_reads()
        return n

    def queue_depth(self) -> int:
        return self._pending_reads() + len(self.write_q)

    # -- issue loop -------------------------------------------------------

    def _kick(self, t: int) -> None:
        t = max(t, self.sim.now)
        ev = self._try_event
        if ev is not None and not ev.cancelled:
            if ev.time <= t:
                if self._wake is not None:
                    # the parked poll has not run this tick yet: it must
                    # run for real at its own position
                    self._dirty = True
                return
            ev.cancel()
            self._wake = None
        # closure-free: ``at_call`` with the plain function avoids a
        # bound-method allocation per (re)arm; profiling still keys it
        # as ``MemoryController._try_issue`` via ``__qualname__``
        self._try_event = self.sim.at_call(t, _TRY_ISSUE, self)

    def _apply_refreshes(self) -> None:
        """All-bank refresh, applied lazily at command-issue time.

        Commands only issue from :meth:`_try_issue`, so folding every
        tREFI boundary crossed since the last issue into the bank state
        here is timing-equivalent to eventing each refresh — and it
        keeps the event queue drainable (no perpetual refresh events).
        """
        t_refi = self.timing.t_refi
        if t_refi <= 0:
            return
        k = self.sim.now // t_refi
        while self._refresh_applied < k:
            self._refresh_applied += 1
            busy_until = self._refresh_applied * t_refi + self.timing.t_rfc
            for b in self.banks:
                b.ready_at = max(b.ready_at, busy_until)
                b.open_row = None
            self.refreshes += 1

    def _faw_blocked(self, entry: PendingReq) -> bool:
        """True if issuing this request's ACTIVATE would violate tFAW."""
        t_faw = self.timing.t_faw
        if t_faw <= 0:
            return False
        if self.banks[entry.bank].row_state(entry.row) == "hit":
            return False               # no ACTIVATE needed
        now = self.sim.now
        self._act_times = [t for t in self._act_times if now - t < t_faw]
        return len(self._act_times) >= 4

    def _issuable(self, q: list[PendingReq]) -> list[PendingReq]:
        now = self.sim.now
        return [e for e in q if self.banks[e.bank].ready_at <= now
                and not self._faw_blocked(e)]

    def _update_drain(self) -> None:
        if not self._draining:
            if len(self.write_q) >= self._drain_hi:
                self._draining = True
        elif len(self.write_q) <= self._drain_lo:
            self._draining = False

    def _try_issue(self) -> None:
        if self._wake is not None:
            if self.sim.now < self._wake and not self._dirty:
                self.sim.rearm_next(self._try_event)     # still a no-op
                return
            self._wake = None
            self._dirty = False
        self._try_event = None
        self._apply_refreshes()
        self._update_drain()
        if self._fast:
            candidates, hint = self._batched_poll()
            if candidates is None:    # the common no-op poll, O(banks)
                if hint is not None:
                    if hint > self.sim.now:
                        self._kick(hint)
                    else:             # re-polls every tick: park it
                        self._park(self._read_wake())
                return
            sel = self.scheduler.select(self, candidates)
        elif self._fast_sms:
            sel = self.scheduler.select(self, self._sms_candidates())
            if sel is None:
                hint = self._sms_retry_hint()
                if hint is not None:
                    if hint > self.sim.now:
                        self._kick(hint)
                    else:             # re-polls every tick: park it
                        self._park(self._sms_wake())
                return
        else:
            sel = self.scheduler.select(self, self._scan_candidates())
        if sel is None:
            hint = self._retry_hint()
            if hint is not None:
                self._kick(max(hint, self.sim.now + 1))
            return
        try:                           # single scan (was: `in` + remove)
            self.read_q.remove(sel)
        except ValueError:
            try:
                self.write_q.remove(sel)
            except ValueError:
                pass                   # SMS batch entries bypass read_q
        self._service(sel)
        self._kick(self.sim.now + DRAM_CYCLE_TICKS)

    def _park(self, wake: int) -> None:
        """Re-arm a no-op poll that would re-poll every tick until
        ``wake``, the first tick its outcome can change.

        Until then each poll reads nothing that changes: no bank it
        waits on frees up, ``_apply_refreshes`` crosses no tREFI
        boundary (the wake is capped at the next one, where the lazy
        refresh turns the chain into a jump) and only an enqueue, which
        calls :meth:`_kick`, touches the queues.  So the parked event
        only re-arms through :meth:`Simulator.rearm_next`, which keeps
        the ``(time, seq)`` position of every poll of the chain: the
        poll at ``wake``, and any an enqueue marks dirty, run for real
        exactly where the literal chain runs them.  One fresh
        :class:`Event` per park, reused only across this park's
        re-arms: :meth:`_kick` may cancel it while it sits in a bucket.
        """
        sim = self.sim
        now = sim.now
        t_refi = self.timing.t_refi
        if t_refi > 0:
            wake = min(wake, (now // t_refi + 1) * t_refi)
        self._wake = wake
        sim.ensure_tick(wake)
        ev = Event(now + 1, 0, _TRY_ISSUE, self, None)
        sim.rearm_next(ev)
        self._try_event = ev

    def _scan_candidates(self) -> list[PendingReq]:
        """The per-entry candidate scan: issuable writes while
        draining, issuable reads, and issuable writes once no read is
        pending.  The legacy path, and the reference the batched ones
        are held to."""
        candidates = []
        if self._draining:
            candidates.extend(self._issuable(self.write_q))
        candidates.extend(self._issuable(self.read_q))
        if not candidates and self.write_q and self._pending_reads() == 0:
            candidates.extend(self._issuable(self.write_q))
        return candidates

    def _batched_poll(self) -> tuple[Optional[list[PendingReq]],
                                     Optional[int]]:
        """One O(banks) pass answering both poll questions at once:
        ``(candidates, retry_hint)``.

        ``candidates`` is exactly the legacy candidate list, or ``None``
        when no eligible bank can accept a command at ``now`` — the
        per-bank ``queued_r``/``queued_w`` counters mirror queue
        membership, so "some ready bank holds eligible work" is
        equivalent to "the per-entry scan would find a candidate".  When
        ``candidates`` is ``None``, ``retry_hint`` is the min
        ``ready_at`` over every queued bank — the *same* value the
        legacy :meth:`_retry_hint` computes per-entry (and ``None`` when
        the queues are empty), so the caller re-arms at the identical
        tick and the poll cadence is byte-for-byte the legacy one.

        The hint is deliberately *not* sharpened to the next
        eligible-issue tick: with writes parked below the drain
        watermark the legacy hint is a ready write bank's past
        ``ready_at``, producing a ``now + 1`` re-poll every tick.  Those
        polls look like no-ops but their scheduled events occupy
        positions in the kernel's ``(time, seq)`` order, so the poll
        that eventually issues can run before or after a same-tick
        enqueue or completion depending on *when it was scheduled* —
        skipping the chain was tried and measurably diverged full-system
        runs.  Cheapening each poll is safe; moving it is not.  So the
        caller *parks* the chain (:meth:`_park`, wake :meth:`_read_wake`):
        every re-poll keeps its position and the ones before the wake
        cost nothing where no other event runs.

        Preconditions (``self._fast``): tFAW disabled (``_issuable``
        degenerates to the ready-bank filter) and a scheduler that
        absorbs nothing at enqueue.
        """
        now = self.sim.now
        banks = self.banks
        best = None
        if self._draining:
            for b in banks:
                if not b.queued:
                    continue
                r = b.ready_at
                if r <= now:      # any queued work is eligible in drain
                    out = [e for e in self.write_q
                           if banks[e.bank].ready_at <= now]
                    out += [e for e in self.read_q
                            if banks[e.bank].ready_at <= now]
                    return out, None
                if best is None or r < best:
                    best = r
            return None, best
        for b in banks:
            if not b.queued:
                continue
            r = b.ready_at
            if best is None or r < best:
                best = r
            if r <= now and b.queued_r:
                return [e for e in self.read_q
                        if banks[e.bank].ready_at <= now], None
        if self.write_q and not self.read_q and best is not None \
                and best <= now:
            out = [e for e in self.write_q
                   if banks[e.bank].ready_at <= now]
            if out:
                return out, None
        return None, best

    def _read_wake(self) -> int:
        """When :meth:`_batched_poll` answers ``(None, hint <= now)``
        reads wait in ``read_q`` while a write bank is ready below the
        drain watermark: the poll stays a no-op until a bank holding a
        read frees up."""
        return min(b.ready_at for b in self.banks if b.queued_r)

    def _sms_candidates(self) -> list[PendingReq]:
        """The legacy candidate list under SMS, from counters.

        SMS absorbs every read into a batch at enqueue, so ``read_q``
        stays empty and the only candidates ``select`` ever receives are
        the issuable writes — while draining, or once the scheduler
        holds no read.  ``queued_w`` mirrors ``write_q`` per bank, so
        "some ready bank has ``queued_w``" is exactly "the per-entry
        scan finds a write"; the common no-op poll (reads held, no
        drain) returns without touching a bank.
        """
        if self.scheduler.held and not self._draining:
            return []
        now = self.sim.now
        banks = self.banks
        for b in banks:
            if b.queued_w and b.ready_at <= now:
                return [e for e in self.write_q
                        if banks[e.bank].ready_at <= now]
        return []

    def _sms_retry_hint(self) -> Optional[int]:
        """:meth:`_retry_hint` under SMS in O(banks): the min of every
        ``queued_w`` bank's ``ready_at``, the current batch's head bank
        and the oldest forming batch's age-out; ``now + 1`` when reads
        are held but none of those exists; ``None`` with nothing
        queued.  That is the value of the per-entry walk, so the poll
        cadence, and with it every SMS RNG draw, is unchanged.

        Preconditions (``self._fast_sms``): tFAW disabled and the exact
        ``SmsScheduler`` type, whose :attr:`~SmsScheduler.held` stands
        in for the per-batch ``pending_reads`` walk.
        """
        sched = self.scheduler
        if not sched.held and not self.write_q:
            return None               # nothing to issue: go idle
        banks = self.banks
        hint = None
        for b in banks:
            if b.queued_w:
                r = b.ready_at
                if hint is None or r < hint:
                    hint = r
        cur = sched._current
        if cur is not None and cur.entries:
            r = banks[cur.entries[0].bank].ready_at
            if hint is None or r < hint:
                hint = r
        if sched._forming:
            # batches open in time order and a re-opened source moves
            # to the back, so the first forming batch is the oldest
            oldest = next(iter(sched._forming.values()))
            age = oldest.opened_at + sched.age_limit
            if hint is None or age < hint:
                hint = age
        if hint is None and sched.held:
            hint = self.sim.now + 1
        return hint

    def _sms_wake(self) -> int:
        """The first tick an SMS no-op re-poll can change.

        A no-op with a due hint leaves a non-empty current batch: one it
        found, or the one ``_next_batch`` just released (with no batch
        at all no read is held, every ready write is a candidate, and a
        no-op's hint is a write bank's future ``ready_at``).  So each
        re-poll takes ``select``'s pure branch — no batch release, no
        RNG draw — and stays a no-op until the current batch's head bank
        or a released batch's head bank frees up, or, while draining, a
        bank holding writes does (writes are no candidates otherwise, as
        reads are held)."""
        sched = self.scheduler
        banks = self.banks
        wake = banks[sched._current.entries[0].bank].ready_at
        for batch in sched._ready:
            r = banks[batch.entries[0].bank].ready_at
            if r < wake:
                wake = r
        if self._draining:
            for b in banks:
                if b.queued_w and b.ready_at < wake:
                    wake = b.ready_at
        return wake

    def _retry_hint(self) -> Optional[int]:
        if self.queue_depth() == 0:
            return None               # nothing to issue: go idle
        hints = []
        for q in (self.read_q, self.write_q):
            for e in q:
                hints.append(self.banks[e.bank].ready_at)
        if self.timing.t_faw > 0 and self._act_times:
            hints.append(self._act_times[0] + self.timing.t_faw)
        if isinstance(self.scheduler, SmsScheduler):
            cur = self.scheduler._current
            if cur is not None and cur.entries:
                hints.append(self.banks[cur.entries[0].bank].ready_at)
            age = self.scheduler.earliest_hint()
            if age is not None:
                hints.append(age)
            if self.scheduler.pending_reads() and not hints:
                hints.append(self.sim.now + 1)
        return min(hints) if hints else None

    def _service(self, entry: PendingReq) -> None:
        bank = self.banks[entry.bank]
        bank.queued -= 1
        if entry.is_write:
            bank.queued_w -= 1
        else:
            bank.queued_r -= 1
        now = max(self.sim.now, bank.ready_at)
        if self.timing.t_faw > 0 and bank.row_state(entry.row) != "hit":
            self._act_times.append(now)
        sp = entry.req.span
        if sp is not None:
            sp.stamp("dram_issue", now)
            if bank.row_state(entry.row) != "hit":
                sp.stamp("bank_act", now)
        _data_start, done = bank.service(
            entry.row, now, self.timing, is_write=entry.is_write,
            open_page=self.cfg.open_page, bus_free_at=self.bus_free_at)
        if sp is not None:
            sp.stamp("dram_data", _data_start)
            sp.stamp("dram_done", done)
        self.bus_free_at = done
        side = "gpu" if entry.is_gpu else "cpu"
        self._served[(side, entry.is_write)].inc()
        if not entry.is_write:
            self._lat[side].add(done - entry.arrival)
            self.sim.at_call(done, _COMPLETE, entry.req)
        elif entry.req.on_done is not None:
            self.sim.at_call(done, _COMPLETE, entry.req)

    # -- stats helpers ----------------------------------------------------

    def guard_state(self) -> dict:
        """Queue-accounting snapshot for the invariant monitor.

        ``bank_queued`` (the sum of the per-bank counters maintained at
        enqueue/service time) must equal ``reads + writes`` — a mismatch
        means a transaction was lost or double-serviced.  ``oldest_age``
        covers *reads* only (writes may legitimately sit below the drain
        watermark for a long time).

        Under SMS, ``sms_walked`` counts the reads in the scheduler's
        batches entry by entry and ``sms_held`` is its live
        :attr:`~SmsScheduler.held` count, which the SMS fast path trusts
        instead of walking; the two must agree.  Both are ``None`` for
        other schedulers.  ``parked_wake`` is the tick a parked poll
        next really runs at (``None`` when not parked); the poll runs
        by then, so a parked wake in the past is a stalled channel.
        Read-only.
        """
        now = self.sim.now
        oldest = min((e.arrival for e in self.read_q), default=None)
        walked = held = None
        if isinstance(self.scheduler, SmsScheduler):
            sched = self.scheduler
            batches = list(sched._ready) + list(sched._forming.values())
            if sched._current is not None:
                batches.append(sched._current)
            walked = 0
            for b in batches:
                walked += len(b.entries)
                for e in b.entries:
                    if oldest is None or e.arrival < oldest:
                        oldest = e.arrival
            held = sched.held
        return {"reads": len(self.read_q) + (walked or 0),
                "writes": len(self.write_q),
                "bank_queued": sum(b.queued for b in self.banks),
                "oldest_age": None if oldest is None else now - oldest,
                "sms_walked": walked,
                "sms_held": held,
                "parked_wake": self._wake}

    def bytes_served(self, side: str, write: bool) -> int:
        return self._served[(side, write)].value * self.line_bytes

    def row_hit_rate(self) -> float:
        hits = sum(b.row_hits for b in self.banks)
        total = hits + sum(b.row_misses + b.row_conflicts
                           for b in self.banks)
        return hits / total if total else 0.0


#: unbound hot-path callback for closure-free ``_kick`` scheduling
#: (``at_call(t, _TRY_ISSUE, self)``) — no bound method per re-arm
_TRY_ISSUE = MemoryController._try_issue


class DramSystem:
    """All channels + line-interleaved channel routing."""

    def __init__(self, sim: Simulator, cfg: DramConfig,
                 scheduler_factory=None, *, line_bytes: int = LINE_BYTES):
        self.sim = sim
        self.cfg = cfg
        if cfg.channels & (cfg.channels - 1):
            raise ValueError("channel count must be a power of two")
        if cfg.mapping not in ("line", "row", "bank-xor"):
            raise ValueError(f"unknown DRAM mapping {cfg.mapping!r}")
        self._chan_mask = cfg.channels - 1
        self._line_shift = line_bytes.bit_length() - 1
        # channel-select bit position: line granularity (default and
        # bank-xor) or row granularity
        if cfg.mapping == "row":
            self._chan_select_shift = (cfg.row_bytes).bit_length() - 1
        else:
            self._chan_select_shift = self._line_shift
        factory = scheduler_factory or (lambda ch: FrFcfsScheduler())
        self.controllers = [
            MemoryController(sim, cfg, ch, factory(ch),
                             line_bytes=line_bytes)
            for ch in range(cfg.channels)
        ]

    def channel_of(self, addr: int) -> int:
        return (addr >> self._chan_select_shift) & self._chan_mask

    def send(self, req: MemRequest) -> None:
        self.controllers[self.channel_of(req.addr)].enqueue(req)

    # -- aggregated stats ----------------------------------------------------

    def bytes_served(self, side: str, write: bool) -> int:
        return sum(c.bytes_served(side, write) for c in self.controllers)

    def reads(self, side: str) -> int:
        return sum(c._served[(side, False)].value for c in self.controllers)

    def writes(self, side: str) -> int:
        return sum(c._served[(side, True)].value for c in self.controllers)

    def mean_read_latency(self, side: str) -> float:
        total = sum(c._lat[side].total for c in self.controllers)
        n = sum(c._lat[side].n for c in self.controllers)
        return total / n if n else 0.0

    def row_hit_rate(self) -> float:
        hits = sum(b.row_hits for c in self.controllers for b in c.banks)
        total = hits + sum(b.row_misses + b.row_conflicts
                           for c in self.controllers for b in c.banks)
        return hits / total if total else 0.0

    def snapshot(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.controllers:
            for k, v in c.stats.snapshot().items():
                out[k] = out.get(k, 0) + v
        return out

    def queue_depth(self) -> int:
        """Total pending transactions across all channels."""
        return sum(c.queue_depth() for c in self.controllers)

    def interval_state(self) -> dict[str, int]:
        """Cumulative per-side data bytes plus the instantaneous queue
        depth — the telemetry sampler differences consecutive snapshots
        into per-interval bandwidth shares.  Read-only."""
        return {"cpu_bytes": (self.bytes_served("cpu", False) +
                              self.bytes_served("cpu", True)),
                "gpu_bytes": (self.bytes_served("gpu", False) +
                              self.bytes_served("gpu", True)),
                "queue_depth": self.queue_depth()}
