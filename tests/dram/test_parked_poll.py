"""Parked DRAM polls against the literal per-tick re-poll chain.

A lone ``MemoryController`` is driven through a seeded stream of reads
and writes under FR-FCFS, the boosted ``CpuPriorityScheduler`` and SMS,
with refresh on so that parks run into tREFI boundaries.  Each request
enters at one of three positions relative to a parked poll's firing in
its tick:

* ``at`` — scheduled before the run, so it is part of the tick's
  initial contents and precedes a poll the run loop lands after them
  (the kick marks the parked poll dirty);
* ``late`` — scheduled from within its tick, after every poll already
  there (the kick cancels a poll that has run and re-polls at ``now``);
* ``late-prev`` — scheduled at the end of the previous tick, after the
  poll re-armed into the tick, so its bucket is created after the
  re-arm and the poll lands first.

The command log (tick and request of every command) must equal the
same stream's on the legacy path, which keeps the literal per-tick
chain.
"""

import random

import pytest

from repro import hotpath
from repro.config import DramConfig, DramTiming
from repro.dram.controller import MemoryController
from repro.dram.schedulers import (CpuPriorityScheduler, FrFcfsScheduler,
                                   SmsScheduler)
from repro.mem.request import MemRequest
from repro.sim.engine import Simulator

SOURCES = ("cpu0", "cpu1", "gpu")
#: one row of one bank on channel 0 (128 lines at a 2-channel stride)
ROW_SPAN = 8192 // 64 * 128
#: refresh every 400 ticks, busy for 120: many parks meet a boundary
CFG = DramConfig(write_queue=16,
                 timing=DramTiming(t_refi=100, t_rfc=30))
HOW = ("at", "late", "late-prev")


def _scheduler(name: str, seed: int):
    if name == "fr-fcfs":
        return FrFcfsScheduler()
    if name == "cpu-priority":
        sched = CpuPriorityScheduler()
        sched.boost = True
        return sched
    # batches age out within a burst, so parks also happen while
    # draining with an aged batch forming (the drain-writes wake)
    return SmsScheduler(p_sjf=0.5, batch_cap=4, age_limit=40, seed=seed)


def _stream(seed: int, n: int = 500) -> list:
    """``(tick, addr, is_write, source, how)`` over 8 banks x 3 rows,
    in bursts (same-tick arrivals) with gaps that let banks free up."""
    rng = random.Random(seed)
    t = 2
    out = []
    for _ in range(n):
        t += rng.choice((0, 0, 1, 2, 3, 7, 20, 90))
        bank, row, col = rng.randrange(8), rng.randrange(3), rng.randrange(4)
        addr = (row * 8 + bank) * ROW_SPAN + col * 128
        out.append((t, addr, rng.random() < 0.45, rng.choice(SOURCES),
                    rng.choice(HOW)))
    return out


def _drive(name: str, seed: int, batching: bool, stats=None):
    with hotpath.batching(batching):
        sim = Simulator()
        mc = MemoryController(sim, CFG, 0, _scheduler(name, seed))
    commands = []
    service = mc._service

    def logged(entry):
        commands.append((sim.now, entry.req.created_at))
        service(entry)

    mc._service = logged
    if stats is not None:
        kick, park = mc._kick, mc._park

        def counted_kick(t):
            ev = mc._try_event
            if mc._wake is not None and not ev.cancelled:
                stats["dirty" if ev.time <= t else "cancel"] += 1
            kick(t)

        def counted_park(wake):
            park(wake)
            if mc._wake is not None:
                stats["parks"] += 1
                stats["refresh"] += mc._wake % mc.timing.t_refi == 0

        mc._kick, mc._park = counted_kick, counted_park

    def late(req):                     # after every poll of this tick
        sim.after_call(0, mc.enqueue, req)

    def late_prev(req):                # at the very end of the tick
        sim.after_call(0, lambda r: sim.after_call(1, mc.enqueue, r), req)

    for i, (t, addr, is_write, src, how) in enumerate(_stream(seed)):
        req = MemRequest(addr, is_write, src, created_at=i,
                         on_done=lambda r: None)
        if how == "at":
            sim.at_call(t, mc.enqueue, req)
        elif how == "late":
            sim.at_call(t, late, req)
        else:
            sim.at_call(t - 1, late_prev, req)
    sim.run(max_events=500_000)
    assert sim.pending() == 0, "the controller never went idle"
    return mc, commands


@pytest.mark.parametrize("name", ["fr-fcfs", "cpu-priority", "sms"])
def test_parked_polls_serve_the_literal_chain_schedule(name):
    stats = {"parks": 0, "refresh": 0, "dirty": 0, "cancel": 0}
    for seed in range(1, 7):
        fast_mc, fast = _drive(name, seed, True, stats)
        legacy_mc, legacy = _drive(name, seed, False)
        assert fast_mc._fast or fast_mc._fast_sms
        assert not (legacy_mc._fast or legacy_mc._fast_sms)
        assert len(fast) == len(_stream(seed))     # every request served
        assert fast == legacy, f"seed {seed}: command order diverged"
        assert fast_mc.refreshes == legacy_mc.refreshes > 0
    # parks happened, some ran into a tREFI boundary, and enqueues hit
    # both sides of a parked poll's position
    assert min(stats.values()) > 0, stats
