"""Differential test: the SMS fast issue path against the per-entry walks.

A ``MemoryController`` with an ``SmsScheduler`` is driven through a
seeded random stream of reads and writes.  Around every poll the
counter-based answers must equal the per-entry ones:

* before it, ``_sms_candidates`` equals ``_scan_candidates``;
* after it, the live ``held`` count equals the per-batch
  ``pending_reads`` walk, and ``_sms_retry_hint`` equals ``_retry_hint``.

The completion log must also match the same stream on the legacy path.
"""

import random

import pytest

from repro import hotpath
from repro.config import DramConfig, DramTiming
from repro.dram import controller as controller_mod
from repro.dram.controller import MemoryController
from repro.dram.schedulers import SmsScheduler
from repro.mem.request import MemRequest
from repro.sim.engine import Simulator

SOURCES = ("cpu0", "cpu1", "cpu2", "gpu")
#: one row of one bank on channel 0 (128 lines at a 2-channel stride)
ROW_SPAN = 8192 // 64 * 128


def _stream(seed: int, n: int = 600) -> list[tuple[int, int, bool, str]]:
    """``(tick, addr, is_write, source)`` over 8 banks x 3 rows, with
    bursts (same-tick arrivals) and gaps long enough to age batches."""
    rng = random.Random(seed)
    t = 1
    out = []
    for _ in range(n):
        t += rng.choice((0, 0, 1, 2, 5, 17, 60, 400))
        bank, row, col = rng.randrange(8), rng.randrange(3), rng.randrange(4)
        addr = (row * 8 + bank) * ROW_SPAN + col * 128
        out.append((t, addr, rng.random() < 0.35, rng.choice(SOURCES)))
    return out


def _drive(seed: int, batching: bool) -> tuple[MemoryController, list]:
    with hotpath.batching(batching):
        sim = Simulator()
        sms = SmsScheduler(p_sjf=0.5, batch_cap=4, age_limit=300,
                           seed=seed)
        mc = MemoryController(sim, DramConfig(write_queue=16), 0, sms)
    log = []
    for i, (t, addr, is_write, src) in enumerate(_stream(seed)):
        req = MemRequest(addr, is_write, src,
                         on_done=lambda r, i=i: log.append((i, sim.now)))
        sim.at_call(t, mc.enqueue, req)
    # bounded: a read count that never returns to zero re-polls forever
    sim.run(max_events=500_000)
    assert sim.pending() == 0, "the controller never went idle"
    return mc, log


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_counters_match_walks_after_every_poll(seed, monkeypatch):
    seen = {"polls": 0, "drain": 0, "writes_offered": 0, "aged": 0}
    real_poll = controller_mod._TRY_ISSUE

    def checked_poll(mc):
        mc._apply_refreshes()          # both idempotent within a tick:
        mc._update_drain()             # the poll sees the same state
        fast = mc._sms_candidates()
        assert fast == mc._scan_candidates()
        seen["drain"] += mc._draining
        seen["writes_offered"] += bool(fast)
        real_poll(mc)
        sms = mc.scheduler
        assert sms.held == sms.pending_reads()
        hint = mc._sms_retry_hint()
        assert hint == mc._retry_hint()
        seen["aged"] += hint is not None and hint == sms.earliest_hint()
        seen["polls"] += 1

    monkeypatch.setattr(controller_mod, "_TRY_ISSUE", checked_poll)
    mc, log = _drive(seed, batching=True)

    assert mc._fast_sms
    assert len(log) == len(_stream(seed))      # every request completed
    assert mc.scheduler.held == 0 and not mc.write_q
    # the stream exercised every branch the counters stand in for
    assert seen["polls"] > len(log)
    assert seen["drain"] and seen["writes_offered"] and seen["aged"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fast_path_serves_the_legacy_schedule(seed):
    fast_mc, fast = _drive(seed, batching=True)
    legacy_mc, legacy = _drive(seed, batching=False)
    assert fast_mc._fast_sms and not legacy_mc._fast_sms
    assert fast == legacy


def test_fast_path_preconditions():
    sim = Simulator()

    def fast(scheduler, cfg=DramConfig()):
        return MemoryController(sim, cfg, 0, scheduler)._fast_sms

    class Derived(SmsScheduler):
        pass

    assert fast(SmsScheduler())
    assert not fast(Derived())                 # exact type only
    assert not fast(SmsScheduler(),
                    DramConfig(timing=DramTiming(t_faw=20)))
    with hotpath.batching(False):
        assert not fast(SmsScheduler())
