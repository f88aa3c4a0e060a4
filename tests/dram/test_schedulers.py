"""Unit tests for the DRAM access schedulers against a real controller."""

from repro.config import DramConfig
from repro.dram.controller import MemoryController
from repro.dram.schedulers import (CpuPriorityScheduler, DynPrioScheduler,
                                   SmsScheduler)
from repro.mem.request import MemRequest
from repro.sim.engine import Simulator


def read(addr, src, order, tag):
    return MemRequest(addr, False, src,
                      on_done=lambda r: order.append(tag))


def _race(scheduler, first, second):
    """Enqueue two same-timing reads and return completion order."""
    sim = Simulator()
    mc = MemoryController(sim, DramConfig(), 0, scheduler)
    order = []
    # two different banks, both closed: only priority differentiates
    row_span = 8192 // 64 * 128
    a = read(0, first, order, first)
    b = read(row_span * 3, second, order, second)
    sim.at(1, lambda: (mc.enqueue(a), mc.enqueue(b)))
    sim.run()
    return order


def test_cpu_priority_boost_reorders_gpu_behind_cpu():
    s = CpuPriorityScheduler()
    s.boost = True
    assert _race(s, "gpu", "cpu0") == ["cpu0", "gpu"]


def test_cpu_priority_without_boost_is_fifo():
    s = CpuPriorityScheduler()
    assert _race(s, "gpu", "cpu0") == ["gpu", "cpu0"]


def test_dynprio_modes():
    s = DynPrioScheduler()
    s.mode = "gpu_high"
    assert _race(s, "cpu0", "gpu") == ["gpu", "cpu0"]
    s2 = DynPrioScheduler()
    s2.mode = "cpu_high"
    assert _race(s2, "gpu", "cpu0") == ["cpu0", "gpu"]
    s3 = DynPrioScheduler()
    s3.mode = "equal"
    assert _race(s3, "gpu", "cpu0") == ["gpu", "cpu0"]   # FCFS tie-break


def test_sms_batches_by_row_and_source():
    sms = SmsScheduler(p_sjf=1.0, batch_cap=4)
    sim = Simulator()
    mc = MemoryController(sim, DramConfig(), 0, sms)
    done = []
    for i in range(6):
        mc.enqueue(read(i * 128, "gpu", done, f"g{i}"))
    # all six are row-local: first batch closes at cap 4
    assert sms.pending_reads() == sms.held == 6
    sim.run()
    assert len(done) == 6
    assert sms.pending_reads() == sms.held == 0


def test_sms_row_change_closes_batch():
    sms = SmsScheduler(p_sjf=1.0, batch_cap=100)
    sim = Simulator()
    mc = MemoryController(sim, DramConfig(), 0, sms)
    done = []
    row_span = 8192 // 64 * 128
    mc.enqueue(read(0, "gpu", done, "a"))
    mc.enqueue(read(row_span * 5, "gpu", done, "b"))   # row change
    assert len(sms._ready) >= 1
    sim.run()
    assert len(done) == 2


def test_sms_shortest_batch_first():
    from repro.dram.schedulers import _Batch
    sms = SmsScheduler(p_sjf=1.0)
    long_b = _Batch("gpu", opened_at=0)
    long_b.entries = ["g1", "g2", "g3"]
    short_b = _Batch("cpu0", opened_at=5)
    short_b.entries = ["c1"]
    sms._ready = [long_b, short_b]
    sms.held = 4                          # the counter matches by hand
    assert sms._next_batch() is short_b   # shortest batch served first
    assert sms._next_batch() is long_b
    # picking a batch serves none of its reads: only select's pops
    # move the counter
    assert sms.held == 4


def test_sms_zero_sjf_alternates_classes():
    sms = SmsScheduler(p_sjf=0.0, batch_cap=2, age_limit=10)
    sim = Simulator()
    mc = MemoryController(sim, DramConfig(), 0, sms)
    done = []
    row_span = 8192 // 64 * 128
    def enqueue_all():
        for i in range(4):
            mc.enqueue(read(i * 128, "gpu", done, "gpu"))
        for i in range(4):
            mc.enqueue(read(row_span * 9 + i * 128, "cpu0", done, "cpu"))
    sim.at(1, enqueue_all)
    sim.run()
    assert len(done) == 8
    # both classes appear in the first half: neither side waits for the
    # other to fully drain
    assert {"gpu", "cpu"} <= set(done[:5])


def test_sms_head_of_line_falls_through_to_ready_batch():
    """Regression: when the current batch's head targets a busy bank,
    SMS must serve the oldest released batch whose head bank is idle
    instead of stalling the whole channel."""
    from types import SimpleNamespace
    from repro.dram.schedulers import _Batch

    banks = {0: SimpleNamespace(ready_at=100),   # busy until t=100
             1: SimpleNamespace(ready_at=0)}     # idle
    ctrl = SimpleNamespace(sim=SimpleNamespace(now=0), banks=banks)

    sms = SmsScheduler()
    cur = _Batch("gpu", opened_at=0)
    cur_entry = SimpleNamespace(bank=0, is_write=False)
    cur.entries = [cur_entry]
    sms._current = cur

    blocked = _Batch("cpu0", opened_at=1)
    blocked.entries = [SimpleNamespace(bank=0, is_write=False)]
    ready = _Batch("cpu1", opened_at=2)
    ready_entry = SimpleNamespace(bank=1, is_write=False)
    ready.entries = [ready_entry]
    sms._ready = [blocked, ready]
    sms.held = 3                          # the counter matches by hand

    picked = sms.select(ctrl, [])
    assert picked is ready_entry          # bypassed the blocked head
    assert ready not in sms._ready        # emptied batch is retired
    assert sms._current is cur            # current batch keeps its slot
    assert cur.entries == [cur_entry]
    assert sms.held == sms.pending_reads() == 2

    # every serviceable head blocked: nothing to issue this cycle
    assert sms.select(ctrl, []) is None
    assert sms.held == 2

    # once the bank frees up, the current batch resumes in order
    banks[0].ready_at = 0
    assert sms.select(ctrl, []) is cur_entry
    assert sms.held == sms.pending_reads() == 1


def test_starvation_guard_in_boost_mode():
    """Even with the boost, ancient GPU requests eventually get served."""
    sim = Simulator()
    s = CpuPriorityScheduler()
    s.boost = True
    mc = MemoryController(sim, DramConfig(), 0, s)
    done = []
    gpu_done = []
    mc.enqueue(MemRequest(0, False, "gpu",
                          on_done=lambda r: gpu_done.append(sim.now)))
    # endless stream of CPU requests
    for i in range(300):
        sim.at(1 + i * 8, (lambda a: (lambda: mc.enqueue(
            read(a, "cpu0", done, "c"))))(128 * (i % 32) + 64 * 2 * 4096))
    sim.run()
    assert gpu_done, "GPU request starved forever under boost"
