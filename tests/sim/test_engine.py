"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import ReferenceSimulator, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.at(10, lambda: log.append("b"))
    sim.at(5, lambda: log.append("a"))
    sim.at(20, lambda: log.append("c"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 20


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    log = []
    for i in range(10):
        sim.at(7, lambda i=i: log.append(i))
    sim.run()
    assert log == list(range(10))


def test_after_is_relative_to_now():
    sim = Simulator()
    times = []
    def chain():
        times.append(sim.now)
        if len(times) < 3:
            sim.after(5, chain)
    sim.after(5, chain)
    sim.run()
    assert times == [5, 10, 15]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.after(-1, lambda: None)


def test_cancel_is_lazy_but_effective():
    sim = Simulator()
    log = []
    ev = sim.at(5, lambda: log.append("x"))
    ev.cancel()
    sim.at(6, lambda: log.append("y"))
    executed = sim.run()
    assert log == ["y"]
    assert executed == 1


def test_run_until_pauses_and_resumes():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append(5))
    sim.at(15, lambda: log.append(15))
    sim.run(until=10)
    assert log == [5]
    assert sim.now == 10
    sim.run()
    assert log == [5, 15]


def test_run_until_advances_clock_on_queue_drain():
    """Regression: ``run(until=N)`` must leave ``now == N`` even when the
    event queue drains early, so wall-clock-derived metrics (ticks, FPS)
    see the full simulated horizon rather than the last event time."""
    sim = Simulator()
    sim.at(3, lambda: None)
    sim.run(until=1_000_000)
    assert sim.now == 1_000_000
    # idempotent: re-running to the same horizon does not move the clock
    sim.run(until=1_000_000)
    assert sim.now == 1_000_000
    # and a later horizon with an empty queue still advances
    sim.run(until=2_000_000)
    assert sim.now == 2_000_000


def _profiled_simulator():
    sim = Simulator()
    sim.enable_profiling()
    return sim


@pytest.mark.parametrize("make", [Simulator, _profiled_simulator,
                                  ReferenceSimulator],
                         ids=["fast", "profiled", "reference"])
def test_run_until_never_moves_the_clock_backwards(make):
    """``run(until=)`` before ``now`` is refused before it touches the
    queue or the clock; ``until == now`` still runs that tick."""
    sim = make()
    log = []
    sim.at(30, lambda: log.append(sim.now))
    sim.run(until=20)
    with pytest.raises(ValueError):
        sim.run(until=5)
    assert sim.now == 20 and sim.pending() == 1 and log == []
    with pytest.raises(ValueError):
        sim.at(6, lambda: log.append(sim.now))      # still the past
    sim.at(20, lambda: log.append(sim.now))
    sim.run(until=20)
    assert log == [20] and sim.now == 20
    sim.run()
    assert log == [20, 30]


def test_stop_does_not_advance_to_until():
    sim = Simulator()
    sim.at(1, lambda: sim.stop())
    sim.run(until=1_000_000)
    assert sim.now == 1


def test_max_events_does_not_advance_to_until():
    sim = Simulator()
    for i in range(10):
        sim.at(i, lambda: None)
    sim.run(until=1_000_000, max_events=4)
    assert sim.now == 3
    assert sim.pending() == 6


def test_stop_exits_immediately():
    sim = Simulator()
    log = []
    sim.at(1, lambda: (log.append(1), sim.stop()))
    sim.at(2, lambda: log.append(2))
    sim.run()
    assert log == [1]
    # remaining event still pending
    assert sim.pending() == 1


def test_max_events():
    sim = Simulator()
    for i in range(10):
        sim.at(i, lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending() == 6


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    log = []
    sim.at(1, lambda: sim.after(1, lambda: log.append("inner")))
    sim.run()
    assert log == ["inner"]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=60))
def test_property_execution_order_is_sorted_stable(times):
    sim = Simulator()
    log = []
    for seq, t in enumerate(times):
        sim.at(t, lambda t=t, seq=seq: log.append((t, seq)))
    sim.run()
    assert log == sorted(log)
    assert len(log) == len(times)


# -- calendar-queue bookkeeping (O(1) pending, lazy-cancel compaction) --

def test_pending_is_live_counter():
    sim = Simulator()
    evs = [sim.at(i, lambda: None) for i in range(10)]
    assert sim.pending() == 10
    evs[3].cancel()
    evs[7].cancel()
    assert sim.pending() == 8
    sim.run(max_events=4)
    assert sim.pending() == 4


def test_double_cancel_counts_once():
    sim = Simulator()
    ev = sim.at(5, lambda: None)
    sim.at(6, lambda: None)
    ev.cancel()
    ev.cancel()
    assert sim.pending() == 1
    assert sim.run() == 1
    assert sim.pending() == 0


def test_cancel_after_execution_is_harmless():
    sim = Simulator()
    log = []
    ev = sim.at(1, lambda: log.append(1))
    sim.at(2, lambda: log.append(2))
    sim.run(until=1)
    ev.cancel()                    # already ran: must not corrupt counters
    assert sim.pending() == 1
    sim.run()
    assert log == [1, 2]
    assert sim.pending() == 0


def test_at_call_and_after_call_pass_argument():
    sim = Simulator()
    log = []
    sim.at_call(5, log.append, "at")
    sim.after_call(7, log.append, "after")
    sim.run()
    assert log == ["at", "after"]
    assert sim.now == 7


def test_call_variants_interleave_with_closures_in_seq_order():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append(0))
    sim.at_call(5, log.append, 1)
    sim.at(5, lambda: log.append(2))
    sim.after_call(5, log.append, 3)
    sim.run()
    assert log == [0, 1, 2, 3]


def test_compaction_drops_cancelled_entries():
    from repro.sim import engine
    sim = Simulator()
    keep = [sim.at(1_000_000, lambda: None) for _ in range(4)]
    doomed = [sim.at(i, lambda: None)
              for i in range(engine._COMPACT_MIN * 3)]
    for ev in doomed:
        ev.cancel()
    assert sim._cancelled == len(doomed)
    sim.run(until=500_000)         # compacts; nothing executes
    assert sim._cancelled == 0
    assert sim._size == len(keep)
    assert sim.pending() == len(keep)
    assert sim.run() == len(keep)


def test_compaction_preserves_order_of_survivors():
    from repro.sim import engine
    sim = Simulator()
    log = []
    events = [sim.at_call(t, log.append, i)
              for i, t in enumerate([5, 5, 5, 9, 9, 2])]
    doomed = [sim.at(1, lambda: None)
              for _ in range(engine._COMPACT_MIN * 3)]
    for ev in doomed:
        ev.cancel()
    sim.run()
    assert log == [5, 0, 1, 2, 3, 4]
    assert (sim._size, sim._cancelled, sim.pending()) == (0, 0, 0)


def test_compaction_keeps_an_emptied_wake_bucket():
    """An ``ensure_tick`` wake survives compaction even when every
    event at that tick was cancelled: a floating re-arm still lands
    there and runs at the wake."""
    from repro.sim import engine
    sim = Simulator()
    wake = 50
    log = []
    ev = engine.Event(0, 0, None, None, None)

    def poll(_arg):
        if sim.now < wake:
            sim.rearm_next(ev)
        else:
            log.append(sim.now)

    ev.fn = poll
    sim.ensure_tick(wake)
    doomed = [sim.at(wake, lambda: None)
              for _ in range(engine._COMPACT_MIN * 3)]
    sim.at(1, lambda: [d.cancel() for d in doomed])
    sim.at(2, lambda: None)
    sim.rearm_next(ev)             # into tick 1, after the cancels
    sim.run()
    assert log == [wake]
    assert (sim._size, sim._cancelled, sim.pending()) == (0, 0, 0)
    sim.ensure_tick(wake + 50)     # nothing lands: not a visit
    sim.run()
    assert sim.now == wake


def test_max_events_zero_runs_one_event():
    # old-kernel edge case, preserved: max_events < 1 still runs one event
    sim = Simulator()
    log = []
    sim.at(1, lambda: log.append(1))
    sim.at(2, lambda: log.append(2))
    assert sim.run(max_events=0) == 1
    assert log == [1]
