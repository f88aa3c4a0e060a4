"""The monitor must catch injected structural bugs — loudly, with a
diagnostic dump naming the failed check."""

import pytest

from repro.config import default_config
from repro.faults import FaultPlan, RequestFault
from repro.guard import InvariantMonitor, InvariantViolation
from repro.mixes import mix
from repro.policies import make_policy
from repro.sim.runner import run_system
from repro.sim.system import HeterogeneousSystem


def _run_faulted(plan, monitor):
    m = mix("W8")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    return run_system(cfg, m, make_policy("throtcpuprio"),
                      monitor=monitor, faults=plan)


def test_duplicate_completion_trips_conservation():
    plan = FaultPlan(RequestFault("duplicate", side="cpu", nth=10))
    with pytest.raises(InvariantViolation) as exc:
        _run_faulted(plan, InvariantMonitor(interval_ticks=1024))
    assert exc.value.check == "request_conservation"
    assert plan.fired() == 1


def test_dropped_request_trips_inflight_age():
    plan = FaultPlan(RequestFault("drop", side="cpu", nth=10))
    monitor = InvariantMonitor(interval_ticks=1024,
                               max_inflight_age=20_000)
    with pytest.raises(InvariantViolation) as exc:
        _run_faulted(plan, monitor)
    assert exc.value.check == "inflight_age"


def test_starved_core_trips_liveness_watchdog():
    """With a generous age limit, the stalled core is caught by the
    liveness/deadlock watchdog once the GPU renders its last frame and
    every progress counter freezes — no fault escapes both nets.

    The drop targets an ifetch (``kind="inst"``): the front end blocks
    on the missing line, so the core makes no further progress at all
    (a dropped data read would just leak one MLP slot).
    """
    plan = FaultPlan(RequestFault("drop", side="cpu", kind="inst",
                                  nth=2))
    monitor = InvariantMonitor(interval_ticks=1024,
                               max_inflight_age=10**9, stall_checks=4)
    with pytest.raises(InvariantViolation) as exc:
        _run_faulted(plan, monitor)
    assert exc.value.check in ("liveness", "deadlock")


def test_desynced_sms_read_count_trips_dram_check():
    """The SMS fast path trusts ``SmsScheduler.held`` instead of
    walking the batches; the monitor's walk must catch a counter that
    drifted from them."""
    m = mix("W8")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    monitor = InvariantMonitor(interval_ticks=1024)
    system = HeterogeneousSystem(cfg, m, make_policy("sms-0.9"),
                                 monitor=monitor)
    sms = system.dram.controllers[0].scheduler

    def desync():
        sms.held += 1

    system.sim.at(5000, desync)
    with pytest.raises(InvariantViolation) as exc:
        system.run()
    assert exc.value.check == "dram"
    assert "SMS live read count" in exc.value.message


def test_missed_dram_wake_trips_dram_check():
    """A parked DRAM poll runs for real at its wake tick; one still
    parked after it means the run loop never visited the wake, and the
    channel would stall in silence."""
    m = mix("M13")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    monitor = InvariantMonitor(interval_ticks=1024)
    system = HeterogeneousSystem(cfg, m, make_policy("baseline"),
                                 monitor=monitor)
    mc = system.dram.controllers[0]

    def miss_wake():
        mc._wake = system.sim.now - 1
        monitor._check()

    system.sim.at(20_000, miss_wake)
    with pytest.raises(InvariantViolation) as exc:
        system.run()
    assert exc.value.check == "dram"
    assert "past its wake tick" in exc.value.message


def test_kernel_check_holds_while_polls_float():
    """Re-armed DRAM polls float between visited ticks; the kernel
    counts them in ``_size`` and ``_live``, so ``_check_kernel`` holds
    right after each one starts floating."""
    m = mix("M13")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    monitor = InvariantMonitor()
    system = HeterogeneousSystem(cfg, m, make_policy("baseline"),
                                 monitor=monitor)
    sim = system.sim
    rearm = sim.rearm_next
    seen = {"floating": 0}

    def checked(ev):
        rearm(ev)
        if sim._floats:
            seen["floating"] += 1
            monitor._check_kernel(sim)

    sim.rearm_next = checked
    system.run()
    assert seen["floating"] > 0


def test_violation_carries_diagnostic_dump():
    plan = FaultPlan(RequestFault("drop", side="cpu", nth=10))
    monitor = InvariantMonitor(interval_ticks=1024,
                               max_inflight_age=20_000)
    with pytest.raises(InvariantViolation) as exc:
        _run_faulted(plan, monitor)
    v = exc.value
    assert v.dump is not None
    text = str(v)
    assert "[inflight_age]" in text
    assert "tick" in text and "llc" in text
    assert v.dump.oldest_inflight          # the leaked request is named


def test_monitor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        InvariantMonitor(interval_ticks=0)
    with pytest.raises(ValueError):
        InvariantMonitor(max_inflight_age=-1)
    with pytest.raises(ValueError):
        InvariantMonitor(stall_checks=0)
