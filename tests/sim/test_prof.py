"""Tests for the opt-in kernel profiling layer (:mod:`repro.prof`)."""

from __future__ import annotations

from repro import HeterogeneousSystem, default_config, mix
from repro.prof import KernelProfile, owner_of
from repro.sim.engine import Simulator
from repro.sim.metrics import collect


class _Widget:
    name = "widget0"

    def tick(self) -> None:
        pass


class _Anon:
    def tick(self) -> None:
        pass


def _free() -> None:
    pass


def test_owner_of_prefers_name_then_class_then_qualname():
    assert owner_of(_Widget().tick) == "widget0.tick"
    assert owner_of(_Anon().tick) == "_Anon.tick"
    assert owner_of(_free) == "_free"


def test_profiling_is_opt_in():
    sim = Simulator()
    assert sim.profile is None
    prof = sim.enable_profiling()
    assert isinstance(prof, KernelProfile)
    assert sim.enable_profiling() is prof      # idempotent


def test_profile_records_per_owner_counts():
    sim = Simulator()
    prof = sim.enable_profiling()
    w = _Widget()
    for t in range(5):
        sim.at(t, w.tick)
    sim.at_call(9, _Widget.tick, w)            # unbound style, like hot paths
    sim.run()
    assert prof.events == 6
    assert prof.by_owner["widget0.tick"][0] == 5
    assert prof.by_owner["_Widget.tick"][0] == 1
    assert prof.run_time >= prof.event_time >= 0.0
    assert prof.kernel_time >= 0.0


def test_profile_counts_cancelled_skips():
    sim = Simulator()
    prof = sim.enable_profiling()
    evs = [sim.at(1, lambda: None) for _ in range(4)]
    evs[1].cancel()
    evs[2].cancel()
    sim.run()
    assert prof.events == 2
    assert prof.cancelled_seen == 2


def test_as_dict_and_report_render():
    sim = Simulator()
    prof = sim.enable_profiling()
    w = _Widget()
    for t in range(3):
        sim.at(t, w.tick)
    sim.run()
    d = prof.as_dict()
    assert d["events"] == 3
    assert d["owners"]["widget0.tick"]["events"] == 3
    text = prof.report()
    assert "widget0.tick" in text
    assert "kernel profile: 3 events" in text


def test_profiled_mix_end_to_end():
    # cheapest real profiled run: one-CPU mix at smoke scale
    m = mix("W8")
    system = HeterogeneousSystem(
        default_config(scale="smoke", n_cpus=m.n_cpus, seed=1), m)
    prof = system.sim.enable_profiling()
    result = collect(system.run())
    assert result.ticks > 0
    assert prof.events > 0
    # the memory hierarchy must show up by component name
    owners = "\n".join(prof.by_owner)
    assert "SharedLLC" in owners or "llc" in owners
    assert "complete" in owners       # closure-free MemRequest.complete
