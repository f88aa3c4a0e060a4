"""Unit tests for the fault injectors (no simulations)."""

import pytest

from repro.faults import FaultPlan, FrpuPerturbation, RequestFault, corrupt_file


class FakeReq:
    def __init__(self, kind="load", is_write=False, on_done=lambda r: None):
        self.kind = kind
        self.is_write = is_write
        self.on_done = on_done


class FakeSim:
    def __init__(self):
        self.now = 0
        self.deferred = []

    def after_call(self, delay, fn, *args):
        self.deferred.append((delay, fn, args))


def test_request_fault_validates_arguments():
    with pytest.raises(ValueError):
        RequestFault("explode")
    with pytest.raises(ValueError):
        RequestFault("drop", side="tpu")
    with pytest.raises(ValueError):
        RequestFault("drop", nth=0)


def test_seed_offsets_firing_point_deterministically():
    assert RequestFault("drop", nth=10, seed=5).nth == \
        RequestFault("drop", nth=10, seed=5).nth
    assert RequestFault("drop", nth=10, seed=5).nth != \
        RequestFault("drop", nth=10, seed=6).nth


def test_drop_swallows_exactly_the_nth_read():
    sent = []
    fault = RequestFault("drop", nth=3)       # seed 0: fires on #3
    wrapped = fault.wrap(sent.append, FakeSim(), "cpu", log := [])
    reqs = [FakeReq() for _ in range(5)]
    for r in reqs:
        wrapped(r)
    assert len(sent) == 4 and reqs[2] not in sent
    assert len(log) == 1 and log[0]["action"] == "drop"


def test_writes_and_fire_and_forget_do_not_count():
    sent = []
    fault = RequestFault("drop", nth=1)
    wrapped = fault.wrap(sent.append, FakeSim(), "cpu", [])
    wb = FakeReq(is_write=True)
    silent = FakeReq(on_done=None)
    read = FakeReq()
    for r in (wb, silent, read):
        wrapped(r)
    assert sent == [wb, silent]               # the read was the 1st match


def test_delay_defers_through_the_simulator():
    sent, sim = [], FakeSim()
    fault = RequestFault("delay", nth=1, delay_ticks=123)
    wrapped = fault.wrap(sent.append, sim, "gpu", [])
    req = FakeReq()
    wrapped(req)
    assert not sent
    delay, fn, args = sim.deferred[0]
    assert delay == 123
    fn(*args)
    assert sent == [req]


def test_duplicate_sends_twice():
    sent = []
    wrapped = RequestFault("duplicate", nth=1).wrap(
        sent.append, FakeSim(), "cpu", [])
    req = FakeReq()
    wrapped(req)
    assert sent == [req, req]


class FakeSystem:
    """Just the request-path seam of ``HeterogeneousSystem``."""

    def __init__(self):
        self.sim = FakeSim()
        self.sends = {"cpu": [].append, "gpu": [].append}

    def tap_send(self, wrap):
        for side in self.sends:
            self.sends[side] = wrap(self.sends[side], side)


def test_plan_filters_by_side():
    plan = FaultPlan(RequestFault("drop", side="gpu", nth=1))
    system = FakeSystem()
    cpu, gpu = system.sends["cpu"], system.sends["gpu"]
    plan.bind(system)
    assert system.sends["cpu"] is cpu                  # wrong side
    assert system.sends["gpu"] is not gpu


def test_frpu_perturbation_validates_and_describes():
    with pytest.raises(ValueError):
        FrpuPerturbation(factor=0.0)
    assert "FRPU" in FrpuPerturbation(0.5).describe()
    assert "drop" in FaultPlan(RequestFault("drop")).describe()


def test_corrupt_file_is_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(bytes(range(256)))
    b.write_bytes(bytes(range(256)))
    assert corrupt_file(str(a), seed=3) == corrupt_file(str(b), seed=3)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != bytes(range(256))
