"""Unit tests for the policy layer (registry + attach behaviour)."""

import pytest

from repro.config import default_config
from repro.dram.schedulers import (CpuPriorityScheduler, DynPrioScheduler,
                                   FrFcfsScheduler, SmsScheduler)
from repro.mixes import MIXES_M, MIXES_W, Mix
from repro.policies import POLICY_NAMES, HelmPolicy, make_policy
from repro.policies.cmbal import CmBalGate
from repro.sim.system import HeterogeneousSystem


def test_registry_names():
    for name in POLICY_NAMES:
        assert make_policy(name) is not None
    with pytest.raises(KeyError):
        make_policy("magic")


def test_registry_has_one_name_per_policy():
    assert POLICY_NAMES == ["baseline", "bypass-all", "helm", "sms-0.9",
                            "sms-0", "dynprio", "dash", "cm-bal", "tap",
                            "drp", "throttle", "throtcpuprio", "estimate"]
    for alias in ("bypassall", "sms09", "sms0", "sms", "cmbal", "throt",
                  "throttle+cpuprio", "proposal", "frpu-only", "Baseline"):
        with pytest.raises(KeyError):
            make_policy(alias)
    with pytest.raises(TypeError):
        make_policy("helm", aggressive=False)


def test_scheduler_factories():
    assert isinstance(make_policy("baseline").scheduler_factory()(0),
                      FrFcfsScheduler)
    assert isinstance(make_policy("sms-0.9").scheduler_factory()(0),
                      SmsScheduler)
    assert isinstance(make_policy("dynprio").scheduler_factory()(0),
                      DynPrioScheduler)
    assert isinstance(make_policy("throtcpuprio").scheduler_factory()(0),
                      CpuPriorityScheduler)


def test_sms_variants_probabilities():
    assert make_policy("sms-0.9").p_sjf == 0.9
    assert make_policy("sms-0").p_sjf == 0.0


def test_bypass_all_attaches_llc_hook():
    cfg = default_config(scale="smoke", n_cpus=0)
    pol = make_policy("bypass-all")
    s = HeterogeneousSystem(cfg, Mix("g", "NFS", ()), pol)
    assert s.llc.bypass_fn is not None
    from repro.mem.request import MemRequest
    assert s.llc.bypass_fn(MemRequest(0, False, "gpu", "texture"))


def test_helm_bypasses_shader_kinds_when_tolerant():
    from repro.mem.request import MemRequest
    pol = make_policy("helm")
    pol.tolerant = True
    assert pol._bypass(MemRequest(0, False, "gpu", "texture"))
    assert pol._bypass(MemRequest(0, False, "gpu", "vertex"))
    assert pol._bypass(MemRequest(0, False, "gpu", "color"))  # aggressive
    pol.tolerant = False
    assert not pol._bypass(MemRequest(0, False, "gpu", "texture"))


def test_helm_non_aggressive_spares_rop():
    from repro.mem.request import MemRequest
    pol = HelmPolicy(aggressive=False)
    pol.tolerant = True
    assert pol._bypass(MemRequest(0, False, "gpu", "texture"))
    assert not pol._bypass(MemRequest(0, False, "gpu", "color"))


def test_cmbal_gate_only_delays_texture():
    gate = CmBalGate(base_gap=2, max_level=8)
    gate.level = 2                     # heavily throttled-down
    assert gate.next_issue_time(100, "color") == 100
    assert gate.next_issue_time(100, "depth") == 100
    delays = [gate.next_issue_time(100, "texture") - 100
              for _ in range(100)]
    assert any(d > 0 for d in delays)
    assert any(d == 0 for d in delays)   # only a fraction covered
    frac = sum(1 for d in delays if d > 0) / len(delays)
    assert 0.4 < frac < 0.8


def test_cmbal_gate_transparent_at_full_concurrency():
    gate = CmBalGate(base_gap=2)
    assert gate.next_issue_time(50, "texture") == 50


def test_throttle_policy_names():
    assert make_policy("throttle").name == "throttle"
    assert make_policy("throtcpuprio").name == "throtcpuprio"


def _w8(name, **qos):
    m = MIXES_W["W8"]
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus).with_qos(**qos)
    pol = make_policy(name)
    return HeterogeneousSystem(cfg, m, pol), pol


def test_only_throtcpuprio_hands_qos_the_dram_schedulers():
    _, boosted = _w8("throtcpuprio")
    assert boosted.qos.dram_schedulers == boosted._schedulers != []
    for name in ("throttle", "estimate"):
        _, pol = _w8(name)
        assert pol.qos.dram_schedulers == []


@pytest.mark.parametrize("name", ["dynprio", "dash"])
def test_deadline_follows_the_qos_target(name):
    for fps in (30.0, 50.0):
        s, pol = _w8(name, target_fps=fps)
        assert pol._deadline == pytest.approx(
            s.cfg.scale.gpu_frame_cycles * s.gpu.workload.fps_nominal / fps)


def test_policies_attach_cleanly_without_gpu():
    """Policies must tolerate CPU-only systems (standalone runs)."""
    cfg = default_config(scale="smoke", n_cpus=1)
    for name in ("dynprio", "helm", "cm-bal", "throtcpuprio"):
        pol = make_policy(name)
        s = HeterogeneousSystem(cfg, Mix("c", None, (403,)), pol)
        assert s.gpu is None
