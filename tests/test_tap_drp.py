"""Tests for the TAP-lite and DRP-lite LLC-management extensions."""

from dataclasses import replace

import pytest

from repro.config import ConfigError, LlcConfig, default_config
from repro.mem.replacement import SRRIP_MAX_RRPV
from repro.mem.request import MemRequest
from repro.mixes import Mix
from repro.policies import make_policy
from repro.policies.drp import DrpPolicy, ReuseBook
from repro.policies.tap import TapPolicy
from repro.sim.system import HeterogeneousSystem


def run(policy, game="Quake4", apps=(403, 462), seed=1):
    cfg = default_config(scale="smoke", n_cpus=len(apps), seed=seed)
    return HeterogeneousSystem(cfg, Mix("t", game, apps), policy).run()


# -- TAP -------------------------------------------------------------------


def test_tap_registry_and_attach():
    pol = make_policy("tap")
    assert isinstance(pol, TapPolicy)
    s = run(pol)
    assert s.llc.fill_rrpv_fn is not None
    assert pol.samples > 0


def test_tap_demotes_only_gpu_when_flagged():
    pol = TapPolicy()
    pol.demote_gpu = True
    assert pol._fill_rrpv(MemRequest(0, False, "gpu", "texture")) == 3
    assert pol._fill_rrpv(MemRequest(0, False, "cpu0", "load")) is None
    pol.demote_gpu = False
    assert pol._fill_rrpv(MemRequest(0, False, "gpu", "texture")) is None


def test_tap_run_completes_and_keeps_gpu_alive():
    pol = make_policy("tap")
    s = run(pol)
    assert s.gpu_fps() > 0
    assert all(c.done for c in s.cores)


# -- DRP -------------------------------------------------------------------


def test_reuse_book_probability_and_decay():
    b = ReuseBook()
    assert b.prob() == 0.5             # no evidence yet
    b.reused, b.dead = 30, 10
    assert b.prob() == 0.75
    b.decay()
    assert (b.reused, b.dead) == (15, 5)


def test_drp_insertion_steering():
    pol = DrpPolicy(hi=0.6, lo=0.2, min_samples=4)
    hot = pol.book("depth")
    hot.reused, hot.dead = 90, 10
    cold = pol.book("texture")
    cold.reused, cold.dead = 1, 99
    thin = pol.book("vertex")          # below min_samples
    thin.reused = 1
    assert pol._fill_rrpv(MemRequest(0, False, "gpu", "depth")) == 0
    assert pol._fill_rrpv(MemRequest(0, False, "gpu", "texture")) == 3
    assert pol._fill_rrpv(MemRequest(0, False, "gpu", "vertex")) is None
    assert pol._fill_rrpv(MemRequest(0, False, "cpu1", "load")) is None


def test_drp_learns_from_live_eviction_stream():
    pol = make_policy("drp")
    s = run(pol, game="HL2", apps=(437, 450))
    assert pol.books                    # observed GPU evictions
    total = sum(b.total for b in pol.books.values())
    assert total > 0
    # render-target classes exist in the books
    assert {"depth", "color", "texture"} & set(pol.books)


def test_drp_run_is_deterministic():
    a = run(make_policy("drp"), seed=5)
    b = run(make_policy("drp"), seed=5)
    assert a.sim.now == b.sim.now
    assert a.gpu_fps() == b.gpu_fps()


# -- both ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["tap", "drp"])
def test_distant_insertion_is_the_llc_srrip_max(name):
    """TAP and DRP insert the GPU lines they mean to evict first at the
    most distant RRPV of the LLC's own SRRIP, the one it evicts from."""
    pol = make_policy(name)
    cfg = default_config(scale="smoke", n_cpus=1)
    system = HeterogeneousSystem(cfg, Mix("t", "Quake4", (403,)), pol)
    llc_max = system.llc.cache.policy.max_rrpv
    assert llc_max == SRRIP_MAX_RRPV == 3       # Table I: two-bit SRRIP
    if name == "tap":
        pol.demote_gpu = True
    else:
        pol.book("texture").dead = pol.min_samples
    assert pol._fill_rrpv(MemRequest(0, False, "gpu", "texture")) == llc_max


@pytest.mark.parametrize("name", ["tap", "drp"])
def test_refuses_an_llc_that_is_not_srrip(name):
    """Under LRU an RRPV override lands in an access stamp (DRP's
    near-MRU 0 would be evicted first), so both refuse at attach."""
    cfg = default_config(scale="smoke", n_cpus=1)
    lru = replace(cfg, llc=LlcConfig(policy="lru"))
    mix = Mix("t", "Quake4", (403,))
    with pytest.raises(ConfigError, match=rf"'{name}'.*llc.policy='lru'"):
        HeterogeneousSystem(lru, mix, make_policy(name))
    system = HeterogeneousSystem(cfg, mix, make_policy(name))
    assert system.llc.fill_rrpv_fn is not None
