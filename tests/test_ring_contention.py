"""Tests for the contention ring model and the DASH policy extension."""

import pytest
from dataclasses import replace

from repro.config import RingConfig, default_config
from repro.interconnect.ring import RingInterconnect
from repro.mixes import MIXES_M, MIXES_W
from repro.policies import make_policy
from repro.policies.dash import DashPolicy
from repro.sim.system import HeterogeneousSystem


# -- ring ---------------------------------------------------------------


def test_latency_model_ignores_bursts():
    r = RingInterconnect(RingConfig(), n_cpus=2)
    d = [r.delay("cpu0", "llc") for _ in range(10)]
    assert len(set(d)) == 1


def test_contention_model_queues_bursts():
    r = RingInterconnect(RingConfig(model="contention", slot_ticks=4),
                         n_cpus=2)
    now = [100]
    r.wire_clock(lambda: now[0])
    first = r.delay("cpu0", "llc")
    second = r.delay("cpu1", "llc")       # same direction, same instant
    assert second > first - 2             # queued behind the first
    assert r.stats.get("queued_ticks") > 0
    # once time passes, the slot frees
    now[0] = 1000
    assert r.delay("cpu0", "llc") == r.hops("cpu0", "llc")


def test_contention_directions_independent():
    r = RingInterconnect(RingConfig(model="contention", slot_ticks=8),
                         n_cpus=4)
    r.wire_clock(lambda: 0)
    d_cw = r.direction("cpu0", "cpu1")
    d_ccw = r.direction("cpu1", "cpu0")
    assert d_cw != d_ccw
    a = r.delay("cpu0", "cpu1")
    b = r.delay("cpu1", "cpu0")           # opposite direction: no queue
    assert b == r.hops("cpu1", "cpu0")


def test_unknown_ring_model_rejected():
    with pytest.raises(ValueError):
        RingConfig(model="mesh")


def test_system_runs_with_contention_ring():
    cfg = default_config("smoke", n_cpus=1)
    cfg = replace(cfg, ring=replace(cfg.ring, model="contention"))
    s = HeterogeneousSystem(cfg, MIXES_W["W8"]).run()
    assert s.gpu_fps() > 0
    assert s.ring.stats.get("queued_ticks") >= 0


# -- DASH ------------------------------------------------------------------


def test_dash_registry():
    assert isinstance(make_policy("dash"), DashPolicy)


def test_dash_tracks_urgency_and_completes():
    pol = DashPolicy()
    cfg = default_config("smoke", n_cpus=4)
    s = HeterogeneousSystem(cfg, MIXES_M["M7"], pol).run()
    assert pol.urgency_log
    assert all(u > 0 for u in pol.urgency_log)
    assert s.gpu_fps() > 0
    assert all(c.done for c in s.cores)


def test_dash_protects_slow_gpu():
    """A below-target GPU is permanently urgent: DASH must not slow it
    below a fair-share baseline."""
    base = HeterogeneousSystem(default_config("smoke", n_cpus=4),
                               MIXES_M["M6"]).run()
    pol = DashPolicy()
    dash = HeterogeneousSystem(default_config("smoke", n_cpus=4),
                               MIXES_M["M6"], pol).run()
    assert dash.gpu_fps() > 0.8 * base.gpu_fps()
    assert pol.urgent                     # Crysis never catches up


def test_dash_deprioritises_fast_gpu():
    """An above-target GPU spends most ticks non-urgent (CPU first)."""
    pol = DashPolicy()
    HeterogeneousSystem(default_config("smoke", n_cpus=4),
                        MIXES_M["M13"], pol).run()
    below = sum(1 for u in pol.urgency_log if u < 1.0)
    assert below > len(pol.urgency_log) * 0.4
