"""Unit + property tests for the access throttling unit (Fig. 6)."""

import pytest
from hypothesis import given, strategies as st

from repro.config import GPU_CYCLE_TICKS
from repro.core.atu import AccessThrottlingUnit

TICKS = 4  # ticks per GPU cycle, used throughout


def test_no_throttle_when_gpu_slower_than_target():
    atu = AccessThrottlingUnit()
    ng, wg = atu.compute(c_p=2000, c_t=1000, a=100)
    assert (ng, wg) == (1, 0)
    assert not atu.active


def test_wg_lands_on_fig6_bound():
    atu = AccessThrottlingUnit()
    # C_T - C_P = 1000 over 100 accesses -> 10 cycles = 40 ticks/access
    ng, wg = atu.compute(c_p=1000, c_t=2000, a=100)
    assert ng == 1
    assert atu.wg_ticks == 40
    assert wg == pytest.approx(10.0)
    assert atu.active


def test_wg_quantised_down_to_step():
    atu = AccessThrottlingUnit(wg_step=2)
    atu.compute(c_p=1000, c_t=2000, a=130)   # 30.77 ticks/access
    assert atu.wg_ticks == 30                # floor to even
    assert atu.wg_ticks % 2 == 0


def test_wg_resets_after_target_reached():
    atu = AccessThrottlingUnit()
    atu.compute(c_p=1000, c_t=2000, a=100)
    assert atu.wg_ticks > 0
    atu.compute(c_p=2100, c_t=2000, a=100)
    assert atu.wg_ticks == 0


def test_tiny_gap_floors_to_zero():
    """A gap smaller than one step must not throttle (stay above QoS)."""
    atu = AccessThrottlingUnit(wg_step=2)
    atu.compute(c_p=1999, c_t=2000, a=100)   # 0.04 ticks/access
    assert atu.wg_ticks == 0
    assert not atu.active


def test_zero_accesses_means_no_throttle():
    atu = AccessThrottlingUnit()
    assert atu.compute(c_p=10, c_t=100, a=0) == (1, 0)


def test_step_validation():
    with pytest.raises(ValueError):
        AccessThrottlingUnit(wg_step=0)


def test_gate_is_additive_per_access():
    """Every access (N_G=1) pays the full W_G — the deep-queue regime
    the Fig. 6 arithmetic assumes."""
    atu = AccessThrottlingUnit()
    atu.compute(c_p=1000, c_t=2000, a=100)   # 40 ticks/access
    assert atu.next_issue_time(100) == 140
    assert atu.next_issue_time(150) == 190   # even when arriving late


def test_gate_ng_burst_allowance():
    atu = AccessThrottlingUnit()
    atu.compute(c_p=1000, c_t=2000, a=100)
    atu.ng = 3
    atu._tokens = 3
    assert atu.next_issue_time(10) == 10     # token 1
    assert atu.next_issue_time(11) == 11     # token 2
    assert atu.next_issue_time(12) == 12 + atu.wg_ticks  # burst exhausted
    assert atu.next_issue_time(13) == 13     # tokens refilled


def test_inactive_gate_is_transparent():
    atu = AccessThrottlingUnit()
    for t in (0, 5, 5, 7):
        assert atu.next_issue_time(t) == t


def test_reset_gate_clears_state():
    atu = AccessThrottlingUnit()
    atu.compute(c_p=100, c_t=1000, a=10)
    atu.next_issue_time(50)
    atu.reset_gate()
    assert atu.wg_ticks == 0
    assert atu.next_issue_time(51) == 51


def test_kind_is_ignored():
    """The ATU throttles the collective rate, not one pipeline unit."""
    atu = AccessThrottlingUnit()
    atu.compute(c_p=1000, c_t=2000, a=100)
    assert atu.next_issue_time(0, "texture") == atu.wg_ticks


@given(st.floats(1, 1e6), st.floats(1, 1e6), st.floats(1, 1e5))
def test_property_wg_never_exceeds_fig6_bound(c_p, c_t, a):
    """Floor quantisation: A * W_G <= C_T - C_P, so the throttle never
    pushes the GPU below the QoS target."""
    atu = AccessThrottlingUnit()
    ng, wg = atu.compute(c_p, c_t, a)
    assert ng == 1
    if c_p > c_t:
        assert wg == 0
    else:
        gap = c_t - c_p
        assert wg * a <= gap * (1 + 1e-9) + 1e-6
        # and it is within one quantisation step of the bound
        step_cycles = atu.wg_step / GPU_CYCLE_TICKS
        assert (wg + step_cycles) * a > gap * (1 - 1e-9) - 1e-6


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
def test_property_gate_times_never_precede_request(times):
    atu = AccessThrottlingUnit()
    atu.compute(c_p=100, c_t=10_000, a=7)
    t = 0
    for dt in times:
        t += dt
        allowed = atu.next_issue_time(t)
        assert allowed >= t
        assert allowed - t <= atu.wg_ticks
