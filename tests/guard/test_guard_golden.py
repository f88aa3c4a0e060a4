"""Golden guarantee: the invariant monitor observes, never perturbs.

A monitored run must produce the bit-identical ``RunResult`` of the same
unmonitored run — the monitor's periodic check events are read-only and
interleave with simulation events without reordering them.
"""

import pytest

from repro.config import default_config
from repro.guard import InvariantMonitor
from repro.mixes import mix
from repro.policies import make_policy
from repro.sim.runner import run_system


def _run(policy: str, monitor=None):
    m = mix("W8")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    return run_system(cfg, m, make_policy(policy), monitor=monitor)


@pytest.mark.parametrize("policy", ["baseline", "throtcpuprio", "sms-0.9"])
def test_monitored_run_is_bit_identical(policy):
    clean = _run(policy)
    monitor = InvariantMonitor(interval_ticks=1024)
    guarded = _run(policy, monitor=monitor)
    assert guarded == clean
    assert monitor.checks_run > 0


def test_clean_run_passes_and_report_balances():
    monitor = InvariantMonitor(interval_ticks=1024)
    _run("throtcpuprio", monitor=monitor)       # no InvariantViolation
    rep = monitor.report()
    assert rep.issued - rep.retired == rep.in_flight_at_end
    assert rep.issued > 0 and rep.max_in_flight > 0
    assert "checks" in rep.format()
