"""Process-wide switch for the batched component hot paths.

The DRAM controller and the CPU core each carry two implementations of
their per-tick inner loop: the *legacy* one (straight-line code, one
Python operation per queue entry) and a *batched* one that computes the
identical values with O(banks) scans, plain-list trace walks and
precomputed masks.  Both produce bit-identical schedules — proven by
``tests/sim/test_hotpath_golden.py``, which runs whole systems with the
switch on and off and compares every metric and telemetry record — so
the switch exists for exactly two reasons:

* the equivalence test itself needs a way to build the legacy system;
* ``REPRO_HOTPATH=legacy`` gives one escape hatch if a future component
  interacts badly with the batched paths.

The DRAM controller's batched path has two twins, one for the
FR-FCFS-family schedulers and one for ``SmsScheduler`` (counters stand
in for its per-batch walks); each engages only where its equivalence
is provable (tFAW disabled, an exact scheduler type), so another
scheduler or tFAW takes the legacy path whatever the switch says.
Both twins also *park* a no-op poll that would re-poll every tick: it
keeps its place in every tick of the chain through the kernel's exact
next-tick re-arm, but runs for real only at the first tick its outcome
can change.  The legacy path keeps the literal per-tick chain, which is
what the equivalence tests hold the parked one to.

Components sample :func:`use_batching` **at construction time** (the
choice is per-system, not per-call), so flipping the switch never
affects a system that is already running.  The switch deliberately
lives outside :class:`repro.config.SystemConfig`: it changes how fast
results are computed, never what they are, and must not perturb result
cache keys or spec hashes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_ENV = "REPRO_HOTPATH"

#: values of ``REPRO_HOTPATH`` that select the legacy per-entry paths
_LEGACY_VALUES = ("legacy", "off", "0", "slow")

_enabled = os.environ.get(_ENV, "").strip().lower() not in _LEGACY_VALUES


def use_batching() -> bool:
    """True when newly built components should take the batched paths."""
    return _enabled


def set_batching(on: bool) -> bool:
    """Set the process-wide switch; returns the previous value."""
    global _enabled
    old = _enabled
    _enabled = bool(on)
    return old


@contextmanager
def batching(on: bool):
    """Scoped override: build systems with the switch forced ``on``."""
    old = set_batching(on)
    try:
        yield
    finally:
        set_batching(old)
