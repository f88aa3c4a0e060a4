"""The batched component hot paths and the reference paths tests hold
them to.

The DRAM controller and the CPU core each carry two implementations of
their per-tick inner loop: the *legacy* one (straight-line code, one
Python operation per queue entry) and a *batched* one that computes the
identical values with O(banks) scans, plain-list trace walks and
precomputed masks.  Both produce bit-identical schedules — proven by
``tests/sim/test_hotpath_golden.py``, which runs whole systems with
batching on and off and compares every metric and telemetry record.
The legacy paths exist only as that reference: :func:`batching` is how
the equivalence tests (and ``scripts/bench_kernel.py``'s before/after
row) build a legacy system; every other build takes the batched paths.

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
choice is per-system, not per-call), so leaving a :func:`batching`
block never affects a system that is already running.  The switch
deliberately lives outside :class:`repro.config.SystemConfig`: it
changes how fast results are computed, never what they are, and must
not perturb result cache keys or spec hashes.
"""

from __future__ import annotations

from contextlib import contextmanager

_enabled = True


def use_batching() -> bool:
    """True when newly built components should take the batched paths."""
    return _enabled


@contextmanager
def batching(on: bool):
    """Scoped override: build systems with the switch forced ``on``."""
    global _enabled
    old, _enabled = _enabled, bool(on)
    try:
        yield
    finally:
        _enabled = old
