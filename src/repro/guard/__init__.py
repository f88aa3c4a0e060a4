"""Simulation guardrails: invariant watchdogs over a live system.

The :class:`InvariantMonitor` rides along a
:class:`~repro.sim.system.HeterogeneousSystem` and periodically checks
the conservation and liveness invariants a healthy simulation must
satisfy — every issued request eventually retires, occupancies never
exceed capacity, the control-plane state machines only take defined
edges, and the event queue keeps making forward progress.  On a
violation it raises a structured :class:`InvariantViolation` carrying a
:class:`DiagnosticDump` of the machine state (event-queue head,
per-component occupancies, the oldest in-flight requests, the last N
telemetry records).

Strictly zero-cost when off: a system built without a monitor takes the
exact same code paths it always did (nothing taps its request path),
and a system built *with* a monitor is bit-identical to one without —
the checks are read-only and never perturb event order
(``tests/guard/test_guard_golden.py``).

See ``docs/robustness.md`` for the invariant glossary mapping each
check onto the hardware structure it models.
"""

from repro.guard.monitor import (DiagnosticDump, GuardReport,
                                 InvariantMonitor, InvariantViolation)

__all__ = ["DiagnosticDump", "GuardReport", "InvariantMonitor",
           "InvariantViolation"]
