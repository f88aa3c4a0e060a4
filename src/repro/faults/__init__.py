"""Deterministic fault injection for the simulator and its harness.

Three layers of controlled breakage, all seeded and reproducible:

* :mod:`repro.faults.injectors` — request-path faults (drop / delay /
  duplicate), FRPU misprediction, and cache-file corruption;
* :mod:`repro.faults.workers` — executor worker specs that crash, hang,
  or flake, for exercising :func:`repro.exec.run_many`'s hardening;
* :mod:`repro.faults.campaign` — the scenario runner behind
  ``python -m repro faults``: every injected fault must be *detected
  loudly* (an :class:`~repro.guard.InvariantViolation`, a
  :class:`~repro.exec.CacheIntegrityWarning`, a failed
  :class:`~repro.exec.RunOutcome`) or *tolerated with recorded
  degradation* — never silent.

See ``docs/robustness.md`` for the campaign guide.
"""

from repro.faults.campaign import (CampaignReport, ScenarioOutcome,
                                   run_campaign, scenario_names)
from repro.faults.injectors import (FaultPlan, FrpuPerturbation,
                                    RequestFault, corrupt_file)
from repro.faults.workers import (CrashSpec, FailSpec, FlakySpec,
                                  HangSpec, SleepSpec)

__all__ = [
    "CampaignReport", "CrashSpec", "FailSpec", "FaultPlan", "FlakySpec",
    "FrpuPerturbation", "HangSpec", "RequestFault", "ScenarioOutcome",
    "SleepSpec", "corrupt_file", "run_campaign", "scenario_names",
]
