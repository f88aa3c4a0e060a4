"""Policy interface.

A policy configures the machine in two places:

* :meth:`scheduler_factory` — which DRAM access scheduler each memory
  controller gets (called once per channel at build time);
* :meth:`attach` — installed after the system is built: LLC bypass
  hooks, QoS controllers, periodic controllers, GPU gates.

Policies must be stateless across systems — a fresh instance per run.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from repro.config import ConfigError
from repro.dram.schedulers import FrFcfsScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import HeterogeneousSystem


class Policy:
    name = "base"

    #: set by policies that keep a system reference in :meth:`attach`;
    #: :meth:`emit` routes through it to the system's telemetry
    _system = None

    def scheduler_factory(self) -> Callable[[int], object]:
        return lambda ch: FrFcfsScheduler()

    def attach(self, system: "HeterogeneousSystem") -> None:
        """Install hooks; the system is fully built at this point."""

    def emit(self, etype: str, **fields) -> None:
        """Emit a telemetry record if the attached system records one.

        A no-op (one attribute test) when telemetry is off, so policies
        can emit decision events unconditionally from their periodic
        ticks.
        """
        system = self._system
        tel = system.telemetry if system is not None else None
        if tel is not None:
            tel.emit(etype, **fields)

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


def require_srrip_llc(policy: Policy, system: "HeterogeneousSystem") -> None:
    """Refuse an LLC that is not SRRIP: TAP and DRP steer fills by RRPV,
    which any other replacement policy would misread (under LRU a
    near-MRU RRPV of 0 is the oldest access stamp, evicted first)."""
    llc_policy = system.cfg.llc.policy
    if llc_policy != "srrip":
        raise ConfigError(f"policy {policy.name!r} steers SRRIP insertion "
                          f"and needs llc.policy='srrip', got "
                          f"llc.policy={llc_policy!r}")
