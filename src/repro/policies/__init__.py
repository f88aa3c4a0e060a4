"""Memory-system management policies: the proposal and its competitors."""

from typing import Callable

from repro.policies.base import Policy
from repro.policies.baseline import BaselinePolicy
from repro.policies.bypass_all import BypassAllPolicy
from repro.policies.helm import HelmPolicy
from repro.policies.sms import SmsPolicy
from repro.policies.dynprio import DynPrioPolicy
from repro.policies.cmbal import CmBalPolicy
from repro.policies.tap import TapPolicy
from repro.policies.dash import DashPolicy
from repro.policies.drp import DrpPolicy
from repro.policies.throttle import ThrottlePolicy

#: the registry: one name per policy, as benches, figures and the CLI
#: use them
_REGISTRY: dict[str, Callable[[], Policy]] = {
    "baseline": BaselinePolicy,
    "bypass-all": BypassAllPolicy,
    "helm": HelmPolicy,
    "sms-0.9": lambda: SmsPolicy(p_sjf=0.9),
    "sms-0": lambda: SmsPolicy(p_sjf=0.0),
    "dynprio": DynPrioPolicy,
    "dash": DashPolicy,
    "cm-bal": CmBalPolicy,
    "tap": TapPolicy,
    "drp": DrpPolicy,
    "throttle": lambda: ThrottlePolicy(cpu_priority=False),
    "throtcpuprio": lambda: ThrottlePolicy(cpu_priority=True),
    # FRPU runs and logs predictions, but the target is set so high
    # above any achievable rate that the ATU never engages — used to
    # measure estimation accuracy (Fig. 8)
    "estimate": lambda: ThrottlePolicy(cpu_priority=False, target_fps=1e6),
}

POLICY_NAMES = list(_REGISTRY)


def make_policy(name: str) -> Policy:
    """A fresh instance of the registry policy ``name``, labelled with
    that name (``RunResult.policy_name``, telemetry ``run_meta`` and
    span ``meta`` read it): ``estimate`` is a ``ThrottlePolicy`` that
    would otherwise call itself ``throttle``."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown policy {name!r}")
    policy = _REGISTRY[name]()
    policy.name = name
    return policy


__all__ = ["Policy", "BaselinePolicy", "BypassAllPolicy", "HelmPolicy",
           "SmsPolicy", "DynPrioPolicy", "DashPolicy", "CmBalPolicy", "TapPolicy",
           "DrpPolicy", "ThrottlePolicy", "make_policy", "POLICY_NAMES"]
