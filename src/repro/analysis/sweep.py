"""Generic parameter sweeps over system configurations.

The ablation benches each hand-roll a small sweep; this utility makes
custom ones one-liners for downstream users::

    from repro.analysis.sweep import sweep, vary_qos
    rows = sweep("M7", policy="throtcpuprio", scale="smoke",
                 variations=vary_qos(target_fps=[30, 40, 50]))
    for row in rows:
        print(row.label, row.result.fps)

A *variation* is ``(label, transform)`` where ``transform`` maps a
``SystemConfig`` to a modified ``SystemConfig``; helpers build the
common ones (QoS knobs, DRAM knobs, LLC policy, GPU front end).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.config import SystemConfig, default_config
from repro.mixes import mix as mix_by_name
from repro.policies import make_policy
from repro.sim.metrics import RunResult

Transform = Callable[[SystemConfig], SystemConfig]


@dataclass(frozen=True)
class SweepRow:
    label: str
    result: RunResult


def vary_qos(**lists) -> list[tuple[str, Transform]]:
    """One variation per value per QoS field, e.g.
    ``vary_qos(target_fps=[30, 40])``."""
    out = []
    for field_name, values in lists.items():
        for v in values:
            out.append((f"{field_name}={v}",
                        lambda cfg, f=field_name, v=v:
                        cfg.with_qos(**{f: v})))
    return out


def vary_dram(**lists) -> list[tuple[str, Transform]]:
    out = []
    for field_name, values in lists.items():
        for v in values:
            out.append((f"dram.{field_name}={v}",
                        lambda cfg, f=field_name, v=v:
                        replace(cfg, dram=replace(cfg.dram, **{f: v}))))
    return out


def vary_llc_policy(policies: Iterable[str]) -> list[tuple[str,
                                                           Transform]]:
    return [(f"llc.policy={p}",
             lambda cfg, p=p: replace(cfg, llc=replace(cfg.llc,
                                                       policy=p)))
            for p in policies]


def vary_frontend(frontends: Iterable[str] = ("procedural", "geometry")
                  ) -> list[tuple[str, Transform]]:
    return [(f"gpu_frontend={fe}",
             lambda cfg, fe=fe: replace(cfg, gpu_frontend=fe))
            for fe in frontends]


def sweep(mix_name: str, policy: str = "baseline", scale: str = "smoke",
          seed: int = 1,
          variations: Sequence[tuple[str, Transform]] = (),
          runner: Callable[[SystemConfig, object, object], RunResult]
          = None, jobs: int | None = None) -> list[SweepRow]:
    """Run ``mix_name`` under ``policy`` once per variation.

    The default path routes through :func:`repro.exec.run_many`, so
    variation runs are cached persistently and fan out across cores
    when ``jobs`` (or ``REPRO_JOBS``) asks for more than one worker.
    ``runner`` is injectable for testing; passing one bypasses the
    executor and runs serially, uncached.
    """
    m = mix_by_name(mix_name)
    base = default_config(scale=scale, n_cpus=m.n_cpus, seed=seed)
    todo = list(variations) or [("base", lambda cfg: cfg)]
    if runner is not None:
        return [SweepRow(label, runner(transform(base), m,
                                       make_policy(policy)))
                for label, transform in todo]
    from repro.exec import RunSpec, run_many
    specs = [RunSpec(mix=m, policy=policy, scale=scale, seed=seed,
                     cfg=transform(base)) for _label, transform in todo]
    outcomes = run_many(specs, jobs=jobs, strict=True)
    return [SweepRow(label, out.result)
            for (label, _t), out in zip(todo, outcomes)]
