"""Opt-in profiling of the event-kernel run loop.

Attach with :meth:`repro.sim.engine.Simulator.enable_profiling` (or the
``--profile`` flag of ``python -m repro run`` / ``standalone``); the
kernel then records, per owner, how many events it executed and how much
wall time their callbacks consumed, plus the run loop's own overhead.

The layer is strictly opt-in: with no profile attached the kernel takes
an uninstrumented run loop, so the default path pays nothing per event
(verified by ``scripts/bench_kernel.py``).

Owner attribution: a callback that is a bound method is keyed by its
object's ``name`` attribute when it has one (``cpu0``, ``gpu``, ...) or
its class name otherwise, plus the method name — so a profile reads as
``cpu0._activate``, ``GpuPipeline._activate``, ``SharedLLC.access``,
``MemRequest.complete`` and immediately shows where the run spends time.
"""

from __future__ import annotations


def owner_of(fn) -> str:
    """Stable, human-readable key for a scheduled callback."""
    obj = getattr(fn, "__self__", None)
    if obj is not None:
        name = getattr(obj, "name", None)
        if not isinstance(name, str):
            name = type(obj).__name__
        return f"{name}.{fn.__name__}"
    return getattr(fn, "__qualname__", repr(fn))


#: owner-key prefix -> component, for the macro per-component wall-time
#: breakdown ``scripts/bench_kernel.py`` gates in CI.  Longest match
#: wins; ``cpu`` catches every per-core owner (``cpu0`` ... ``cpuN``).
_COMPONENT_PREFIXES = (
    ("MemoryController", "dram"),
    ("DramSystem", "dram"),
    ("Bank", "dram"),
    ("SharedLLC", "llc"),
    ("MshrFile", "llc"),
    ("Cache", "llc"),
    ("MemRequest", "mem"),            # completion delivery fan-out
    ("GpuPipeline", "gpu"),
    ("HeterogeneousSystem", "ring"),  # interconnect send hooks
    ("cpu", "core"),
)


def component_of(owner_key: str) -> str:
    """Map a profile owner key (``cpu0._activate``,
    ``MemoryController._try_issue``) onto its component layer."""
    for prefix, component in _COMPONENT_PREFIXES:
        if owner_key.startswith(prefix):
            return component
    return "other"


class KernelProfile:
    """Per-owner event counts and wall-time breakdown of one or more
    :meth:`Simulator.run` calls."""

    def __init__(self) -> None:
        #: owner key -> [event count, cumulative callback seconds]
        self.by_owner: dict[str, list] = {}
        self.events = 0
        self.event_time = 0.0           # seconds inside callbacks
        self.run_time = 0.0             # seconds inside run() overall
        self.cancelled_seen = 0         # lazily-deleted entries skipped
        self.compactions_before = 0     # cancelled count at last compaction

    @property
    def kernel_time(self) -> float:
        """Run-loop overhead: time in run() not spent in callbacks."""
        return max(self.run_time - self.event_time, 0.0)

    def component_shares(self) -> dict[str, float]:
        """Fraction of total run wall time per component layer.

        Owner callback time is folded through :func:`component_of`;
        the run loop's own overhead is reported as ``engine``.  Shares
        sum to 1.0 (modulo rounding) and are machine-independent, which
        is what lets ``scripts/bench_kernel.py`` gate them against a
        committed baseline: a component whose share balloons has
        regressed relative to its peers regardless of host speed.
        """
        total = self.run_time
        if total <= 0:
            return {}
        by_comp: dict[str, float] = {}
        for key, (_count, secs) in self.by_owner.items():
            comp = component_of(key)
            by_comp[comp] = by_comp.get(comp, 0.0) + secs
        by_comp["engine"] = self.kernel_time
        return {comp: round(secs / total, 4)
                for comp, secs in sorted(by_comp.items(),
                                         key=lambda kv: -kv[1])}

    def as_dict(self) -> dict:
        owners = {
            k: {"events": c, "seconds": round(s, 6)}
            for k, (c, s) in sorted(self.by_owner.items(),
                                    key=lambda kv: -kv[1][1])
        }
        return {
            "events": self.events,
            "run_seconds": round(self.run_time, 6),
            "callback_seconds": round(self.event_time, 6),
            "kernel_seconds": round(self.kernel_time, 6),
            "events_per_second": round(self.events / self.run_time)
            if self.run_time else 0,
            "cancelled_skipped": self.cancelled_seen,
            "component_shares": self.component_shares(),
            "owners": owners,
        }

    def report(self, top: int = 20) -> str:
        """Human-readable breakdown, widest consumers first."""
        lines = [
            f"kernel profile: {self.events:,} events in "
            f"{self.run_time:.3f}s "
            f"({self.events / self.run_time:,.0f} ev/s)"
            if self.run_time else "kernel profile: no run recorded",
            f"  callbacks {self.event_time:.3f}s, run-loop overhead "
            f"{self.kernel_time:.3f}s, cancelled skipped "
            f"{self.cancelled_seen:,}",
            f"  {'owner':36s} {'events':>10s} {'seconds':>9s} {'%time':>6s}",
        ]
        total = self.event_time or 1.0
        ranked = sorted(self.by_owner.items(), key=lambda kv: -kv[1][1])
        for key, (count, secs) in ranked[:top]:
            lines.append(f"  {key[:36]:36s} {count:10,d} {secs:9.3f} "
                         f"{100.0 * secs / total:5.1f}%")
        rest = ranked[top:]
        if rest:
            count = sum(c for _, (c, _s) in rest)
            secs = sum(s for _, (_c, s) in rest)
            lines.append(f"  {'(other)':36s} {count:10,d} {secs:9.3f} "
                         f"{100.0 * secs / total:5.1f}%")
        return "\n".join(lines)

