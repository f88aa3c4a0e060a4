"""The telemetry hub: components emit, the hub buffers and streams.

Zero-cost-when-off contract
---------------------------
No component holds a default-on telemetry object.  Every emitting site
keeps a reference that is ``None`` unless a recording was requested
(``HeterogeneousSystem(..., telemetry=...)`` or ``--telemetry PATH``)
and guards with ``if tel is not None`` — one attribute test on *rare*
control-loop events (frame boundaries, recomputes, priority flips),
never on the per-access hot paths.  With no telemetry attached the
simulation schedules exactly the same events and produces bit-identical
stats (``tests/sim/test_telemetry_golden.py``); the macro overhead gate
is ``scripts/bench_kernel.py --check``.

Usage::

    from repro.telemetry import Telemetry

    tel = Telemetry.to_file("run.jsonl")
    system = HeterogeneousSystem(cfg, mix, policy, telemetry=tel)
    system.run()
    tel.close()

or ``run_system(cfg, mix, policy, telemetry=tel)`` /
``python -m repro run --telemetry run.jsonl``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.telemetry.events import SCHEMA, validate
from repro.telemetry.sinks import open_sink

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import HeterogeneousSystem


class Telemetry:
    """Buffers typed records in memory and streams them to sinks.

    Every record is checked against the
    :data:`repro.telemetry.events.SCHEMA`; the events are rare enough
    that validation costs nothing measurable, and it keeps the schema,
    the docs, and the emitters honest.
    """

    def __init__(self, *, sample_interval_ticks: int = 8192,
                 buffer: bool = True):
        self.sample_interval_ticks = sample_interval_ticks
        self.buffer = buffer
        self.records: list[dict] = []
        self._sinks: list = []
        self._counts: dict[str, int] = {}
        self._sampler = None
        self._closed = False

    @classmethod
    def to_file(cls, path: str, **kwargs) -> "Telemetry":
        tel = cls(**kwargs)
        tel.add_sink(open_sink(path))
        return tel

    def add_sink(self, sink) -> "Telemetry":
        self._sinks.append(sink)
        return self

    # -- emission ----------------------------------------------------------

    def emit(self, etype: str, **fields) -> None:
        if self._closed:
            raise RuntimeError("telemetry already closed")
        validate(etype, fields)
        record = {"type": etype, **fields}
        self._counts[etype] = self._counts.get(etype, 0) + 1
        if self.buffer:
            self.records.append(record)
        for sink in self._sinks:
            sink.write(record)

    # -- wiring ------------------------------------------------------------

    def bind(self, system: "HeterogeneousSystem") -> None:
        """Called by the system once it is fully built: emit the run
        header and start the interval sampler."""
        cfg, mix = system.cfg, system.mix
        self.emit("run_meta", tick=0, mix=mix.name,
                  policy=system.policy.name, scale=cfg.scale.name,
                  seed=cfg.seed, n_cpus=mix.n_cpus,
                  gpu_app=mix.gpu_app or "")
        if self.sample_interval_ticks > 0:
            from repro.telemetry.sampler import IntervalSampler
            self._sampler = IntervalSampler(system, self,
                                            self.sample_interval_ticks)

    # -- introspection / lifecycle ----------------------------------------

    def count(self, etype: Optional[str] = None) -> int:
        if etype is None:
            return sum(self._counts.values())
        return self._counts.get(etype, 0)

    def counts(self) -> dict[str, int]:
        """Record counts per event type, in schema order."""
        return {t: self._counts[t] for t in SCHEMA if t in self._counts}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Telemetry({self.count()} records, "
                f"{len(self._sinks)} sink(s))")
