"""LLC-level trace capture and replay.

The paper's workloads are API traces replayed through a GPU simulator;
this module provides the equivalent workflow for *memory* traces of our
system: record every LLC-bound request of a live run to a compact
``.npz`` bundle, inspect it offline, and replay a recorded stream back
into a fresh system as a stand-in workload agent.

Recording is a tap on the system's send hooks (zero behavioural
impact); replay preserves inter-request spacing, optionally time-scaled.

    system = HeterogeneousSystem(cfg, mix)
    rec = TraceRecorder.attach(system)
    system.run()
    rec.save("m7.npz")

    trace = LlcTrace.load("m7.npz")
    print(trace.summary())
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.request import (CPU_KINDS, CPU_SOURCES, GPU_KINDS,
                               GPU_SOURCE, MemRequest)

#: stable codes for sources and kinds in the on-disk arrays, derived
#: from the request-layer constants so a new source/kind automatically
#: gets a code (``tests/test_tracing.py`` asserts the two stay in
#: sync).  Codes follow declaration order: cpu0..cpu15 then gpu;
#: CPU kinds then GPU kinds.
SOURCE_CODES = {s: i for i, s in enumerate(CPU_SOURCES)}
SOURCE_CODES[GPU_SOURCE] = len(CPU_SOURCES)
KIND_CODES = {k: i for i, k in enumerate(CPU_KINDS + GPU_KINDS)}
_SOURCE_NAMES = {v: k for k, v in SOURCE_CODES.items()}
_KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


@dataclass
class LlcTrace:
    """A recorded LLC-request stream as parallel arrays."""

    times: np.ndarray         # int64 ticks
    addrs: np.ndarray         # int64 byte addresses
    writes: np.ndarray        # bool
    sources: np.ndarray       # uint8 codes
    kinds: np.ndarray         # uint8 codes

    def __len__(self) -> int:
        return len(self.times)

    def save(self, path: str) -> None:
        np.savez_compressed(path, times=self.times, addrs=self.addrs,
                            writes=self.writes, sources=self.sources,
                            kinds=self.kinds)

    @classmethod
    def load(cls, path: str) -> "LlcTrace":
        z = np.load(path)
        return cls(z["times"], z["addrs"], z["writes"], z["sources"],
                   z["kinds"])

    def filter_source(self, source: str) -> "LlcTrace":
        mask = self.sources == SOURCE_CODES[source]
        return LlcTrace(self.times[mask], self.addrs[mask],
                        self.writes[mask], self.sources[mask],
                        self.kinds[mask])

    def summary(self) -> dict:
        out = {"requests": int(len(self)),
               "span_ticks": int(self.times[-1] - self.times[0])
               if len(self) else 0,
               "write_frac": float(self.writes.mean()) if len(self)
               else 0.0}
        for code in np.unique(self.sources):
            name = _SOURCE_NAMES.get(int(code), f"src{code}")
            out[f"from_{name}"] = int((self.sources == code).sum())
        return out


class TraceRecorder:
    """Tap on a system's LLC-send paths."""

    def __init__(self):
        self._times: list[int] = []
        self._addrs: list[int] = []
        self._writes: list[bool] = []
        self._sources: list[int] = []
        self._kinds: list[int] = []

    @classmethod
    def attach(cls, system) -> "TraceRecorder":
        """Tap ``system``'s request path; taps bound earlier (fault
        injectors, the invariant monitor) stay inside the recorder, so
        it records every request the agents sent."""
        rec = cls()
        sim = system.sim

        def tap(send, side):
            def recorded(req: MemRequest, _send=send):
                rec.note(sim.now, req)
                _send(req)
            return recorded
        system.tap_send(tap)
        return rec

    def note(self, now: int, req: MemRequest) -> None:
        self._times.append(now)
        self._addrs.append(req.addr)
        self._writes.append(req.is_write)
        self._sources.append(SOURCE_CODES.get(req.source, 255))
        self._kinds.append(KIND_CODES.get(req.kind, 255))

    def trace(self) -> LlcTrace:
        return LlcTrace(np.array(self._times, dtype=np.int64),
                        np.array(self._addrs, dtype=np.int64),
                        np.array(self._writes, dtype=bool),
                        np.array(self._sources, dtype=np.uint8),
                        np.array(self._kinds, dtype=np.uint8))

    def save(self, path: str) -> None:
        self.trace().save(path)


class TraceReplayer:
    """Replays a recorded stream into an LLC as an open-loop agent.

    Requests are issued at their recorded inter-arrival spacing (scaled
    by ``time_scale``); the replay is open-loop — it does not react to
    responses — which makes it a reproducible background-traffic
    generator for memory-system experiments.
    """

    def __init__(self, sim, trace: LlcTrace, send, time_scale:
                 float = 1.0):
        self.sim = sim
        self.trace = trace
        self.send = send
        self.time_scale = time_scale
        self.issued = 0
        self.completed = 0

    def start(self) -> None:
        if not len(self.trace):
            return
        t0 = int(self.trace.times[0])
        base_now = self.sim.now
        for i in range(len(self.trace)):
            delay = int((int(self.trace.times[i]) - t0) * self.time_scale)
            self.sim.at(base_now + delay, self._make_issue(i))

    def _make_issue(self, i: int):
        def issue():
            tr = self.trace
            kind = _KIND_NAMES.get(int(tr.kinds[i]), "data")
            source = _SOURCE_NAMES.get(int(tr.sources[i]), "cpu0")
            is_write = bool(tr.writes[i])
            req = MemRequest(int(tr.addrs[i]), is_write, source, kind,
                             on_done=(self._done if not is_write
                                      else None),
                             created_at=self.sim.now)
            self.issued += 1
            self.send(req)
        return issue

    def _done(self, req: MemRequest) -> None:
        self.completed += 1
