"""Deterministic fault injectors and the plan that carries them.

Every injector is *counting-based*: it fires once, on the ``nth``
matching request, so a given ``(plan, config, seed)``
perturbs exactly the same requests on every run — a detected fault is
reproducible by construction.  ``seed`` deterministically offsets the
firing point so campaigns can vary *where* a fault lands without losing
reproducibility.

The request-path injectors tap the system's request path
(``HeterogeneousSystem.tap_send``) before the monitor does, so they sit
between the monitor's conservation wrapper (outside) and the real
interconnect send (inside): an injected drop or duplicate is visible to
the :class:`~repro.guard.InvariantMonitor` exactly like a real
simulator bug would be.
"""

from __future__ import annotations

import os
import random
from typing import Callable, Optional


class RequestFault:
    """Drop, delay, or duplicate the nth matching memory request.

    * ``drop`` — the request is swallowed: its issuer waits forever for
      a completion that never comes (models a lost fill / leaked MSHR).
    * ``delay`` — the request is forwarded ``delay_ticks`` late (models
      a transient stall; conservation holds, timing degrades).
    * ``duplicate`` — the request is forwarded twice; its completion
      callback fires twice (models a double-service bug).

    Only *retiring* reads participate (requests carrying a completion
    callback); fire-and-forget writebacks cannot leak in a way the
    conservation invariant defines.
    """

    ACTIONS = ("drop", "delay", "duplicate")

    def __init__(self, action: str, side: str = "any",
                 kind: Optional[str] = None, nth: int = 50,
                 delay_ticks: int = 5000, seed: int = 0):
        if action not in self.ACTIONS:
            raise ValueError(f"unknown fault action {action!r}")
        if side not in ("any", "cpu", "gpu"):
            raise ValueError(f"unknown side {side!r}")
        if nth < 1 or delay_ticks < 0:
            raise ValueError("nth must be >= 1, delay_ticks >= 0")
        self.action = action
        self.side = side
        self.kind = kind
        #: seed shifts the firing point deterministically (same seed ->
        #: same perturbed requests, different seed -> different ones)
        self.nth = nth + (seed % 17)
        self.delay_ticks = delay_ticks

    def applies_to(self, side: str) -> bool:
        return self.side in ("any", side)

    def describe(self) -> str:
        where = self.side if self.kind is None \
            else f"{self.side}/{self.kind}"
        extra = f" by {self.delay_ticks} ticks" \
            if self.action == "delay" else ""
        return f"{self.action} {where} read #{self.nth}{extra}"

    def bind(self, system, log: list) -> None:
        """Tap the request path of each side this fault applies to."""
        def tap(send, side):
            if not self.applies_to(side):
                return send
            return self.wrap(send, system.sim, side, log)
        system.tap_send(tap)

    def wrap(self, send: Callable, sim, side: str,
             log: list) -> Callable:
        state = {"seen": 0}

        def injected(req, _send=send, _sim=sim, _state=state):
            if req.on_done is None or req.is_write or \
                    (self.kind is not None and req.kind != self.kind):
                _send(req)
                return
            _state["seen"] += 1
            if _state["seen"] != self.nth:
                _send(req)
                return
            log.append({"injector": self.describe(), "action": self.action,
                        "side": side, "tick": _sim.now, "req": repr(req)})
            if self.action == "drop":
                return                  # swallowed: never completes
            if self.action == "delay":
                _sim.after_call(self.delay_ticks, _send, req)
                return
            _send(req)                  # duplicate: forwarded twice
            _send(req)

        return injected


class FrpuPerturbation:
    """Scale the FRPU's frame-cycle predictions by ``factor``.

    Models a mispredicting frame-rate predictor: the control plane makes
    *wrong but legal* decisions (over- or under-throttling), so the run
    must complete with degraded numbers rather than trip an invariant —
    the phase machine and token accounting stay lawful.
    """

    def __init__(self, factor: float = 0.5, seed: int = 0):
        if factor <= 0:
            raise ValueError("perturbation factor must be > 0")
        self.factor = factor
        # seed nudges the factor within ±5% so campaigns can diversify
        # deterministically
        if seed:
            self.factor *= 1.0 + (random.Random(seed).random() - 0.5) / 10

    def describe(self) -> str:
        return f"scale FRPU predictions x{self.factor:.3f}"

    def bind(self, system, log: list) -> None:
        qos = getattr(system.policy, "qos", None)
        if qos is None:
            return                      # no control plane to perturb
        frpu = qos.frpu
        orig = frpu.predict_frame_cycles
        factor = self.factor
        fired = {"logged": False}

        def perturbed(pipeline):
            c = orig(pipeline)
            if c is None:
                return None
            if not fired["logged"]:
                fired["logged"] = True
                log.append({"injector": self.describe(),
                            "action": "frpu", "side": "gpu",
                            "tick": system.sim.now, "req": None})
            return c * factor

        frpu.predict_frame_cycles = perturbed


class FaultPlan:
    """An ordered set of injectors applied to one system build.

    Pass it as ``HeterogeneousSystem(..., faults=plan)`` (or through
    ``run_system``).  ``plan.log`` records every injection that actually
    fired — a campaign cross-checks it against what the run reported, so
    a fault that silently did nothing is just as loud a failure as one
    that corrupted numbers.
    """

    def __init__(self, *injectors):
        self.injectors = list(injectors)
        self.log: list[dict] = []

    def bind(self, system) -> None:
        for inj in self.injectors:
            inj.bind(system, self.log)

    def fired(self) -> int:
        return len(self.log)

    def describe(self) -> str:
        return "; ".join(inj.describe() for inj in self.injectors) \
            or "<empty plan>"


def corrupt_file(path: str, seed: int = 0, nbytes: int = 8) -> list[int]:
    """Deterministically flip ``nbytes`` bytes of a file in place.

    Returns the corrupted offsets.  Used by the campaign (and tests) to
    simulate torn/bit-rotted result-cache pickles; the cache must
    detect the damage via its content checksum, quarantine the file,
    and recompute — never half-load it.
    """
    size = os.path.getsize(path)
    if size == 0:
        return []
    rng = random.Random(seed)
    offsets = sorted(rng.randrange(size)
                     for _ in range(min(nbytes, size)))
    with open(path, "r+b") as fh:
        for off in offsets:
            fh.seek(off)
            byte = fh.read(1)
            fh.seek(off)
            fh.write(bytes([byte[0] ^ 0xFF]))
    return offsets
