"""Replacement policies: LRU, 2-bit SRRIP (Jaleel et al., ISCA'10), random.

A policy instance is attached to one cache and is consulted per set.
Lines carry a single integer ``repl`` field whose meaning is
policy-private (LRU timestamp, RRPV, ...).
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.cache import Line

#: RRPV width of the LLC's SRRIP (Table I: two-bit SRRIP)
SRRIP_BITS = 2
#: the most distant RRPV: SRRIP evicts from here, and the LLC-management
#: policies (TAP, DRP) insert lines they mean to evict first here
SRRIP_MAX_RRPV = (1 << SRRIP_BITS) - 1


class ReplacementPolicy(Protocol):
    """Per-cache replacement policy (stateless across sets except RNG)."""

    def on_hit(self, line: "Line") -> None: ...
    def on_fill(self, line: "Line") -> None: ...
    def victim(self, lines: Sequence["Line"]) -> "Line": ...


class LruPolicy:
    """Classic least-recently-used via a global access stamp."""

    def __init__(self) -> None:
        self._stamp = 0

    def _next(self) -> int:
        self._stamp += 1
        return self._stamp

    def on_hit(self, line: "Line") -> None:
        line.repl = self._next()

    def on_fill(self, line: "Line") -> None:
        line.repl = self._next()

    def victim(self, lines: Sequence["Line"]) -> "Line":
        best = lines[0]
        for ln in lines:
            if ln.repl < best.repl:
                best = ln
        return best


class SrripPolicy:
    """Static re-reference interval prediction with ``bits``-wide RRPVs.

    Fills insert at ``max-1`` (long re-reference), hits promote to 0,
    victims are lines at ``max`` (aging all lines until one appears).
    This is the LLC policy of Table I.
    """

    def __init__(self, bits: int = SRRIP_BITS):
        if bits < 1:
            raise ValueError("srrip needs >= 1 bit")
        self.max_rrpv = (1 << bits) - 1

    def on_hit(self, line: "Line") -> None:
        line.repl = 0

    def on_fill(self, line: "Line") -> None:
        line.repl = self.max_rrpv - 1

    def victim(self, lines: Sequence["Line"]) -> "Line":
        while True:
            for ln in lines:
                if ln.repl >= self.max_rrpv:
                    return ln
            for ln in lines:
                ln.repl += 1


class RandomPolicy:
    """Seeded random replacement (``LlcConfig(policy="random")``; no
    bench or figure selects it)."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def on_hit(self, line: "Line") -> None:
        pass

    def on_fill(self, line: "Line") -> None:
        pass

    def victim(self, lines: Sequence["Line"]) -> "Line":
        return lines[self._rng.randrange(len(lines))]


def make_policy(name: str, *, seed: int = 0) -> ReplacementPolicy:
    """Policy registry used by :class:`repro.mem.cache.Cache`."""
    if name == "lru":
        return LruPolicy()
    if name == "srrip":
        return SrripPolicy()
    if name == "random":
        return RandomPolicy(seed)
    raise KeyError(f"unknown replacement policy {name!r}")
