"""Replacement policies: LRU, 2-bit SRRIP (Jaleel et al., ISCA'10), random.

LRU has no policy object: :class:`repro.mem.cache.Cache` keeps an LRU
set's lines in recency order itself (the set dict's insertion order,
least recent first), so a hit, a fill and a victim are each O(1) dict
operations.  SRRIP and random replacement are policy objects, attached
to one cache and consulted per set; their lines carry a single integer
``repl`` field whose meaning is policy-private (the RRPV for SRRIP) and
their sets stay in fill order.
"""

from __future__ import annotations

import random
from typing import Collection, Optional, Protocol, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.cache import Line

#: RRPV width of the LLC's SRRIP (Table I: two-bit SRRIP)
SRRIP_BITS = 2
#: the most distant RRPV: SRRIP evicts from here, and the LLC-management
#: policies (TAP, DRP) insert lines they mean to evict first here
SRRIP_MAX_RRPV = (1 << SRRIP_BITS) - 1


class ReplacementPolicy(Protocol):
    """Per-cache replacement policy (stateless across sets except RNG).

    ``victim`` receives the full set's lines in fill order."""

    def on_hit(self, line: "Line") -> None: ...
    def on_fill(self, line: "Line") -> None: ...
    def victim(self, lines: Collection["Line"]) -> "Line": ...


class SrripPolicy:
    """Static re-reference interval prediction with two-bit RRPVs.

    Fills insert at ``max-1`` (long re-reference), hits promote to 0,
    victims are lines at ``max``: when none is, every line ages until
    one gets there.  This is the LLC policy of Table I.
    """

    def __init__(self) -> None:
        self.max_rrpv = SRRIP_MAX_RRPV

    def on_hit(self, line: "Line") -> None:
        line.repl = 0

    def on_fill(self, line: "Line") -> None:
        line.repl = self.max_rrpv - 1

    def victim(self, lines: Collection["Line"]) -> "Line":
        """The first line at ``max``; with none there, the closed form
        of ageing the set one step at a time: the first line holding
        the largest RRPV wins, and every line ages by the distance from
        that RRPV to ``max`` (the steps the loop would have taken)."""
        max_rrpv = self.max_rrpv
        best = None
        top = -1                     # RRPVs are never negative
        for ln in lines:
            r = ln.repl
            if r > top:
                if r >= max_rrpv:
                    return ln
                best = ln
                top = r
        age = max_rrpv - top
        for ln in lines:
            ln.repl += age
        return best


class RandomPolicy:
    """Seeded random replacement (``LlcConfig(policy="random")``; no
    bench or figure selects it)."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def on_hit(self, line: "Line") -> None:
        pass

    def on_fill(self, line: "Line") -> None:
        pass

    def victim(self, lines: Collection["Line"]) -> "Line":
        return list(lines)[self._rng.randrange(len(lines))]


def make_policy(name: str, *, seed: int = 0) -> Optional[ReplacementPolicy]:
    """Policy registry used by :class:`repro.mem.cache.Cache`.

    ``"lru"`` maps to ``None``: the cache orders an LRU set itself."""
    if name == "lru":
        return None
    if name == "srrip":
        return SrripPolicy()
    if name == "random":
        return RandomPolicy(seed)
    raise KeyError(f"unknown replacement policy {name!r}")
