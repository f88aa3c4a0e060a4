"""Functional set-associative cache.

Caches are modelled *functionally*: a lookup mutates tag state and returns
hit/miss plus any eviction; timing (lookup latency, miss handling) is added
by the owning component.  This keeps the per-access cost to a couple of
dict operations — the key to simulating millions of accesses in Python.

Each set is a dict ``tag -> Line``.  An LRU set keeps its lines in
recency order (insertion order, least recent first): a hit, or an
``allocate`` of a line already present, moves the line to the end, a
fill appends, and the victim is the first key, so every operation is
O(1) in the ways.  An LRU line's ``repl`` holds its fill number, which
:meth:`Cache.clean_dirty` sorts by to write a set back in fill order.
SRRIP and random caches consult their policy object
(:mod:`repro.mem.replacement`) and keep each set in fill order.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from typing import Optional

from repro.config import CacheConfig
from repro.mem.replacement import make_policy
from repro.sim.stats import StatSet


class Line:
    """One cache line's bookkeeping state."""

    __slots__ = ("tag", "dirty", "owner", "repl", "kind", "reused")

    def __init__(self, tag: int, owner: str, kind: str = "data"):
        self.tag = tag
        self.dirty = False
        # interned: owner/kind recur across millions of lines, and the
        # occupancy/eviction bookkeeping hashes and compares them — with
        # interned strings those dict operations hit the pointer-equality
        # fast path
        self.owner = sys.intern(owner)  # "cpu<i>" or "gpu" (LLC cares)
        self.kind = sys.intern(kind)    # GPU traffic class, for stats
        self.repl = 0               # replacement-policy private field
        self.reused = False         # hit at least once after the fill

    def __repr__(self) -> str:
        d = "D" if self.dirty else " "
        return f"Line(tag=0x{self.tag:x}{d} {self.owner})"


#: sort key of an LRU line: its fill number
_fill_number = attrgetter("repl")


class Eviction:
    """What fell out of the cache on an allocation."""

    __slots__ = ("addr", "dirty", "owner", "kind", "reused")

    def __init__(self, addr: int, dirty: bool, owner: str, kind: str,
                 reused: bool = False):
        self.addr = addr
        self.dirty = dirty
        self.owner = owner
        self.kind = kind
        self.reused = reused


class Cache:
    """Set-associative, write-back, write-allocate functional cache."""

    def __init__(self, cfg: CacheConfig, *, seed: int = 0):
        self.cfg = cfg
        self.n_sets = cfg.sets
        self.ways = cfg.ways
        self.line_bytes = cfg.line_bytes
        self._line_shift = cfg.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != cfg.line_bytes:
            raise ValueError("line size must be a power of two")
        self._set_mask = self.n_sets - 1
        if self.n_sets & self._set_mask:
            raise ValueError("set count must be a power of two")
        #: ``None`` for LRU, whose sets this class keeps in recency order
        self.policy = make_policy(cfg.policy, seed=seed)
        # one dict per set: tag -> Line
        self._sets: list[dict[int, Line]] = [dict() for _ in range(self.n_sets)]
        #: LRU lines filled so far: the next one's fill number
        self._fills = 0
        self.stats = StatSet(cfg.name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evict_dirty = self.stats.counter("evictions_dirty")
        self._evict_clean = self.stats.counter("evictions_clean")

    # -- address helpers ---------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr >> self._line_shift) & self._set_mask

    def tag_of(self, addr: int) -> int:
        return addr >> self._line_shift

    # -- operations --------------------------------------------------------

    def probe(self, addr: int) -> Optional[Line]:
        """Lookup with no state change (no replacement update)."""
        tag = addr >> self._line_shift
        return self._sets[tag & self._set_mask].get(tag)

    def lookup(self, addr: int, write: bool = False) -> Optional[Line]:
        """Lookup, updating replacement state and dirty bit on hit."""
        # the set index is the tag's low bits (tags keep the set bits),
        # so one shift feeds both — this is the hottest method in the
        # package (every L1/L2/LLC access), hence the inlined address
        # math, counter bumps and LRU update instead of calls
        tag = addr >> self._line_shift
        s = self._sets[tag & self._set_mask]
        line = s.get(tag)
        if line is None:
            self._misses.value += 1
            return None
        self._hits.value += 1
        policy = self.policy
        if policy is None:
            del s[tag]               # most recent goes last
            s[tag] = line
        else:
            policy.on_hit(line)
        line.reused = True
        if write:
            line.dirty = True
        return line

    def allocate(self, addr: int, *, write: bool = False,
                 owner: str = "cpu0", kind: str = "data",
                 repl_override: Optional[int] = None) -> Optional[Eviction]:
        """Insert ``addr``; return the eviction it caused, if any.

        ``repl_override`` sets the new line's replacement state directly
        (e.g. an SRRIP insertion RRPV chosen by an LLC management policy
        such as TAP or DRP) instead of the policy's default insertion;
        an LRU cache has no such state and refuses it.
        The caller is responsible for handling the writeback of a dirty
        eviction and any inclusion actions.
        """
        tag = addr >> self._line_shift
        s = self._sets[tag & self._set_mask]
        policy = self.policy
        line = s.get(tag)
        if line is not None:         # already present: treat as touch
            if policy is None:
                del s[tag]
                s[tag] = line
            else:
                policy.on_hit(line)
            if write:
                line.dirty = True
            return None
        if policy is None and repl_override is not None:
            raise ValueError("an LRU cache has no insertion state to "
                             "override")
        evicted: Optional[Eviction] = None
        if len(s) >= self.ways:
            if policy is None:
                for victim in s.values():    # least recent is first
                    break
            else:
                victim = policy.victim(s.values())
            del s[victim.tag]
            if victim.dirty:
                self._evict_dirty.value += 1
            else:
                self._evict_clean.value += 1
            evicted = Eviction(victim.tag << self._line_shift, victim.dirty,
                               victim.owner, victim.kind, victim.reused)
        line = Line(tag, owner, kind)
        line.dirty = write
        s[tag] = line
        if policy is None:
            line.repl = self._fills
            self._fills += 1
        else:
            policy.on_fill(line)
            if repl_override is not None:
                line.repl = repl_override
        return evicted

    def invalidate(self, addr: int) -> Optional[Line]:
        """Drop the line if present; returns it (caller checks dirty)."""
        tag = addr >> self._line_shift
        return self._sets[tag & self._set_mask].pop(tag, None)

    def clean_dirty(self) -> list[int]:
        """Clean every dirty line and return its address: set by set,
        each set in fill order (the order results depend on, see
        :meth:`repro.gpu.caches.GpuCacheHierarchy.flush_rop`)."""
        out: list[int] = []
        shift = self._line_shift
        lru = self.policy is None
        for s in self._sets:
            dirty = [ln for ln in s.values() if ln.dirty]
            if lru and len(dirty) > 1:
                dirty.sort(key=_fill_number)
            for ln in dirty:
                ln.dirty = False
                out.append(ln.tag << shift)
        return out

    def flush_owner(self, owner: str) -> int:
        """Invalidate every line belonging to ``owner`` (test helper)."""
        n = 0
        for s in self._sets:
            for tag in [t for t, ln in s.items() if ln.owner == owner]:
                del s[tag]
                n += 1
        return n

    # -- introspection -----------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def occupancy_by_owner(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self._sets:
            for ln in s.values():
                out[ln.owner] = out.get(ln.owner, 0) + 1
        return out

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def miss_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._misses.value / total if total else 0.0
