"""Miss-status holding registers with secondary-miss merging.

The LLC uses one :class:`MshrFile` to track outstanding DRAM fills.  A
second miss to an already-outstanding line merges onto the primary entry
(no extra DRAM traffic).  When the file is full, the caller must queue the
request — that queueing is the backpressure path the paper relies on when
the ATU gates GPU accesses ("held back inside the GPU and occupy GPU
resources such as request buffers and MSHRs").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mem.request import MemRequest
from repro.sim.stats import StatSet


class MshrEntry:
    __slots__ = ("addr", "waiters", "issued_at")

    def __init__(self, addr: int, issued_at: int):
        self.addr = addr
        self.waiters: list[MemRequest] = []
        self.issued_at = issued_at


class MshrFile:
    """Tracks outstanding line fills, keyed by line address."""

    def __init__(self, entries: int, name: str = "mshr"):
        if entries < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = entries
        self._entries: dict[int, MshrEntry] = {}
        self.stats = StatSet(name)
        self._primary = self.stats.counter("primary_misses")
        self._secondary = self.stats.counter("secondary_merges")
        self._full_stalls = self.stats.counter("full_stalls")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lookup(self, addr: int) -> Optional[MshrEntry]:
        return self._entries.get(addr)

    def allocate(self, addr: int, req: MemRequest,
                 now: int) -> Optional[MshrEntry]:
        """Register a miss.

        Returns the entry if this is the *primary* miss (caller must send
        the fill request to DRAM), or ``None`` if merged onto an existing
        entry.  Raises if the file is full — callers must check
        :attr:`full` first (and count a stall via :meth:`note_full`).
        """
        entry = self._entries.get(addr)
        if entry is not None:
            entry.waiters.append(req)
            self._secondary.value += 1
            return None
        if self.full:
            raise RuntimeError("MSHR allocate on full file")
        entry = MshrEntry(addr, now)
        entry.waiters.append(req)
        self._entries[addr] = entry
        self._primary.value += 1
        return entry

    def note_full(self) -> None:
        self._full_stalls.value += 1

    def complete(self, addr: int) -> list[MemRequest]:
        """Fill arrived: release and return all waiters for ``addr``."""
        entry = self._entries.pop(addr, None)
        if entry is None:
            raise KeyError(f"MSHR complete for unknown line 0x{addr:x}")
        return entry.waiters

    def outstanding(self) -> list[int]:
        return list(self._entries.keys())

    def oldest(self, now: int) -> Optional[tuple[int, int]]:
        """``(line address, age in ticks)`` of the longest-outstanding
        entry, or ``None`` when the file is empty.  An entry whose age
        keeps growing is a fill that never returned — the invariant
        monitor's leak detector."""
        if not self._entries:
            return None
        addr, entry = min(self._entries.items(),
                          key=lambda kv: kv[1].issued_at)
        return addr, now - entry.issued_at
