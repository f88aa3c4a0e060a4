"""GPU-internal cache hierarchy (Table I) as a functional filter.

Every generated access walks the hierarchy for its kind; what misses at
the innermost shared level becomes an LLC-bound read, and dirty ROP
evictions become LLC-bound writes.  Colour write misses allocate dirty
*without* fetching (full-line overwrite — paper footnote 6: the ROP can
"create fully dirty colour or depth lines ... and later flush them out to
the LLC for allocation without doing a DRAM read"), which is why writes
can outnumber reads for ROP-heavy games.

Simplifications (documented in DESIGN.md): the per-sampler texture L0s
and per-ROP depth/colour L1s are modelled as single aggregate caches of
the same total capacity, and all internal levels use 64 B lines so that
internal and LLC line granularity match.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import GpuCachesConfig, LINE_BYTES
from repro.gpu.framebuffer import (KIND_COLOR, KIND_DEPTH, KIND_SHADERI,
                                   KIND_TEX, KIND_VERTEX, KIND_ZHIER)
from repro.mem.cache import Cache
from repro.sim.stats import StatSet


def _mk(cfg, mem_scale: int = 1) -> Cache:
    """Build an internal cache with 64 B lines.

    Capacities of the larger internal caches shrink by ``mem_scale``
    (same preset scaling as the LLC), floored at 2 KB; geometry is
    re-derived so the set count stays a power of two.
    """
    size = cfg.size_bytes
    if mem_scale > 1 and size > 16 * 1024:
        size = max(size // mem_scale, 2 * 1024)
    ways = max(min(cfg.ways, 64), 2)
    lines = size // LINE_BYTES
    ways = min(ways, lines)
    sets = 1
    while sets * 2 * ways <= lines:
        sets *= 2
    c = replace(cfg, line_bytes=LINE_BYTES, ways=ways,
                size_bytes=sets * ways * LINE_BYTES)
    return Cache(c)


class GpuCacheHierarchy:
    """Functional filter: access -> (needs LLC read?, writeback addrs)."""

    def __init__(self, cfg: GpuCachesConfig, mem_scale: int = 1):
        self.tex_l0 = _mk(cfg.tex_l0)
        self.tex_l1 = _mk(cfg.tex_l1, mem_scale)
        self.tex_l2 = _mk(cfg.tex_l2, mem_scale)
        self.depth_l1 = _mk(cfg.depth_l1)
        self.depth_l2 = _mk(cfg.depth_l2, mem_scale)
        self.color_l1 = _mk(cfg.color_l1)
        self.color_l2 = _mk(cfg.color_l2, mem_scale)
        self.vertex = _mk(cfg.vertex)
        self.zhier = _mk(cfg.zhier)
        self.shader_i = _mk(cfg.shader_i, mem_scale)
        self.stats = StatSet("gpu_caches")
        self._filtered = self.stats.counter("internal_hits")
        self._llc_reads = self.stats.counter("llc_reads")
        self._llc_writes = self.stats.counter("llc_writebacks")

    # -- per-kind walks ----------------------------------------------------

    def _read_chain(self, addr: int, *levels: Cache) -> bool:
        """Read through a multi-level read-only chain.

        Returns True if an LLC read is needed (missed everywhere).
        Misses allocate at every level on the way (fill-on-return).
        """
        for lvl in levels:
            if lvl.lookup(addr) is not None:
                self._filtered.value += 1
                return False
        for lvl in levels:
            lvl.allocate(addr, owner="gpu")
        self._llc_reads.value += 1
        return True

    def _rop_access(self, addr: int, write: bool, l1: Cache, l2: Cache,
                    kind: str,
                    write_allocate_no_fetch: bool) -> tuple[bool, list]:
        """Depth/colour read-modify-write path with dirty writebacks."""
        wbs: list[tuple[int, str]] = []
        line = l1.lookup(addr, write=write)
        if line is not None:
            self._filtered.value += 1
            return False, wbs
        l2_line = l2.lookup(addr, write=write)
        if l2_line is not None:
            self._filtered.value += 1
            ev = l1.allocate(addr, write=write, owner="gpu", kind=kind)
            if ev is not None and ev.dirty:
                # L1 victim folds into L2 (both internal)
                l2.allocate(ev.addr, write=True, owner="gpu", kind=kind)
            return False, wbs
        # missed the internal hierarchy
        ev2 = l2.allocate(addr, write=write, owner="gpu", kind=kind)
        if ev2 is not None and ev2.dirty:
            wbs.append((ev2.addr, kind))
            self._llc_writes.value += 1
        ev1 = l1.allocate(addr, write=write, owner="gpu", kind=kind)
        if ev1 is not None and ev1.dirty:
            l2_ev = self._fold_into_l2(l2, ev1.addr, kind)
            if l2_ev is not None:
                wbs.append(l2_ev)
        if write and write_allocate_no_fetch:
            return False, wbs        # full-line overwrite: no fetch
        self._llc_reads.value += 1
        return True, wbs

    def _fold_into_l2(self, l2: Cache, addr: int, kind: str):
        ev = l2.allocate(addr, write=True, owner="gpu", kind=kind)
        if ev is not None and ev.dirty:
            self._llc_writes.value += 1
            return (ev.addr, kind)
        return None

    # -- public entry point -------------------------------------------------

    def access(self, kind: int, addr: int,
               write: bool) -> tuple[bool, list[tuple[int, str]]]:
        """Returns ``(llc_read_needed, [(writeback_addr, kind), ...])``."""
        if kind == KIND_TEX:
            return self._read_chain(addr, self.tex_l0, self.tex_l1,
                                    self.tex_l2), []
        if kind == KIND_DEPTH:
            return self._rop_access(addr, write, self.depth_l1,
                                    self.depth_l2, "depth",
                                    write_allocate_no_fetch=False)
        if kind == KIND_COLOR:
            return self._rop_access(addr, write, self.color_l1,
                                    self.color_l2, "color",
                                    write_allocate_no_fetch=True)
        if kind == KIND_VERTEX:
            return self._read_chain(addr, self.vertex), []
        if kind == KIND_ZHIER:
            return self._read_chain(addr, self.zhier), []
        if kind == KIND_SHADERI:
            return self._read_chain(addr, self.shader_i), []
        raise ValueError(f"unknown GPU access kind {kind}")

    def flush_rop(self) -> list[tuple[int, str]]:
        """End-of-frame flush of dirty ROP lines (footnote 6 behaviour).

        Writebacks leave cache by cache, set by set, each set in fill
        order (:meth:`Cache.clean_dirty`): their order fixes the LLC's
        arrival order, so results depend on it, and an LRU set's own
        order is recency, not fill."""
        wbs: list[tuple[int, str]] = []
        for cache, kind in ((self.color_l1, "color"),
                            (self.color_l2, "color"),
                            (self.depth_l1, "depth"),
                            (self.depth_l2, "depth")):
            wbs.extend((addr, kind) for addr in cache.clean_dirty())
        self._llc_writes.value += len(wbs)
        return wbs
