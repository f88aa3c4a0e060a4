"""Unit + property tests for the functional set-associative cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.mem.cache import Cache, Line


def small_cache(sets=4, ways=2, line=64, policy="lru"):
    return Cache(CacheConfig("t", sets * ways * line, ways,
                             line_bytes=line, policy=policy))


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheConfig("bad", 1000, 3, line_bytes=64).sets
    with pytest.raises(ValueError):
        Cache(CacheConfig("bad2", 3 * 64 * 3, 3, line_bytes=64))


def test_miss_then_hit():
    c = small_cache()
    assert c.lookup(0x1000) is None
    c.allocate(0x1000, owner="cpu0")
    assert c.lookup(0x1000) is not None
    assert c.hits == 1 and c.misses == 1


def test_same_line_aliases():
    c = small_cache()
    c.allocate(0x1000, owner="cpu0")
    assert c.lookup(0x1000 + 63) is not None   # same 64B line
    assert c.lookup(0x1000 + 64) is None       # next line


def test_eviction_on_full_set():
    c = small_cache(sets=1, ways=2)
    c.allocate(0 * 64, owner="cpu0")
    c.allocate(1 * 64, owner="cpu0")
    ev = c.allocate(2 * 64, owner="cpu0")
    assert ev is not None
    assert ev.addr == 0                        # LRU victim
    assert c.occupancy() == 2


def test_dirty_eviction_reports_dirty():
    c = small_cache(sets=1, ways=1)
    c.allocate(0, write=True, owner="cpu0")
    ev = c.allocate(64, owner="cpu0")
    assert ev.dirty
    assert ev.owner == "cpu0"


def test_write_lookup_sets_dirty():
    c = small_cache()
    c.allocate(0x40, owner="gpu")
    line = c.lookup(0x40, write=True)
    assert line.dirty


def test_allocate_existing_line_touches_not_evicts():
    c = small_cache(sets=1, ways=2)
    c.allocate(0, owner="cpu0")
    c.allocate(64, owner="cpu0")
    assert c.allocate(0, owner="cpu0") is None
    # 0 is now MRU; allocating a third line evicts 64
    ev = c.allocate(128, owner="cpu0")
    assert ev.addr == 64


def test_invalidate():
    c = small_cache()
    c.allocate(0x80, write=True, owner="cpu1")
    line = c.invalidate(0x80)
    assert line is not None and line.dirty
    assert c.probe(0x80) is None
    assert c.invalidate(0x80) is None


def test_probe_does_not_update_lru():
    c = small_cache(sets=1, ways=2)
    c.allocate(0, owner="cpu0")
    c.allocate(64, owner="cpu0")
    c.probe(0)                 # must NOT refresh line 0
    ev = c.allocate(128, owner="cpu0")
    assert ev.addr == 0


def test_occupancy_by_owner_and_flush():
    c = small_cache(sets=4, ways=2)
    c.allocate(0, owner="gpu")
    c.allocate(64, owner="gpu")
    c.allocate(128, owner="cpu0")
    occ = c.occupancy_by_owner()
    assert occ == {"gpu": 2, "cpu0": 1}
    assert c.flush_owner("gpu") == 2
    assert c.occupancy() == 1


def test_set_index_uses_low_line_bits():
    c = small_cache(sets=4, ways=2)
    assert c.set_index(0) == 0
    assert c.set_index(64) == 1
    assert c.set_index(4 * 64) == 0


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                min_size=1, max_size=300),
       st.sampled_from(["lru", "srrip"]))
def test_property_occupancy_never_exceeds_capacity(ops, policy):
    c = small_cache(sets=2, ways=4, policy=policy)
    present = set()
    for line_idx, write in ops:
        addr = line_idx * 64
        if c.lookup(addr, write=write) is None:
            ev = c.allocate(addr, write=write, owner="cpu0")
            present.add(addr)
            if ev is not None:
                assert ev.addr in present
                present.discard(ev.addr)
        # invariants
        assert c.occupancy() == len(present)
        assert c.occupancy() <= 8
        for s in c._sets:
            assert len(s) <= 4


@settings(max_examples=30)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
def test_property_present_line_always_hits(ops):
    c = small_cache(sets=2, ways=4)
    for line_idx in ops:
        addr = line_idx * 64
        probed = c.probe(addr)
        hit = c.lookup(addr)
        assert (probed is None) == (hit is None)
        if hit is None:
            c.allocate(addr, owner="cpu0")
        assert c.probe(addr) is not None


# -- LRU against the stamp reference -------------------------------------

class StampLruCache:
    """Reference LRU: every fill and hit takes a fresh global stamp, the
    victim is the set's smallest stamp (a scan), and each set dict stays
    in fill order.  Same interface as :class:`Cache` for the operations
    the differential test drives."""

    def __init__(self, sets, ways, line=64):
        self.ways = ways
        self.shift = line.bit_length() - 1
        self.mask = sets - 1
        self.sets = [dict() for _ in range(sets)]
        self.stamp = 0
        self.counts = {"hits": 0, "misses": 0, "evictions_dirty": 0,
                       "evictions_clean": 0}

    def _set(self, addr):
        tag = addr >> self.shift
        return tag, self.sets[tag & self.mask]

    def _use(self, line):
        self.stamp += 1
        line.repl = self.stamp

    def probe(self, addr):
        tag, s = self._set(addr)
        return s.get(tag)

    def lookup(self, addr, write=False):
        tag, s = self._set(addr)
        line = s.get(tag)
        if line is None:
            self.counts["misses"] += 1
            return None
        self.counts["hits"] += 1
        self._use(line)
        line.reused = True
        if write:
            line.dirty = True
        return line

    def allocate(self, addr, *, write=False, owner="cpu0", kind="data"):
        tag, s = self._set(addr)
        line = s.get(tag)
        if line is not None:
            self._use(line)
            if write:
                line.dirty = True
            return None
        evicted = None
        if len(s) >= self.ways:
            victim = min(s.values(), key=lambda ln: ln.repl)
            del s[victim.tag]
            self.counts["evictions_dirty" if victim.dirty
                        else "evictions_clean"] += 1
            evicted = (victim.tag << self.shift, victim.dirty,
                       victim.owner, victim.kind, victim.reused)
        line = Line(tag, owner, kind)
        line.dirty = write
        s[tag] = line
        self._use(line)
        return evicted

    def invalidate(self, addr):
        tag, s = self._set(addr)
        return s.pop(tag, None)

    def clean_dirty(self):
        out = []
        for s in self.sets:
            for ln in s.values():
                if ln.dirty:
                    ln.dirty = False
                    out.append(ln.tag << self.shift)
        return out


def _flags(line):
    return None if line is None else (line.dirty, line.reused)


#: 12 lines over 2 sets of 4 ways: sets fill up and evict within a few
#: dozen operations, so recency and fill order soon disagree
_LINES = st.integers(0, 11)
_ALLOCATE = st.tuples(st.just("allocate"), _LINES, st.booleans(),
                      st.sampled_from(["cpu0", "cpu1", "gpu"]))
_OPS = st.one_of(
    st.tuples(st.just("lookup"), _LINES, st.booleans()),
    _ALLOCATE, _ALLOCATE,
    st.tuples(st.just("probe"), _LINES),
    st.tuples(st.just("invalidate"), _LINES),
    st.tuples(st.just("clean_dirty"),))


@settings(max_examples=200)
@given(st.lists(_OPS, min_size=20, max_size=200))
def test_property_lru_matches_stamp_reference(ops):
    """Hits, misses, victims, dirty and reused flags, the fill-order
    write-back and every counter agree with the stamp-and-scan LRU."""
    c = small_cache(sets=2, ways=4)
    ref = StampLruCache(sets=2, ways=4)
    for op, *args in ops:
        if op == "clean_dirty":
            assert c.clean_dirty() == ref.clean_dirty()
            continue
        addr = args[0] * 64
        if op == "lookup":
            got = c.lookup(addr, write=args[1])
            assert _flags(got) == _flags(ref.lookup(addr, write=args[1]))
        elif op == "probe":
            assert _flags(c.probe(addr)) == _flags(ref.probe(addr))
        elif op == "allocate":
            ev = c.allocate(addr, write=args[1], owner=args[2])
            want = ref.allocate(addr, write=args[1], owner=args[2])
            assert (None if ev is None else
                    (ev.addr, ev.dirty, ev.owner, ev.kind, ev.reused)) \
                == want
        else:
            assert _flags(c.invalidate(addr)) == \
                _flags(ref.invalidate(addr))
    assert c.stats.snapshot() == ref.counts


def test_lru_refuses_an_insertion_override():
    c = small_cache()
    with pytest.raises(ValueError):
        c.allocate(0x40, repl_override=3)
    assert c.probe(0x40) is None
