"""Unit tests for the GPU-internal cache hierarchy filter."""

import pytest

from repro.config import GpuCachesConfig
from repro.gpu.caches import GpuCacheHierarchy
from repro.gpu.framebuffer import (KIND_COLOR, KIND_DEPTH, KIND_SHADERI,
                                   KIND_TEX, KIND_VERTEX, KIND_ZHIER)


@pytest.fixture
def h():
    return GpuCacheHierarchy(GpuCachesConfig())


def test_texture_first_touch_misses_then_hits(h):
    need, wbs = h.access(KIND_TEX, 0x1000, False)
    assert need and wbs == []
    need, wbs = h.access(KIND_TEX, 0x1000, False)
    assert not need


def test_texture_chain_is_read_only(h):
    for i in range(2000):
        _, wbs = h.access(KIND_TEX, i * 64, False)
        assert wbs == []


def test_vertex_single_level(h):
    assert h.access(KIND_VERTEX, 0x2000, False)[0]
    assert not h.access(KIND_VERTEX, 0x2000, False)[0]


def test_color_write_miss_no_fetch(h):
    """Footnote 6: colour overwrites allocate dirty with no LLC read."""
    need, wbs = h.access(KIND_COLOR, 0x3000, True)
    assert not need
    assert wbs == []


def test_color_read_miss_fetches(h):
    need, _ = h.access(KIND_COLOR, 0x4000, False)
    assert need


def test_depth_write_miss_fetches(h):
    """Depth is read-modify-write: even write misses need the line."""
    need, _ = h.access(KIND_DEPTH, 0x5000, True)
    assert need


def test_dirty_rop_evictions_become_writebacks(h):
    wbs_seen = []
    # write far more distinct colour lines than the colour caches hold
    for i in range(4000):
        _, wbs = h.access(KIND_COLOR, i * 64, True)
        wbs_seen.extend(wbs)
    assert wbs_seen
    assert all(kind == "color" for _, kind in wbs_seen)


def test_flush_rop_returns_dirty_lines_once(h):
    h.access(KIND_COLOR, 0x6000, True)
    h.access(KIND_DEPTH, 0x7000, True)
    flushed = h.flush_rop()
    addrs = {a for a, _ in flushed}
    assert 0x6000 in addrs
    assert 0x7000 in addrs
    assert h.flush_rop() == []        # idempotent: all clean now


def test_flush_rop_writes_each_set_back_in_fill_order(h):
    """An LRU set is kept in recency order, but the flush leaves it in
    fill order: the writebacks reach the LLC in that order, and the
    M13 results depend on it."""
    l2 = h.color_l2
    stride = l2.n_sets * l2.line_bytes          # next line of the set
    a, b, c = (0x40000 + i * stride for i in range(3))
    for addr in (a, b, c):
        l2.allocate(addr, write=True, owner="gpu", kind="color")
    l2.lookup(a)
    l2.lookup(b)                                # recency: c, a, b
    assert h.flush_rop() == [(a, "color"), (b, "color"), (c, "color")]


def test_zhier_and_shader_i_paths(h):
    assert h.access(KIND_ZHIER, 0x8000, False)[0]
    assert not h.access(KIND_ZHIER, 0x8000, False)[0]
    assert h.access(KIND_SHADERI, 0x9000, False)[0]
    assert not h.access(KIND_SHADERI, 0x9000, False)[0]


def test_unknown_kind_raises(h):
    with pytest.raises(ValueError):
        h.access(42, 0, False)


def test_mem_scale_shrinks_shared_levels():
    full = GpuCacheHierarchy(GpuCachesConfig(), mem_scale=1)
    quarter = GpuCacheHierarchy(GpuCachesConfig(), mem_scale=4)
    assert quarter.tex_l2.cfg.size_bytes < full.tex_l2.cfg.size_bytes
    # tiny L0/L1 caches keep their size
    assert quarter.tex_l0.cfg.size_bytes == full.tex_l0.cfg.size_bytes


def test_filter_counts_accumulate(h):
    h.access(KIND_TEX, 0, False)
    h.access(KIND_TEX, 0, False)
    assert h.stats.get("llc_reads") == 1
    assert h.stats.get("internal_hits") == 1
