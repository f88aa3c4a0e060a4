"""Unit + property tests for replacement policies.

LRU has no policy object (the cache keeps an LRU set in recency order),
so its tests drive a one-set :class:`Cache`; SRRIP and random are
tested as policy objects.
"""

import pytest
from hypothesis import given, strategies as st

from repro.config import CacheConfig
from repro.mem.cache import Cache, Line
from repro.mem.replacement import (SRRIP_MAX_RRPV, RandomPolicy,
                                   SrripPolicy, make_policy)

LINE = 64


def lines(n):
    return [Line(tag, "cpu0") for tag in range(n)]


def lru_set(n):
    """A one-set, ``n``-way LRU cache and its lines, filled in order."""
    c = Cache(CacheConfig("t", n * LINE, n, line_bytes=LINE, policy="lru"))
    for tag in range(n):
        c.allocate(tag * LINE)
    return c, [c.probe(tag * LINE) for tag in range(n)]


def touch(c, ln):
    assert c.lookup(ln.tag * LINE) is ln


def victim(c, ls):
    """The line of ``ls`` that the next fill evicts from ``c``."""
    ev = c.allocate(10_000 * LINE)
    return next(ln for ln in ls if ln.tag * LINE == ev.addr)


def ageing_victim(lines, max_rrpv):
    """SRRIP's victim search as the ageing loop: find the first line at
    ``max_rrpv``; with none there, age every line by one and retry."""
    while True:
        for ln in lines:
            if ln.repl >= max_rrpv:
                return ln
        for ln in lines:
            ln.repl += 1


def test_registry():
    assert make_policy("lru") is None
    assert isinstance(make_policy("srrip"), SrripPolicy)
    assert isinstance(make_policy("random"), RandomPolicy)
    with pytest.raises(KeyError):
        make_policy("belady")


def test_lru_victim_is_least_recent():
    c, ls = lru_set(4)
    touch(c, ls[0])            # 0 becomes most recent
    assert victim(c, ls) is ls[1]


def test_lru_fill_counts_as_use():
    c, ls = lru_set(3)         # filled 0, 1, 2
    assert victim(c, ls) is ls[0]


def test_srrip_insert_at_long_rereference():
    pol = SrripPolicy()
    ln = Line(1, "gpu")
    pol.on_fill(ln)
    assert ln.repl == 2        # max(3) - 1


def test_srrip_hit_promotes_to_zero():
    pol = SrripPolicy()
    ln = Line(1, "gpu")
    pol.on_fill(ln)
    pol.on_hit(ln)
    assert ln.repl == 0


def test_srrip_victim_prefers_max_rrpv_and_ages():
    pol = SrripPolicy()
    ls = lines(4)
    for ln in ls:
        pol.on_fill(ln)        # all at 2
    ls[3].repl = 3
    assert pol.victim(ls) is ls[3]
    # now none at 3: aging until one reaches it
    ls[3].repl = 0
    v = pol.victim(ls)
    assert v in ls[:3]
    assert v.repl == 3         # aged up to max


def test_random_is_seeded_deterministic():
    a = RandomPolicy(seed=42)
    b = RandomPolicy(seed=42)
    ls = lines(8)
    assert [a.victim(ls).tag for _ in range(20)] == \
        [b.victim(ls).tag for _ in range(20)]


@given(st.lists(st.integers(0, 15), min_size=1, max_size=200))
def test_property_lru_victim_matches_reference(ops):
    """LRU victim always equals the oldest-touched line of the set."""
    c, ls = lru_set(16)
    order = list(range(16))
    for t in ops:
        touch(c, ls[t])
        order.remove(t)
        order.append(t)
    assert victim(c, ls).tag == order[0]


@given(st.lists(st.integers(0, 7), min_size=5, max_size=40))
def test_property_srrip_rrpv_always_in_range(hits):
    pol = SrripPolicy()
    ls = lines(8)
    for ln in ls:
        pol.on_fill(ln)
        assert 0 <= ln.repl <= pol.max_rrpv
    for i in hits:
        v = pol.victim(ls)
        assert v.repl == pol.max_rrpv
        pol.on_hit(v)
        pol.on_hit(ls[i])
        for ln in ls:
            assert 0 <= ln.repl <= pol.max_rrpv


@given(st.lists(st.integers(0, SRRIP_MAX_RRPV), min_size=1, max_size=32))
def test_property_srrip_victim_equals_ageing_loop(rrpvs):
    """The one-pass victim picks the line the ageing loop picks and
    leaves every line at the RRPV the loop leaves it at."""
    fast, ref = lines(len(rrpvs)), lines(len(rrpvs))
    for a, b, r in zip(fast, ref, rrpvs):
        a.repl = b.repl = r
    # the cache hands the policy its set's values view, in fill order
    v = SrripPolicy().victim({ln.tag: ln for ln in fast}.values())
    w = ageing_victim(ref, SRRIP_MAX_RRPV)
    assert v.tag == w.tag
    assert [ln.repl for ln in fast] == [ln.repl for ln in ref]
