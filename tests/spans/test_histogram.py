"""Invariants of the log2 histogram/gauge primitives."""

import random

import pytest

from repro.spans.histogram import Gauge, Histogram, N_BUCKETS


def test_bucket_count_is_pinned():
    assert N_BUCKETS == 65
    assert len(Histogram().counts) == N_BUCKETS


def test_log2_bucketing():
    h = Histogram()
    for v in (0, 1, 2, 3, 4, 1023, 1024):
        h.record(v)
    assert h.n == 7
    assert h.min == 0 and h.max == 1024
    assert sum(h.counts) == 7


def test_bucket_edges_are_monotone():
    uppers = [Histogram.bucket_upper(i) for i in range(N_BUCKETS)]
    assert uppers[0] == 0
    assert all(a < b for a, b in zip(uppers, uppers[1:]))


def test_record_places_value_in_covering_bucket():
    h = Histogram()
    for v in (0, 1, 2, 3, 4, 63, 64, 1023, 1024, 1 << 40):
        h.record(v)
        i = v.bit_length()
        lo = 0 if i == 0 else 1 << (i - 1)
        assert lo <= v <= Histogram.bucket_upper(i)
    assert h.n == 10


def test_negative_values_clamp_to_zero_bucket():
    h = Histogram()
    h.record(-5)
    assert h.counts[0] == 1
    assert h.min == 0 and h.total == 0


def test_percentiles_monotone_in_p():
    h = Histogram()
    rng = random.Random(7)
    for _ in range(500):
        h.record(rng.randrange(0, 100_000))
    ps = [h.percentile(p) for p in (0, 10, 50, 90, 95, 99, 100)]
    assert all(a <= b for a, b in zip(ps, ps[1:]))


def test_percentile_upper_bounds_true_order_statistic():
    h = Histogram()
    rng = random.Random(11)
    samples = sorted(rng.randrange(0, 10_000) for _ in range(1000))
    for v in samples:
        h.record(v)
    for p in (50, 95, 99):
        true = samples[min(int(p / 100 * len(samples)), len(samples) - 1)]
        assert h.percentile(p) >= true
    # ...and never above the observed max
    assert h.percentile(99) <= h.max


def test_empty_histogram_is_inert():
    h = Histogram()
    assert h.n == 0 and h.mean == 0.0 and h.percentile(95) == 0
    assert h.summary()["max"] == 0


def test_percentile_zero_is_exactly_the_min():
    # the generic bucket walk returns the first non-empty bucket's
    # *upper* edge, which overshoots whenever min is mid-bucket — p=0
    # must return the observed min itself
    h = Histogram()
    for v in (5, 9, 1000):                # 5 lands in bucket [4, 7]
        h.record(v)
    assert h.percentile(0) == h.min == 5
    assert h.percentile(0) <= h.percentile(0.001)


def test_percentile_hundred_is_exactly_the_max():
    h = Histogram()
    for v in (3, 70, 12345):
        h.record(v)
    assert h.percentile(100) == h.max == 12345


def test_percentile_rejects_out_of_range_p():
    h = Histogram()
    h.record(1)
    for bad in (-1, -0.001, 100.001, 200):
        with pytest.raises(ValueError):
            h.percentile(bad)
    empty = Histogram()                    # validation precedes n == 0
    with pytest.raises(ValueError):
        empty.percentile(-5)


def test_empty_percentile_consistent_with_summary():
    # every percentile of an empty histogram is 0, matching the 0
    # min/max summary() reports — no None leaking into one but not
    # the other
    h = Histogram()
    for p in (0, 50, 95, 100):
        assert h.percentile(p) == 0
    s = h.summary()
    assert s["min"] == s["max"] == s["p50"] == s["p95"] == 0


def test_percentile_properties_random_samples():
    # property-style sweep: for many random histograms, percentile is
    # monotone in p, bounded by [min, max], with exact endpoints
    rng = random.Random(42)
    for _ in range(50):
        h = Histogram()
        for _ in range(rng.randrange(1, 60)):
            h.record(rng.randrange(0, 1 << rng.randrange(1, 30)))
        ps = [0, 1, 25, 50, 75, 95, 99, 100]
        vals = [h.percentile(p) for p in ps]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == h.min and vals[-1] == h.max
        assert all(h.min <= v <= h.max for v in vals)


def test_merge_is_associative_and_matches_pooled():
    rng = random.Random(3)
    parts = [[rng.randrange(0, 1 << 20) for _ in range(200)]
             for _ in range(3)]
    hists = []
    for vals in parts:
        h = Histogram()
        for v in vals:
            h.record(v)
        hists.append(h)
    pooled = Histogram()
    for v in [v for vals in parts for v in vals]:
        pooled.record(v)
    left = hists[0].copy().merge(hists[1]).merge(hists[2])
    right = hists[0].copy().merge(hists[1].copy().merge(hists[2]))
    assert left == right == pooled
    assert left.mean == pytest.approx(pooled.mean)


def test_copy_is_independent():
    h = Histogram()
    h.record(10)
    c = h.copy()
    c.record(99)
    assert h.n == 1 and c.n == 2
    assert h != c


def test_gauge_tracks_last_and_distribution():
    g = Gauge("mshr")
    for v in (3, 9, 1):
        g.record(v)
    s = g.summary()
    assert g.last == 1
    assert s["n"] == 3 and s["max"] == 9 and s["last"] == 1
