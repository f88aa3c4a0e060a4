"""Import-compat: ``repro.metrics.instruments`` re-exports the
``repro.spans.histogram`` primitives — one implementation, every
historical import path."""

import repro.metrics.instruments as instruments
import repro.spans
import repro.spans.histogram as shim


def test_shim_reexports_same_classes():
    assert shim.Histogram is instruments.Histogram
    assert shim.Gauge is instruments.Gauge
    assert shim.N_BUCKETS is instruments.N_BUCKETS


def test_spans_package_reexport():
    assert repro.spans.Histogram is instruments.Histogram
    assert repro.spans.Gauge is instruments.Gauge


def test_isinstance_across_paths():
    # an instrument built via the old path is the new type, and
    # merges with one built via the new path
    old = shim.Histogram()
    new = instruments.Histogram()
    old.record(8)
    new.record(8)
    new.merge(old)
    assert isinstance(old, instruments.Histogram)
    assert new.n == 2
