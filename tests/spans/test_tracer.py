"""Span lifecycle, sampling determinism, and stream format."""

import json

import pytest

from repro import default_config, mix, run_system
from repro.mem.request import MemRequest
from repro.spans import METRICS, STAGES, SpanTracer, stage_durations


def _trace(path, sample_every):
    """A smoke-scale, seed-1 baseline W8 run streaming sampled spans
    to ``path``."""
    m = mix("W8")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    with SpanTracer.to_file(str(path), sample_every=sample_every) as tracer:
        result = run_system(cfg, m, "baseline", tracer=tracer)
    return result, tracer


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("spans") / "w8.jsonl"
    result, tracer = _trace(path, sample_every=8)
    rows = [json.loads(line) for line in
            path.read_text().splitlines() if line]
    return result, tracer, rows


def test_spans_finish_and_stream(traced):
    _, tracer, rows = traced
    assert tracer.finished > 50
    spans = [r for r in rows if r["t"] == "span"]
    assert len(spans) == tracer.finished
    assert rows[0]["t"] == "meta"
    assert rows[0]["mix"] == "W8" and rows[0]["sample"] == 8


def test_stage_names_valid_and_stamps_monotone(traced):
    _, _, rows = traced
    for r in rows:
        if r["t"] != "span":
            continue
        names = [s for s, _ in r["stages"]]
        ticks = [t for _, t in r["stages"]]
        assert set(names) <= set(STAGES)
        assert names[0] == "issue" and names[-1] == "done"
        assert all(a <= b for a, b in zip(ticks, ticks[1:])), r


def test_miss_durations_partition_total(traced):
    _, _, rows = traced
    checked = 0
    for r in rows:
        if r["t"] != "span":
            continue
        cls, durs = stage_durations([(s, t) for s, t in r["stages"]])
        assert set(durs) <= set(METRICS)
        if cls == "miss" and "return_path" in durs:
            parts = (durs["ring_fwd"] + durs["llc_wait"] +
                     durs["to_dram"] + durs["dram_queue"] +
                     durs["bank_service"] + durs["return_path"])
            assert parts == durs["total"], r
            checked += 1
    assert checked > 10


def test_both_sides_and_gauges_observed(traced):
    _, tracer, rows = traced
    srcs = {r["src"] for r in rows if r["t"] == "span"}
    assert "gpu" in srcs
    assert any(s.startswith("cpu") for s in srcs)
    gauge_names = {r["name"] for r in rows if r["t"] == "gauge"}
    assert {"llc_mshr", "dram_queue", "dram_bank_queue"} <= gauge_names
    assert set(tracer.gauges) == gauge_names


def test_sampling_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _trace(p1, sample_every=32)
    _trace(p2, sample_every=32)
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_rate_bounds_span_count(traced):
    _, tracer, _ = traced
    coarse = SpanTracer(sample_every=10_000)
    # 1-in-8 sampled ~1/8 of eligible requests; a 1-in-10000 tracer on
    # the same run would have sampled at most a handful
    assert tracer.started <= tracer._eligible // 8 + 1
    assert coarse.sample_every == 10_000


def test_writes_and_callbackless_requests_ineligible():
    tr = SpanTracer(sample_every=1)
    wb = MemRequest(0x40, True, "cpu0", "writeback")
    rd = MemRequest(0x80, False, "cpu0", "load")   # no on_done
    tr.maybe_start(wb, 0)
    tr.maybe_start(rd, 0)
    assert wb.span is None and rd.span is None and tr.started == 0


def test_sample_every_validated():
    with pytest.raises(ValueError):
        SpanTracer(sample_every=0)


def test_format_report_mentions_stages(traced):
    _, tracer, _ = traced
    rep = tracer.format_report()
    assert "dram_queue" in rep and "cpu:" in rep and "gpu:" in rep
