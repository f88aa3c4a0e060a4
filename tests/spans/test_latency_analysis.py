"""Offline span analysis: stage tables, timelines, comparisons."""

import pytest

from repro import default_config, mix, run_system
from repro.analysis.latency import (SpanReport, compare,
                                    format_comparison)
from repro.spans import SpanTracer


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    d = tmp_path_factory.mktemp("lat")
    m = mix("W8")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    out = {}
    for policy in ("baseline", "throtcpuprio"):
        path = str(d / f"{policy}.jsonl")
        with SpanTracer.to_file(path, sample_every=8) as tracer:
            run_system(cfg, m, policy, tracer=tracer)
        out[policy] = SpanReport.load(path)
    return out


def test_load_roundtrip(reports):
    rep = reports["baseline"]
    assert len(rep) > 50
    assert rep.meta["policy"] == "baseline"
    assert rep.gauge_names()                 # saw some occupancy


def test_stage_table_shares_sum_to_one_for_misses(reports):
    rep = reports["baseline"]
    for side in ("cpu", "gpu"):
        rows = {r["metric"]: r for r in rep.stage_table(side)}
        assert "total" in rows and rows["total"]["n"] > 0
        # every non-total share is a fraction of total cycles
        for m, r in rows.items():
            if m == "total":
                assert r["share"] is None
            else:
                assert 0.0 <= r["share"] <= 1.0
        assert rows["total"]["p50"] <= rows["total"]["p95"] \
            <= rows["total"]["p99"]


def test_class_mix_counts_match_span_count(reports):
    rep = reports["baseline"]
    total = sum(n for side in ("cpu", "gpu")
                for n in rep.class_mix(side).values())
    assert total == len(rep)


def test_queue_timeline_buckets(reports):
    rep = reports["baseline"]
    tl = rep.queue_timeline("dram_queue", buckets=8)
    assert 0 < len(tl) <= 8
    assert all(r["n"] > 0 and r["max"] >= r["mean"] for r in tl)
    by_bank = rep.queue_timeline("dram_bank_queue", buckets=4,
                                 facet="bank")
    assert all("bank" in r for r in by_bank)


def test_compare_reports_share_deltas(reports):
    rows = compare(reports["baseline"], reports["throtcpuprio"],
                   side="cpu")
    metrics = {r["metric"] for r in rows}
    assert "dram_queue" in metrics
    for r in rows:
        assert r["delta"] == pytest.approx(r["b_share"] - r["a_share"],
                                           abs=1e-6)
    text = format_comparison(reports["baseline"],
                             reports["throtcpuprio"])
    assert "baseline" in text and "throtcpuprio" in text


def test_format_report_renders(reports):
    text = reports["baseline"].format_report()
    assert "latency report" in text
    assert "dram_queue" in text and "occupancy timelines" in text
