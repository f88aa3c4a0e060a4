"""Unit tests for Tables I-III regeneration."""

import pytest

from repro.analysis import tables
from repro.exec import BatchError
from repro.gpu.workloads import GAME_ORDER


def test_table1_structure():
    cfg = tables.table1("smoke")
    assert cfg["cpu"]["cores"] == 4
    assert cfg["cpu"]["clock_ghz"] == 4.0
    assert cfg["gpu"]["clock_ghz"] == 1.0
    assert cfg["llc"]["paper_bytes"] == 16 * 1024 * 1024
    assert cfg["llc"]["inclusive_for"] == "cpu"
    assert cfg["dram"]["channels"] == 2
    assert "tex_l2" in cfg["gpu"]["caches"]


def test_table2_rows(monkeypatch):
    # avoid 14 live runs in a unit test: stub the standalone runner
    from repro.sim import runner

    class R:
        fps = 33.3
    monkeypatch.setattr(runner, "standalone_gpu", lambda *a, **k: R())
    rows = tables.table2("smoke")
    assert [r["application"] for r in rows] == GAME_ORDER
    assert rows[0]["frames"] == "670-671"
    assert rows[6]["fps_paper"] == 81.0
    assert all(r["fps_measured"] == 33.3 for r in rows)


def test_table3_rows():
    rows = tables.table3()
    assert len(rows) == 14
    assert rows[0]["m_mix"].startswith("M1: 403,450,481,482")
    assert rows[0]["w_mix"].startswith("W1: 481")


def test_spec_profile_table():
    rows = tables.spec_profile_table()
    assert len(rows) == 13
    assert {r["id"] for r in rows} >= {401, 429, 462, 470}
    for r in rows:
        assert "hot" in r["streams"]


def test_latency_table_raises_on_a_failed_run():
    """A failed run is an error, not a row of 0.0 latencies."""
    with pytest.raises(BatchError, match="no-such-policy"):
        tables.latency_table(["W8"], policies=("baseline", "no-such-policy"),
                             scale="smoke")
