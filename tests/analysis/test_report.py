"""Tests for the ASCII report renderer."""

import pytest

from repro.analysis import report


def test_render_table1_contains_sections():
    out = report.render_table1("smoke")
    assert "Table I" in out
    assert "[llc]" in out
    assert "[dram]" in out


def test_render_table3():
    out = report.render_table3()
    assert "M1: 403,450,481,482" in out
    assert "UT3" in out


def test_render_fig_smoke(monkeypatch):
    # stub the experiment to keep this a unit test
    from repro.analysis import experiments

    def fake_fig1(scale="test", seed=1):
        return {"cpu": {"W1": 0.8}, "gpu": {"W1": 0.9},
                "gmean_cpu": 0.8, "gmean_gpu": 0.9}
    monkeypatch.setattr(experiments, "fig1", fake_fig1)
    out = report.render_fig("fig1", "smoke")
    assert "fig1 @ scale=smoke" in out
    assert "W1" in out
    assert "0.800" in out


def test_main_rejects_unknown_experiment(capsys):
    rc = report.main(["--experiment", "fig99", "--scale", "smoke"])
    assert rc == 2


def test_main_runs_table3(capsys):
    rc = report.main(["--experiment", "table3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table III" in out


def test_main_persists_cache_counters(tmp_path, monkeypatch, capsys):
    """A figure regenerated through ``python -m repro.analysis.report``
    shows up in ``python -m repro cache stats``."""
    from repro.__main__ import main as cli_main
    from repro.analysis import experiments
    from repro.exec import ResultCache, set_shared_cache
    from repro.sim.runner import standalone_cpu

    def fig1(scale="test", seed=1):
        ipc = standalone_cpu(403, scale=scale, seed=seed).cpu_ipcs[0]
        return {"cpu": {"W1": ipc}, "gpu": {"W1": 1.0},
                "gmean_cpu": ipc, "gmean_gpu": 1.0}

    monkeypatch.setattr(experiments, "fig1", fig1)
    old = set_shared_cache(ResultCache(root=str(tmp_path)))
    try:
        assert report.main(["--experiment", "fig1", "--scale",
                            "smoke"]) == 0
        set_shared_cache(ResultCache(root=str(tmp_path)))  # a new process
        capsys.readouterr()
        assert cli_main(["cache", "stats"]) == 0
    finally:
        set_shared_cache(old)
    out = capsys.readouterr().out
    assert "misses:     1" in out
    assert "stores:     1" in out


def test_bar_rendering():
    assert report._bar(0.0) == ""
    assert len(report._bar(2.0, unit=1.0, width=10)) == 10
