"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "DOOM3" in out
    assert "429" in out
    assert "throtcpuprio" in out


def test_standalone_requires_target(capsys):
    assert main(["standalone", "--scale", "smoke"]) == 2


def test_standalone_game(capsys):
    assert main(["standalone", "--game", "UT2004",
                 "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "UT2004" in out
    assert "FPS" in out


def test_standalone_spec(capsys):
    assert main(["standalone", "--spec", "403", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out


@pytest.mark.parametrize("argv", [
    ["run", "--telemetry", "t.jsonl", "--guard"],
    ["run", "--trace-spans", "s.jsonl", "--telemetry", "t.jsonl"],
    ["run", "--profile", "--trace-spans", "s.jsonl"],
    ["standalone", "--game", "UT2004", "--profile", "--telemetry",
     "t.jsonl"],
    ["standalone", "--spec", "403", "--trace-spans", "s.jsonl",
     "--telemetry", "t.jsonl"],
])
def test_probe_flags_refuse_combinations(argv, tmp_path, monkeypatch,
                                         capsys):
    """Each probe flag runs its own simulation: a combination is refused
    up front, naming the flags, instead of one flag silently winning."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scale", "smoke"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    probes = [a for a in argv if a in ("--profile", "--telemetry",
                                       "--trace-spans", "--guard")]
    assert all(flag in err for flag in probes)
    assert "not allowed with" in err
    assert list(tmp_path.iterdir()) == []       # nothing ran or wrote


def test_run_prints_result(capsys):
    assert main(["run", "--mix", "W8", "--policy", "baseline",
                 "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "mix=W8" in out
    assert "GPU HL2" in out
    assert "weighted speedup" in out


def test_trace_records_npz(tmp_path, capsys):
    out = tmp_path / "w8.npz"
    assert main(["trace", "--mix", "W8", "--out", str(out),
                 "--scale", "smoke"]) == 0
    assert out.exists()
    assert "recorded" in capsys.readouterr().out


def test_sweep_targets(capsys):
    assert main(["sweep", "--mix", "W8", "--targets", "40",
                 "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "target_fps=40" in out


def test_report_table3(capsys):
    assert main(["report", "--experiment", "table3",
                 "--scale", "smoke"]) == 0
    assert "Table III" in capsys.readouterr().out
