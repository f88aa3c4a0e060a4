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


def test_standalone_refuses_game_and_spec_together(capsys):
    """One standalone run has one target: ``--game`` with ``--spec`` is
    refused, naming both flags, instead of ``--spec`` being dropped."""
    with pytest.raises(SystemExit) as exc:
        main(["standalone", "--game", "DOOM3", "--spec", "429",
              "--scale", "smoke"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--game" in err and "--spec" in err
    assert "not allowed with" in err


@pytest.mark.parametrize("argv", [
    ["run", "--mix", "W8", "--policy", "magic"],
    ["faults", "--policy", "magic", "--only", "worker-crash"],
    ["compare-predictors", "--mixes", "W8", "--policy", "magic"],
    ["compare", "--mix", "W8", "--policies", "baseline,magic"],
])
def test_unknown_policy_is_a_usage_error(argv, capsys):
    """A policy name outside the registry exits 2 before anything runs,
    listing the registry's names, instead of a ``KeyError`` traceback
    from ``make_policy`` (or a failed row from ``compare``)."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scale", "smoke"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "magic" in err
    assert "throtcpuprio" in err and "estimate" in err


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


@pytest.mark.parametrize("argv", [
    ["run", "--mix", "W8", "--span-sample", "8"],
    ["standalone", "--spec", "403", "--span-sample", "8"],
    ["run", "--mix", "W8", "--span-sample", "8", "--guard"],
])
def test_span_sample_needs_trace_spans(argv, tmp_path, monkeypatch,
                                       capsys):
    """A sampling rate with no span recording is refused up front,
    naming both flags, rather than silently ignored."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scale", "smoke"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--span-sample" in err and "--trace-spans" in err
    assert list(tmp_path.iterdir()) == []       # nothing ran or wrote


def test_span_sample_applies_to_trace_spans(tmp_path, capsys):
    spans = tmp_path / "s.jsonl"
    assert main(["standalone", "--spec", "403", "--scale", "smoke",
                 "--trace-spans", str(spans), "--span-sample", "8"]) == 0
    assert spans.stat().st_size > 0


def test_run_prints_result(capsys):
    assert main(["run", "--mix", "W8", "--policy", "baseline",
                 "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "mix=W8" in out
    assert "GPU HL2" in out
    assert "weighted speedup" in out


def _printed(argv, capsys):
    """Lines a command prints, minus its (nondeterministic) wall time."""
    assert main(argv) == 0
    return [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("  wall time:")]


@pytest.mark.parametrize("argv, probes", [
    (["run", "--mix", "W8", "--policy", "throtcpuprio", "--predictor",
      "rls"], ["--profile", "--telemetry", "--trace-spans", "--guard"]),
    (["standalone", "--game", "DOOM3"],
     ["--profile", "--telemetry", "--trace-spans"]),
    (["standalone", "--spec", "403"],
     ["--profile", "--telemetry", "--trace-spans"]),
], ids=["run", "standalone-game", "standalone-spec"])
def test_probe_flags_never_change_the_printed_result(argv, probes,
                                                     tmp_path, capsys):
    """A probe flag only appends its report: every line the unprobed
    command prints comes out of the probed one unchanged, first."""
    argv = argv + ["--scale", "smoke"]
    plain = _printed(argv, capsys)
    for flag in probes:
        probed = argv + [flag]
        if flag in ("--telemetry", "--trace-spans"):
            probed.append(str(tmp_path / f"{flag.lstrip('-')}.jsonl"))
        out = _printed(probed, capsys)
        assert out[:len(plain)] == plain, flag
        assert len(out) > len(plain), flag          # the probe reported


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
