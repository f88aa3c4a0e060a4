"""End-to-end recordings: system wiring, CLI, and timeline round-trip."""

import pytest

from repro import default_config, mix, run_system
from repro.__main__ import main
from repro.analysis.timeline import Timeline
from repro.exec import standalone_gpu_spec
from repro.telemetry import Telemetry
from repro.telemetry.sinks import ListSink


def _record(mix_name, policy, tel=None, predictor="rtp"):
    """One smoke-scale, seed-1 run of a Table III mix with ``tel``
    (default: an in-memory recorder) attached."""
    tel = Telemetry() if tel is None else tel
    m = mix(mix_name)
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus,
                         seed=1).with_qos(predictor=predictor)
    result = run_system(cfg, m, policy, telemetry=tel)
    tel.close()
    return result, tel


def test_recorded_mix_emits_control_loop_events():
    r, tel = _record("W8", "throtcpuprio")
    counts = tel.counts()
    assert counts["run_meta"] == 1
    assert counts["frame"] >= r.frames_rendered
    assert counts["atu_update"] >= 1
    assert counts["llc_interval"] >= 1
    assert counts["dram_interval"] == counts["llc_interval"]
    assert counts["cpu_interval"] == counts["llc_interval"]
    meta = tel.records[0]
    assert meta["type"] == "run_meta"
    assert (meta["mix"], meta["policy"]) == ("W8", "throtcpuprio")
    # records come out in simulation order
    ticks = [rec["tick"] for rec in tel.records]
    assert ticks == sorted(ticks)


def test_recorded_baseline_has_no_control_events():
    _, tel = _record("W8", "baseline")
    counts = tel.counts()
    assert "atu_update" not in counts
    assert "gate" not in counts
    assert "dram_priority" not in counts
    assert counts["frame"] >= 1        # frames still recorded


def test_recorded_dynprio_emits_priority_flips():
    _, tel = _record("M7", "dynprio")
    flips = [r for r in tel.records if r["type"] == "dram_priority"]
    assert flips, "DynPrio never flipped DRAM priority at smoke scale"
    assert all(f["source"] == "dynprio" for f in flips)
    assert {f["mode"] for f in flips} <= {"cpu_high", "equal", "gpu_high"}


@pytest.mark.parametrize("predictor", ["rtp", "rls"])
def test_timeline_scores_every_predictor(predictor):
    """The timeline reads the reference extrapolator's ``frpu_error``
    records and the other predictors' ``predictor_error`` records alike:
    its per-frame errors are the run's own ``frpu_errors``."""
    r, tel = _record("M7", "throtcpuprio", predictor=predictor)
    assert r.predictor == predictor and r.frpu_errors
    tl = Timeline.from_telemetry(tel)
    scored = [row["error_pct"] for row in tl.per_frame_table()
              if row["error_pct"] is not None]
    assert scored == r.frpu_errors
    summary = tl.summary()
    assert summary["frpu_predictions"] == len(r.frpu_errors)
    assert summary["frpu_mean_abs_error_pct"] == pytest.approx(
        sum(abs(e) for e in r.frpu_errors) / len(r.frpu_errors))


def test_recorded_standalone_gpu():
    spec = standalone_gpu_spec("DOOM3", "smoke", 1)
    with Telemetry() as tel:
        r = run_system(spec.resolved_cfg(), spec.resolved_mix(),
                       spec.policy, telemetry=tel)
    assert r.fps > 0
    assert tel.count("frame") >= 1


def test_custom_sampling_interval():
    _, coarse = _record("W8", "baseline",
                        Telemetry(sample_interval_ticks=65536))
    _, fine = _record("W8", "baseline",
                      Telemetry(sample_interval_ticks=4096))
    assert fine.count("llc_interval") > coarse.count("llc_interval")


def test_sampler_off_when_interval_zero():
    tel = Telemetry(sample_interval_ticks=0)
    tel.add_sink(ListSink())
    _, tel = _record("W8", "baseline", tel)
    assert tel.count("llc_interval") == 0
    assert tel.count("frame") >= 1


def test_cli_scale_test_jsonl_round_trip(tmp_path, capsys):
    """The acceptance path: a scale=test CLI recording contains FRPU
    phase transitions, ATU updates, and DRAM priority flips, and the
    timeline loads it into a per-frame table."""
    path = str(tmp_path / "run.jsonl")
    assert main(["run", "--mix", "W8", "--policy", "throtcpuprio",
                 "--scale", "test", "--telemetry", path]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out and "run.jsonl" in out

    tl = Timeline.load(path)
    assert tl.events("frpu_phase"), "no FRPU phase transition recorded"
    assert tl.events("atu_update"), "no ATU (N_G, W_G) update recorded"
    assert tl.events("dram_priority"), "no DRAM priority flip recorded"

    rows = tl.per_frame_table()
    assert len(rows) == len(tl.events("frame"))
    assert rows[0]["frame"] == 0
    assert all(row["cycles"] > 0 for row in rows)
    predicted = [row for row in rows if row["error_pct"] is not None]
    assert predicted, "no frame carries a prediction error"
    gated = [row for row in rows if row["gated"]]
    assert gated, "no frame overlaps a gate-open span"

    s = tl.summary()
    assert s["mix"] == "W8" and s["policy"] == "throtcpuprio"
    assert s["frames"] == len(rows)
    assert 0.0 < s["gating_duty_cycle"] <= 1.0
    assert "frame" in tl.format_table()


def test_cli_standalone_telemetry(tmp_path, capsys):
    path = str(tmp_path / "alone.csv")
    assert main(["standalone", "--game", "HL2", "--scale", "smoke",
                 "--telemetry", path]) == 0
    assert "telemetry:" in capsys.readouterr().out
    tl = Timeline.load(path)
    assert tl.events("frame")
    assert tl.meta["gpu_app"] == "HL2"
