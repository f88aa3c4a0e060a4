"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, workloads  # noqa: E402


def test_digest_check_catches_a_one_field_change():
    from repro.exec import standalone_cpu_spec

    spec = standalone_cpu_spec(462, workloads.SCALE, 1)
    result = spec.run()
    key = workloads.spec_key(spec)
    expected = workloads.expected_for(1)

    checks = workloads.Checks(expected)
    checks.op("runs", key, workloads.digest(result))
    assert (checks.attempted, checks.failed) == (1, 0)

    changed = dataclasses.replace(result, ticks=result.ticks + 1)
    checks.op("runs", key, workloads.digest(changed))
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.problems[0].startswith(f"runs/{key}: digest")


def test_unrecorded_seed_is_unchecked_not_passed():
    checks = workloads.Checks(workloads.expected_for(10 ** 9))
    checks.op("runs", "W8/baseline", "0" * 64)
    assert checks.unchecked and checks.failed == 0


def test_any_seed_runs_recorded_workload_seeds():
    """Every pass of a run on any ``--seed`` has recorded digests, so
    no run is unchecked; a run never repeats a workload seed."""
    recorded = set(workloads.load_digests()["seeds"])
    assert recorded == {str(s) for s in range(run.RECORDED_SEEDS)}
    for seed in (0, 1, 2, 40, 41, 1970251790, -7):
        seeds = run.pass_seeds(seed, run.MAX_PASSES)
        assert seeds[0] == seed % run.RECORDED_SEEDS
        assert len(set(seeds)) == len(seeds)
        assert {str(s) for s in seeds} <= recorded
    # runs on nearby --seed values share no workload seed
    assert not set(run.pass_seeds(1, 4)) & set(run.pass_seeds(10, 4))


def test_self_time_on_a_hand_built_span_tree():
    def span(sid, parent, start, end):
        return {"id": sid, "parent": parent, "start": start, "end": end}

    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 3.0),
        span("b", "root", 2.0, 5.0),      # overlaps a
        span("c", "root", 8.0, 12.0),     # runs past its parent's end
        span("a1", "a", 1.5, 2.5),        # grandchild: not root's child
    ]
    own = layers.self_times(spans)
    assert own["root"] == 10.0 - (4.0 + 2.0)
    assert own["a"] == 2.0 - 1.0
    assert own["b"] == 3.0
    assert own["c"] == 4.0
    assert own["a1"] == 1.0


def test_sim_class_bucketing():
    from repro.exec import mix_spec

    classes = {workloads.spec_key(s): workloads.sim_class(
        workloads.spec_key(s))
        for s in workloads.workload_specs("figures-cold", 1)}
    assert classes == {
        "W8/baseline": "W", "W13/baseline": "W",
        "alone-403/baseline": "alone", "alone-450/baseline": "alone",
        "alone-HL2/baseline": "alone", "alone-UT2004/baseline": "alone",
        "M13/baseline": "M-frfcfs", "M13/sms-0.9": "M-sms",
        "M13/throtcpuprio": "M-throttle",
        "alone-401/baseline": "alone", "alone-437/baseline": "alone",
        "alone-462/baseline": "alone", "alone-470/baseline": "alone",
    }
    assert workloads.sim_class(workloads.spec_key(
        mix_spec("M7", "sms-0", "smoke"))) == "M-sms"
    assert set(classes.values()) == set(layers.SIM_CLASSES)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.PER_LAYER
    judged = [w["name"] for w in bench["workloads"]]
    assert judged and set(judged) <= set(run.WORKLOADS)
    # every per-layer metric the harness derives itself is declared
    derived = set(layers.span_metrics([], [])) | set(
        layers.profile_metrics([]))
    assert derived <= set(run.PER_LAYER)


def test_reference_runs_no_package_code(tmp_path):
    """The host-speed reference must not move with the package: it may
    import nothing from ``repro`` (``-X importtime`` lists every import)."""
    out = tmp_path / "reference.json"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime",
         str(ROOT / "perfbench" / "child.py"),
         "--mode", "reference", "--workload", "recorded", "--seed", "1",
         "--out", str(out), "--work", str(tmp_path)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if "|" in line]
    assert imported and not [m for m in imported
                             if m.split(".")[0] in ("repro", "perfbench")]
    assert json.loads(out.read_text())["t_done"] > 0


def _tree(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_edit_rerun_leaves_src_untouched_and_no_default_store():
    run.build()
    before = _tree(ROOT / "src")
    stores = [ROOT / ".repro_cache", ROOT / "src" / ".repro_cache"]
    existed = [p.exists() for p in stores]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "edit-rerun", "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 7       # 6 spec results + the figure
    assert _tree(ROOT / "src") == before
    assert [p.exists() for p in stores] == existed


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures-cold",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
