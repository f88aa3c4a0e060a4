"""What each workload runs, and how its outputs are checked.

Imported by the fresh interpreters that ``run.py`` launches
(``child.py``) and by ``record.py``.  ``repro`` modules are imported
inside the functions, so that a workload's set-up phase in ``child.py``
stays the only place its entry modules are first imported.

Outputs are checked against ``digests.json``: SHA-256 digests of every
``RunResult``, every figure dict and every probe output, recorded per
workload seed by ``record.py``.  ``run.py`` draws every pass's workload
seed from ``--seed`` among the recorded ones (``run.pass_seeds``), so a
run on any ``--seed`` is checked.  A workload seed with no recorded
digests is reported as unchecked, never as passed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import traceback

SCALE = "smoke"

#: figure name -> keyword arguments of its ``repro.analysis.experiments``
#: entry point
FIGURE_ARGS = {
    "fig1": {"mixes": ["W8", "W13"]},
    "fig12": {"mixes": ["M13"],
              "policies": ["baseline", "sms-0.9", "throtcpuprio"]},
}

#: the figures each figure workload regenerates, in order
FIGURES = {
    "figures-cold": ("fig1", "fig12"),
    "figures-jobs2": ("fig1", "fig12"),
    "edit-rerun": ("fig1",),
}

RECORDED_MIX = "M13"
RECORDED_POLICIES = ("baseline", "throtcpuprio")
SPAN_SAMPLE_EVERY = 64

#: modules a workload imports before it is ready (``child.py`` times this)
ENTRY_MODULES = {
    "figures": ("repro.analysis.experiments", "repro.sim.runner",
                "repro.exec"),
    "recorded": ("repro.sim.runner", "repro.exec", "repro.telemetry",
                 "repro.spans", "repro.guard", "repro.analysis.timeline",
                 "repro.analysis.latency"),
}

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def entry_modules(workload: str) -> tuple:
    return ENTRY_MODULES["recorded" if workload == "recorded"
                         else "figures"]


# -- specs -------------------------------------------------------------------

def figure_specs(figure: str, seed: int) -> list:
    """The ``RunSpec``s a figure reads, built the way its entry point
    builds them (``prefetch`` in ``repro.analysis.experiments``)."""
    from repro.exec import mix_spec, standalone_cpu_spec, standalone_gpu_spec
    from repro.mixes import mix as mix_by_name

    mixes = FIGURE_ARGS[figure]["mixes"]
    if figure == "fig1":
        specs = [mix_spec(n, "baseline", SCALE, seed) for n in mixes]
        apps = sorted({a for n in mixes for a in mix_by_name(n).cpu_apps})
        specs += [standalone_cpu_spec(a, SCALE, seed) for a in apps]
        games = dict.fromkeys(mix_by_name(n).gpu_app for n in mixes)
        specs += [standalone_gpu_spec(g, SCALE, seed) for g in games]
        return specs
    policies = FIGURE_ARGS[figure]["policies"]
    specs = [mix_spec(n, p, SCALE, seed) for n in mixes for p in policies]
    apps = sorted({a for n in mixes for a in mix_by_name(n).cpu_apps})
    specs += [standalone_cpu_spec(a, SCALE, seed) for a in apps]
    return specs


def workload_specs(workload: str, seed: int) -> list:
    """Every distinct spec a workload simulates, in first-use order."""
    if workload == "recorded":
        from repro.exec import mix_spec
        return [mix_spec(RECORDED_MIX, p, SCALE, seed)
                for p in RECORDED_POLICIES]
    seen: dict = {}
    for figure in FIGURES[workload]:
        for spec in figure_specs(figure, seed):
            seen.setdefault(spec_key(spec), spec)
    return list(seen.values())


def spec_key(spec) -> str:
    """``mix/policy``: the seed-free name of a spec in ``digests.json``."""
    return f"{spec.resolved_mix().name}/{spec.policy}"


def sim_class(key: str) -> str:
    """Bucket a ``mix/policy`` key into the ``sim.run_s.*`` classes."""
    mix, _, policy = key.partition("/")
    if mix.startswith("alone-"):
        return "alone"
    if mix.startswith("W"):
        return "W"
    if policy.startswith("sms"):
        return "M-sms"
    if policy.startswith("throt"):
        return "M-throttle"
    return "M-frfcfs"


# -- digests -----------------------------------------------------------------

def digest(obj) -> str:
    """SHA-256 of a canonical JSON rendering (dataclasses as dicts;
    floats by ``repr``, which round-trips exactly)."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_digests(path: str = DIGESTS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Operations attempted and failed, with the reason for each failure.

    ``expected`` is the seed's entry of ``digests.json`` or ``None``;
    without it digests cannot be compared and the run is ``unchecked``.
    """

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.unchecked = expected is None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, op: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{op}: {why}")

    def op(self, section: str, name: str, actual: str | None,
           error: str | None = None) -> None:
        """One operation: it fails on ``error``, on a missing output, or
        on a digest that differs from the recorded one."""
        self.attempted += 1
        label = f"{section}/{name}"
        if error is not None:
            self.fail(label, error.strip().splitlines()[-1])
        elif actual is None:
            self.fail(label, "no output")
        elif self.expected is not None:
            want = self.expected.get(section, {}).get(name)
            if want is None:
                self.fail(label, "no recorded digest")
            elif want != actual:
                self.fail(label, f"digest {actual[:12]} != recorded "
                                 f"{want[:12]}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "unchecked": self.unchecked, "problems": self.problems}


def expected_for(seed: int, path: str = DIGESTS_PATH) -> dict | None:
    return load_digests(path).get("seeds", {}).get(str(seed))


# -- figure workloads ----------------------------------------------------------

def run_figures(workload: str, seed: int) -> tuple[dict, dict]:
    """Regenerate the workload's figures; returns ``(figures, errors)``."""
    from repro.analysis import experiments

    figures, errors = {}, {}
    for name in FIGURES[workload]:
        try:
            figures[name] = getattr(experiments, name)(
                scale=SCALE, seed=seed, **FIGURE_ARGS[name])
        except Exception:
            errors[name] = traceback.format_exc()
    return figures, errors


def check_figures(workload: str, seed: int, figures: dict, errors: dict,
                  store_root: str, checks: Checks) -> None:
    """One operation per figure dict and one per spec result, the
    latter read back from the persisted store."""
    from repro.exec import ResultCache

    store = ResultCache(root=store_root)
    for spec in workload_specs(workload, seed):
        result, _source = store.get(spec)
        checks.op("runs", spec_key(spec),
                  None if result is None else digest(result))
    for name in FIGURES[workload]:
        checks.op("figures", name,
                  digest(figures[name]) if name in figures else None,
                  errors.get(name))


# -- the recorded (probed) workload ---------------------------------------------

def recorded_paths(outdir: str, policy: str) -> tuple[str, str]:
    return (os.path.join(outdir, f"telemetry-{policy}.jsonl"),
            os.path.join(outdir, f"spans-{policy}.jsonl"))


def record_one(policy: str, seed: int, outdir: str) -> dict:
    """One probed ``run_system`` call: telemetry file, sampled spans,
    invariant monitor."""
    from repro.config import default_config
    from repro.guard import InvariantMonitor
    from repro.mixes import mix as mix_by_name
    from repro.sim.runner import run_system
    from repro.spans import SpanTracer
    from repro.telemetry import Telemetry

    m = mix_by_name(RECORDED_MIX)
    cfg = default_config(scale=SCALE, n_cpus=m.n_cpus, seed=seed)
    tel_path, span_path = recorded_paths(outdir, policy)
    tel = Telemetry.to_file(tel_path)
    tracer = SpanTracer(sample_every=SPAN_SAMPLE_EVERY, path=span_path)
    monitor = InvariantMonitor()
    out = {"policy": policy, "result": None, "error": None}
    t0 = time.perf_counter()
    try:
        out["result"] = run_system(cfg, m, policy, telemetry=tel,
                                   tracer=tracer, monitor=monitor)
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        tel.close()
        tracer.close()
    out["run_s"] = time.perf_counter() - t0
    out["telemetry_records"] = tel.count()
    out["spans_finished"] = tracer.finished
    out["guard_checks"] = monitor.report().checks_run
    return out


def run_recorded(seed: int, outdir: str) -> dict:
    """The latency-attribution workflow of EXPERIMENTS.md: record both
    policies, load the recordings back, compare the span stage shares."""
    return load_recorded(
        [record_one(p, seed, outdir) for p in RECORDED_POLICIES], outdir)


def load_recorded(runs: list, outdir: str) -> dict:
    """Load each recording and compare the two policies' stage shares."""
    from repro.analysis import latency
    from repro.analysis.latency import SpanReport
    from repro.analysis.timeline import Timeline

    loaded = {}
    for run in runs:
        tel_path, span_path = recorded_paths(outdir, run["policy"])
        for kind, loader, path in (("telemetry", Timeline.load, tel_path),
                                   ("spans", SpanReport.load, span_path)):
            try:
                loaded[kind, run["policy"]] = (loader(path), None)
            except Exception:
                loaded[kind, run["policy"]] = (None,
                                               traceback.format_exc())
    reports = [loaded["spans", p][0] for p in RECORDED_POLICIES]
    rows, error = None, None
    if all(r is not None for r in reports):
        try:
            rows = latency.compare(*reports)
        except Exception:
            error = traceback.format_exc()
    else:
        error = "a span recording failed to load"
    return {"runs": runs, "loaded": loaded, "compare": rows,
            "compare_error": error}


def check_recorded(out: dict, outdir: str, checks: Checks) -> None:
    """Per policy: the probed result against the *unprobed* digest of
    the same spec (results may not depend on instrumentation), and each
    recording loaded in full; then the stage-share comparison."""
    for run in out["runs"]:
        policy = run["policy"]
        result = run["result"]
        checks.op("runs", f"{RECORDED_MIX}/{policy}",
                  None if result is None else digest(result), run["error"])
        paths = dict(zip(("telemetry", "spans"),
                         recorded_paths(outdir, policy)))
        for kind in ("telemetry", "spans"):
            loaded, error = out["loaded"][kind, policy]
            if loaded is not None:
                expect = (run["telemetry_records"] if kind == "telemetry"
                          else run["spans_finished"])
                got = len(loaded) if kind == "telemetry" \
                    else len(loaded.spans)
                if loaded.skipped_lines:
                    error = f"{loaded.skipped_lines} malformed line(s)"
                elif got != expect:
                    error = f"loaded {got} rows, recorded {expect}"
            checks.op("recorded", f"{kind}/{policy}",
                      file_digest(paths[kind]) if loaded is not None
                      else None, error)
    rows = out["compare"]
    if rows is not None and not rows:
        out["compare_error"] = "empty stage comparison"
    checks.op("recorded", "compare",
              None if rows is None else digest(rows), out["compare_error"])


def probe_counts(out: dict, outdir: str) -> dict:
    """Work the probes did in one recorded run (the ``recorded``-only
    per-layer metrics)."""
    counts = {"telemetry.records": 0, "telemetry.bytes": 0,
              "spans.rows": 0, "spans.bytes": 0, "guard.checks": 0}
    for run in out["runs"]:
        tel_path, span_path = recorded_paths(outdir, run["policy"])
        counts["telemetry.records"] += run["telemetry_records"]
        counts["guard.checks"] += run["guard_checks"]
        for key, path in (("telemetry.bytes", tel_path),
                          ("spans.bytes", span_path)):
            if os.path.exists(path):
                counts[key] += os.path.getsize(path)
        report = out["loaded"]["spans", run["policy"]][0]
        if report is not None:
            counts["spans.rows"] += (len(report.spans)
                                     + len(report.gauge_rows)
                                     + (1 if report.meta else 0))
    return counts
