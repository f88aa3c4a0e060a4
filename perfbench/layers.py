"""Per-layer measurement: spans around the layer entry points, self
time, and the profiled component pass.

The traced run wraps the public entry points of each layer from here,
without touching ``src/``:

* analysis -- the figure functions of ``repro.analysis.experiments``
  and the recording loaders the ``recorded`` workload calls;
* exec -- ``run_cached``/``run_many`` where ``experiments.py`` and
  ``sim/runner.py`` bind them by name, ``ResultCache.get``/``put``,
  ``RunSpec.key``/``run``;
* sim -- ``HeterogeneousSystem.__init__``/``run`` and ``Simulator.run``.

Spans record name, start, end, parent and the spec they serve, stay in
memory and are written as JSONL when the workload ends.  Forked
``--jobs`` workers inherit the wrappers; each flushes its own spans to a
file before its result travels back, so worker-side simulation time is
measured, not lost.  Times are ``time.monotonic()`` seconds, which is
one clock across processes.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time

from perfbench.workloads import sim_class, spec_key

#: component (``repro.prof.component_of``) -> module whose time it is
COMPONENT_MODULES = {"dram": "dram", "core": "cpu", "llc": "mem",
                     "mem": "mem", "gpu": "gpu", "ring": "interconnect",
                     "other": "core"}
MODULES = ("dram", "cpu", "mem", "gpu", "interconnect", "core")
SIM_CLASSES = ("W", "alone", "M-frfcfs", "M-sms", "M-throttle")

ANALYSIS_SPANS = ("fig1", "fig12", "Timeline.load", "SpanReport.load",
                "latency.compare")


class Recorder:
    """In-memory span store with a stack of open spans per process."""

    def __init__(self, flush_dir: str):
        self.flush_dir = flush_dir
        self.owner = self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.base_depth = 0
        self.n = 0
        #: spec label -> monotonic launch time of its worker process
        self.launched: dict[str, float] = {}
        #: one entry per run_many batch (see wrap_run_many)
        self.batches: list[dict] = []

    def open(self, name: str, spec: str | None = None) -> dict:
        pid = os.getpid()
        if pid != self.pid:
            # first span in a forked worker: drop the parent's spans,
            # keep its open stack as the parents of this worker's spans
            self.pid = pid
            self.spans = []
            self.base_depth = len(self.stack)
        parent = self.stack[-1] if self.stack else None
        if spec is None and parent is not None:
            spec = parent["spec"]
        self.n += 1
        span = {"id": f"{pid}-{self.n}", "name": name, "spec": spec,
                "parent": parent["id"] if parent else None,
                "start": time.monotonic(), "end": None}
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self.stack.pop()
        self.spans.append(span)
        if self.pid != self.owner and len(self.stack) == self.base_depth:
            self.flush_worker()

    def flush_worker(self) -> None:
        """Append a forked worker's spans to its own file."""
        path = os.path.join(self.flush_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def all_spans(self) -> list[dict]:
        """This process's spans plus every flushed worker span."""
        out = list(self.spans)
        for name in sorted(os.listdir(self.flush_dir)):
            if name.startswith("worker-") and name.endswith(".jsonl"):
                with open(os.path.join(self.flush_dir, name),
                          encoding="utf-8") as fh:
                    out.extend(json.loads(line) for line in fh)
        return out

    def wrap(self, name: str, fn, spec_of=None, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name, spec_of(*args) if spec_of else None)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, out)
                return out
            finally:
                rec.close(span)
        return wrapper


def _system_key(self, cfg, mix, policy=None, **_kw) -> str:
    return f"{mix.name}/{policy.name if policy is not None else 'baseline'}"


def install(rec: Recorder) -> None:
    """Wrap every layer entry point (for the life of this process)."""
    from repro.analysis import experiments, latency
    from repro.analysis.latency import SpanReport
    from repro.analysis.timeline import Timeline
    from repro.exec import executor
    from repro.exec.cache import ResultCache
    from repro.exec.specs import RunSpec
    from repro.sim import runner
    from repro.sim.engine import Simulator
    from repro.sim.system import HeterogeneousSystem

    def spec_arg(index):
        return lambda *a: spec_key(a[index])

    ResultCache.get = rec.wrap("ResultCache.get", ResultCache.get,
                               spec_arg(1))
    ResultCache.put = rec.wrap("ResultCache.put", ResultCache.put,
                               spec_arg(1))
    RunSpec.key = rec.wrap("RunSpec.key", RunSpec.key, spec_arg(0))
    RunSpec.run = rec.wrap("RunSpec.run", RunSpec.run, spec_arg(0))
    HeterogeneousSystem.__init__ = rec.wrap(
        "HeterogeneousSystem.__init__", HeterogeneousSystem.__init__,
        _system_key)
    HeterogeneousSystem.run = rec.wrap(
        "HeterogeneousSystem.run", HeterogeneousSystem.run,
        lambda self, *a, **k: f"{self.mix.name}/{self.policy.name}")

    def sim_after(span, args, executed):
        sim = args[0]
        span["events"] = executed
        span["ticks"] = sim.now
        span["ff_ticks"] = sim.fast_forward_stats()["ticks_skipped"]
    Simulator.run = rec.wrap("Simulator.run", Simulator.run,
                             after=sim_after)

    run_cached = rec.wrap("run_cached", executor.run_cached, spec_arg(0))
    experiments.run_cached = run_cached
    runner.run_cached = run_cached
    experiments.run_many = wrap_run_many(rec, experiments.run_many)
    executor._mp_context = _timed_context(rec, executor._mp_context)

    for name in ("fig1", "fig12"):
        setattr(experiments, name,
                rec.wrap(name, getattr(experiments, name)))
    latency.compare = rec.wrap("latency.compare", latency.compare)
    Timeline.load = classmethod(rec.wrap("Timeline.load",
                                         Timeline.load.__func__))
    SpanReport.load = classmethod(rec.wrap("SpanReport.load",
                                           SpanReport.load.__func__))


def _timed_context(rec: Recorder, mp_context):
    """``executor._mp_context`` that notes when each worker is forked."""

    class TimedContext:
        def __init__(self, ctx):
            self._ctx = ctx

        def Pipe(self, *args, **kwargs):
            return self._ctx.Pipe(*args, **kwargs)

        def Process(self, *args, **kwargs):
            rec.launched[spec_key(kwargs["args"][1])] = time.monotonic()
            return self._ctx.Process(*args, **kwargs)

    @functools.wraps(mp_context)
    def timed():
        return TimedContext(mp_context())
    return timed


def wrap_run_many(rec: Recorder, run_many):
    """``run_many`` with a span plus the batch's parent-side view:
    when each outcome arrived, worker CPU time, and wall time."""

    @functools.wraps(run_many)
    def wrapper(specs, jobs=None, progress=None, **kwargs):
        from repro.exec import default_jobs
        arrived: dict = {}

        def note(outcome, i, total):
            arrived[i] = time.monotonic()
            if progress is not None:
                progress(outcome, i, total)

        span = rec.open("run_many")
        cpu0 = _children_cpu()
        try:
            outcomes = run_many(specs, jobs=jobs, progress=note, **kwargs)
        finally:
            rec.close(span)
        rec.batches.append({
            "jobs": default_jobs() if jobs is None else max(int(jobs), 1),
            "wall_s": span["end"] - span["start"],
            "child_cpu_s": _children_cpu() - cpu0,
            "runs": [{"spec": spec_key(o.spec), "elapsed": o.elapsed,
                      "arrived": arrived[i],
                      "launched": rec.launched.get(spec_key(o.spec))}
                     for i, o in enumerate(outcomes) if o.source == "run"],
        })
        return outcomes
    return wrapper


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# -- self time -------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> its duration minus the part its children cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


# -- metric derivation -------------------------------------------------------------

def span_metrics(spans: list[dict], batches: list[dict]) -> dict:
    """The span-derived ``sim.*``, ``exec.*`` and ``analysis.*`` metrics."""
    own = self_times(spans)

    def total(name, by=lambda s: s["end"] - s["start"]):
        return sum(by(s) for s in spans if s["name"] == name)

    def self_of(*names):
        return sum(own[s["id"]] for s in spans if s["name"] in names)

    sim_runs = [s for s in spans if s["name"] == "Simulator.run"]
    run_s = total("Simulator.run")
    events = sum(s["events"] for s in sim_runs)
    ticks = sum(s["ticks"] for s in sim_runs)
    out = {
        "sim.runs": len(sim_runs),
        "sim.events": events,
        "sim.ff_ticks_share": (sum(s["ff_ticks"] for s in sim_runs) / ticks
                               if ticks else 0.0),
        "sim.build_s": total("HeterogeneousSystem.__init__"),
        "sim.run_s": run_s,
        "sim.ns_per_event": run_s / events * 1e9 if events else 0.0,
    }
    for cls in SIM_CLASSES:
        out[f"sim.run_s.{cls}"] = sum(s["end"] - s["start"] for s in sim_runs
                                      if sim_class(s["spec"]) == cls)
    out["exec.cache.get_s"] = self_of("ResultCache.get")
    out["exec.cache.put_s"] = self_of("ResultCache.put")
    out["exec.key_s"] = total("RunSpec.key")
    out["analysis.self_s"] = self_of(*ANALYSIS_SPANS)
    out["analysis.lookups"] = sum(1 for s in spans
                                  if s["name"] == "run_cached")

    runs = [r for b in batches for r in b["runs"]]
    wall = sum(b["wall_s"] * b["jobs"] for b in batches)
    out["exec.dispatch_s"] = sum(r["arrived"] - r["launched"] - r["elapsed"]
                                 for r in runs if r["launched"] is not None)
    out["exec.child_cpu_s"] = sum(b["child_cpu_s"] for b in batches)
    out["exec.worker_busy_share"] = (sum(r["elapsed"] for r in runs) / wall
                                     if wall else 0.0)
    out["exec.batch_tail_s"] = sum(batch_tail(b) for b in batches)
    return out


def batch_tail(batch: dict) -> float:
    """Seconds at the end of a batch with a worker idle and nothing left
    to launch: from the completion that first frees a slot for good to
    the last completion."""
    done = sorted(r["arrived"] for r in batch["runs"])
    if not done:
        return 0.0
    first_idle = max(len(done) - batch["jobs"], 0)
    return done[-1] - done[first_idle]


# -- the profiled pass ----------------------------------------------------------------

def profile_spec(spec) -> dict:
    """Run one spec with ``Simulator.enable_profiling()`` (in a worker)."""
    from repro.policies import make_policy
    from repro.prof import component_of
    from repro.sim.system import HeterogeneousSystem

    system = HeterogeneousSystem(spec.resolved_cfg(), spec.resolved_mix(),
                                 make_policy(spec.policy))
    prof = system.sim.enable_profiling()
    system.run()
    events: dict = {}
    for owner, (count, _secs) in prof.by_owner.items():
        comp = component_of(owner)
        events[comp] = events.get(comp, 0) + count
    return {"run_time": prof.run_time, "shares": prof.component_shares(),
            "events": events}


def profile_metrics(parts: list[dict]) -> dict:
    """Fold per-spec profiles into ``<module>.host_share``/``.events``
    and ``sim.engine_share`` (shares weighted by each run's time)."""
    run_time = sum(p["run_time"] for p in parts)
    out = {f"{m}.{k}": 0.0 if k == "host_share" else 0
           for m in MODULES for k in ("host_share", "events")}
    out["sim.engine_share"] = 0.0
    for p in parts:
        weight = p["run_time"] / run_time if run_time else 0.0
        for comp, share in p["shares"].items():
            key = ("sim.engine_share" if comp == "engine"
                   else f"{COMPONENT_MODULES[comp]}.host_share")
            out[key] += share * weight
        for comp, count in p["events"].items():
            out[f"{COMPONENT_MODULES[comp]}.events"] += count
    return out
