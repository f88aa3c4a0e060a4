#!/usr/bin/env python
"""Event-kernel microbenchmark: calendar queue vs the old heap kernel.

Measures the event loop itself — callbacks do a counter bump and schedule
their successor, so per-event cost is dominated by queue operations, the
thing this PR optimises.  Two traffic shapes bracket the simulator's
regimes:

* ``hetero_dense`` — thousands of concurrent event chains advancing by
  the small constant deltas real components use (ring hops, LLC lookup,
  DRAM command cycles).  Most schedules land on an existing tick bucket.
* ``standalone_sparse`` — few chains, wide delta spread; ticks are
  mostly distinct, stressing the heap of bucket times.

Also measured, with methodology recorded in the JSON:

* closure vs closure-free scheduling on the new kernel;
* macro full-system runs (new vs reference kernel) — honest end-to-end
  numbers where callback work, not the kernel, dominates;
* profiling overhead (the opt-in layer must cost nothing when off —
  the fast path IS the default benchmarked path — and its enabled cost
  is reported);
* span-tracing overhead (``spans_off``) — the dormant stamp hooks
  (``req.span is None`` guards through core/LLC/ring/DRAM) must not
  slow the spans-off full-system path.  The gate normalises wall time
  by the same invocation's micro ns/event, so it compares machine-
  independent "equivalent kernel events" against the committed
  baseline; ``--check`` fails on >5% regression.
* the L2 single-run row ``l2_sms`` — one M13/sms-0.9 run, where DRAM
  polls dominate, in wall seconds and equivalent kernel
  events, next to the same run on the legacy per-entry DRAM path
  (``REPRO_HOTPATH=legacy``); ``--check`` fails above 1.10x the
  committed equivalent events, like the M7 macro gate.

Usage::

    PYTHONPATH=src python scripts/bench_kernel.py            # full run
    PYTHONPATH=src python scripts/bench_kernel.py --quick    # fewer reps
    PYTHONPATH=src python scripts/bench_kernel.py --check    # CI gate:
        # re-measure (quick) and fail if the headline micro speedup
        # regressed >30%, the spans-off full-system path slowed
        # >5%, or the M7 / M13-sms-0.9 runs slowed >10%, vs the
        # committed BENCH_kernel.json

The headline number (``micro_speedup_geomean``) is the geometric mean of
the per-scenario old/new ns-per-event ratios; acceptance is >= 1.5x.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.engine import ReferenceSimulator, Simulator  # noqa: E402

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: delta pools mirror the simulated machine's delay constants
SCENARIOS = {
    # ring hops (1-10), LLC lookup (10), DRAM command cycles (4)
    "hetero_dense": dict(chains=2048, deltas=(1, 2, 3, 4, 4, 7, 10, 10, 40)),
    # one app alone: fewer requests in flight, wider tick spread
    "standalone_sparse": dict(chains=48, deltas=(1, 4, 10, 63, 247, 1009)),
}


def _drive(sim, n_events: int, chains: int, deltas, seed: int,
           closure: bool = False) -> float:
    """Run ``n_events`` through ``sim``; returns elapsed seconds.

    ``chains`` self-sustaining event chains each reschedule themselves
    with pre-generated deltas, so both kernels replay the identical
    schedule and callbacks stay minimal.
    """
    rng = random.Random(seed)
    pre = [rng.choice(deltas) for _ in range(4096)]
    npre = len(pre)
    state = [0]

    if closure:
        def step() -> None:
            k = state[0]
            if k < n_events:
                state[0] = k + 1
                sim.after(pre[k % npre], step)
        for _ in range(chains):
            sim.after(pre[state[0] % npre], step)
    else:
        def step(_arg) -> None:
            k = state[0]
            if k < n_events:
                state[0] = k + 1
                sim.after_call(pre[k % npre], step, _arg)
        for c in range(chains):
            sim.after_call(pre[c % npre], step, c)

    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert state[0] >= n_events
    return elapsed


def _best_ns_per_event(make_sim, n_events: int, reps: int, **kw) -> float:
    best = min(_drive(make_sim(), n_events, seed=1, **kw)
               for _ in range(reps))
    return best * 1e9 / n_events


def bench_micro(n_events: int, reps: int) -> dict:
    out = {}
    for name, sc in SCENARIOS.items():
        old = _best_ns_per_event(ReferenceSimulator, n_events, reps,
                                 chains=sc["chains"], deltas=sc["deltas"])
        new = _best_ns_per_event(Simulator, n_events, reps,
                                 chains=sc["chains"], deltas=sc["deltas"])
        out[name] = {
            "old_ns_per_event": round(old, 1),
            "new_ns_per_event": round(new, 1),
            "speedup": round(old / new, 2),
        }
        print(f"  {name:18s} old {old:7.1f} ns/ev   new {new:7.1f} ns/ev"
              f"   speedup {old / new:.2f}x")
    return out


def bench_closures(n_events: int, reps: int) -> dict:
    sc = SCENARIOS["hetero_dense"]
    closure = _best_ns_per_event(Simulator, n_events, reps, closure=True,
                                 chains=sc["chains"], deltas=sc["deltas"])
    free = _best_ns_per_event(Simulator, n_events, reps, closure=False,
                              chains=sc["chains"], deltas=sc["deltas"])
    print(f"  closure {closure:7.1f} ns/ev   closure-free {free:7.1f} "
          f"ns/ev   speedup {closure / free:.2f}x")
    return {"closure_ns_per_event": round(closure, 1),
            "closure_free_ns_per_event": round(free, 1),
            "speedup": round(closure / free, 2)}


def bench_profiling(n_events: int, reps: int) -> dict:
    sc = SCENARIOS["hetero_dense"]
    off = _best_ns_per_event(Simulator, n_events, reps,
                             chains=sc["chains"], deltas=sc["deltas"])

    def profiled():
        sim = Simulator()
        sim.enable_profiling()
        return sim
    on = _best_ns_per_event(profiled, n_events, reps,
                            chains=sc["chains"], deltas=sc["deltas"])
    print(f"  profiling off {off:7.1f} ns/ev   on {on:7.1f} ns/ev   "
          f"enabled overhead {on / off:.2f}x")
    return {"off_ns_per_event": round(off, 1),
            "on_ns_per_event": round(on, 1),
            "enabled_overhead": round(on / off, 2)}


def bench_macro(mixes, reps: int) -> dict:
    """Full-system wall time, new vs reference kernel (smoke scale).

    Callbacks (cache lookups, pipeline models) dominate here, so the
    macro speedup is far below the micro one — recorded for honesty.
    """
    from repro.config import default_config
    from repro.mixes import mix as mix_by_name
    from repro.sim.system import HeterogeneousSystem

    def once(mix_name, sim):
        m = mix_by_name(mix_name)
        cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
        system = HeterogeneousSystem(cfg, m, sim=sim)
        t0 = time.perf_counter()
        system.run()
        return time.perf_counter() - t0

    out = {}
    for mix_name in mixes:
        old = min(once(mix_name, ReferenceSimulator()) for _ in range(reps))
        new = min(once(mix_name, Simulator()) for _ in range(reps))
        out[mix_name] = {"old_seconds": round(old, 3),
                         "new_seconds": round(new, 3),
                         "speedup": round(old / new, 2)}
        print(f"  {mix_name:4s} smoke   old {old:6.3f}s   new {new:6.3f}s"
              f"   speedup {old / new:.2f}x")
    return out


def bench_spans(micro_new_ns: float, reps: int) -> dict:
    """Span-tracing overhead on the full system (smoke scale, W8).

    ``off`` is the default path: every stamp site is a dormant
    ``req.span is None`` guard, and the gate requires it to stay within
    5% of the committed baseline.  Raw wall time is machine-dependent,
    so the recorded gate value is the run expressed in *equivalent
    kernel events* — off seconds divided by the same invocation's micro
    ``hetero_dense`` ns/event — which cancels host speed.  The enabled
    cost (1-in-64 sampling) is reported for honesty, not gated.
    """
    from repro.config import default_config
    from repro.mixes import mix as mix_by_name
    from repro.sim.system import HeterogeneousSystem
    from repro.spans import SpanTracer

    def once(tracer=None):
        m = mix_by_name("W8")
        cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
        system = HeterogeneousSystem(cfg, m, tracer=tracer)
        t0 = time.perf_counter()
        system.run()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close()
        return elapsed

    off = min(once() for _ in range(reps))
    on = min(once(SpanTracer(sample_every=64)) for _ in range(reps))
    norm = off * 1e9 / micro_new_ns
    print(f"  spans off {off:6.3f}s  on(1/64) {on:6.3f}s   enabled "
          f"overhead {on / off:.2f}x   off = {norm:,.0f} equiv events")
    return {"off_seconds": round(off, 3),
            "on_seconds": round(on, 3),
            "enabled_overhead": round(on / off, 2),
            "off_equivalent_events": round(norm)}


def bench_macro_components(micro_new_ns: float, reps: int) -> dict:
    """Per-component macro breakdown of an M7 full-system run.

    Two measurements of the same workload (M7, smoke scale, seed 1):

    * an *unprofiled* best-of-N wall time, normalised by the same
      invocation's micro ns/event into machine-independent "equivalent
      kernel events" — the macro-speed gate value (smaller is faster);
    * a *profiled* run whose per-owner callback times fold into
      component shares (dram/llc/core/gpu/ring/mem + engine overhead)
      via :meth:`repro.prof.KernelProfile.component_shares` — shares
      are relative, so they are host-speed-independent and gate which
      layer regressed, not just that something did.
    """
    from repro.config import default_config
    from repro.mixes import mix as mix_by_name
    from repro.prof import profile_mix
    from repro.sim.system import HeterogeneousSystem

    def once():
        m = mix_by_name("M7")
        cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
        system = HeterogeneousSystem(cfg, m)
        t0 = time.perf_counter()
        system.run()
        return time.perf_counter() - t0

    wall = min(once() for _ in range(reps))
    equiv = wall * 1e9 / micro_new_ns
    _result, prof = profile_mix("M7", scale="smoke")
    shares = prof.component_shares()
    print(f"  M7 smoke  wall {wall:6.3f}s = {equiv:,.0f} equiv events "
          f"({prof.events:,} real events profiled)")
    print(f"  {'component':10s} {'share':>7s}")
    for comp, share in shares.items():
        print(f"  {comp:10s} {100 * share:6.1f}%")
    return {"mix": "M7", "scale": "smoke",
            "wall_seconds": round(wall, 3),
            "equivalent_events": round(equiv),
            "profiled_events": prof.events,
            "shares": shares}


def bench_sms(micro_new_ns: float, reps: int) -> dict:
    """L2 row: one M13/sms-0.9 run at smoke scale (seed 1).

    SMS keeps the DRAM controller polling every command cycle while its
    batches wait, so DRAM polls take a larger share of this run than of
    any other in the figure suite (SMS-0.9 is the Figs. 12-14 baseline
    scheduler).  The gate value is the
    unprofiled best-of-N wall time in equivalent kernel events, as for
    M7.  One run on the legacy per-entry DRAM path (the reference the
    SMS fast path is held bit-identical to) is timed alongside, so the
    row carries the fast path's speedup measured on the same host.
    """
    from repro import hotpath
    from repro.config import default_config
    from repro.mixes import mix as mix_by_name
    from repro.policies import make_policy
    from repro.sim.system import HeterogeneousSystem

    def once():
        m = mix_by_name("M13")
        cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
        system = HeterogeneousSystem(cfg, m, make_policy("sms-0.9"))
        t0 = time.perf_counter()
        system.run()
        return time.perf_counter() - t0

    wall = min(once() for _ in range(reps))
    equiv = wall * 1e9 / micro_new_ns
    with hotpath.batching(False):
        legacy = once()
    print(f"  M13 sms-0.9 smoke  wall {wall:6.3f}s = {equiv:,.0f} equiv "
          f"events   legacy path {legacy:6.3f}s   speedup "
          f"{legacy / wall:.2f}x")
    return {"layer": "L2", "mix": "M13", "policy": "sms-0.9",
            "scale": "smoke", "seed": 1,
            "wall_seconds": round(wall, 3),
            "equivalent_events": round(equiv),
            "legacy_wall_seconds": round(legacy, 3),
            "speedup_vs_legacy": round(legacy / wall, 2)}


def check_sms(result: dict, baseline: dict) -> bool:
    """CI gate for the L2 M13/sms-0.9 row: equivalent events within
    1.10x of the committed baseline (absent baseline row: pass)."""
    base = baseline.get("l2_sms")
    if not base:
        return True
    now_ev = result["l2_sms"]["equivalent_events"]
    ceiling = 1.10 * base["equivalent_events"]
    ok = now_ev <= ceiling
    print(f"check[l2_sms]: M13 sms-0.9 {now_ev:,} equiv events vs "
          f"baseline {base['equivalent_events']:,} (ceiling "
          f"{ceiling:,.0f}) -> {'OK' if ok else 'REGRESSION'}")
    return ok


def _machine() -> dict:
    """The host the numbers were taken on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "cpu": cpu,
            "cpu_count": os.cpu_count()}


def _baseline_macro_equiv(baseline: dict) -> float | None:
    """The committed baseline's M7 macro cost in equivalent events.

    Older baselines predate the ``macro_components`` section; for those
    the M7 cost is derived from the recorded macro wall time and micro
    ns/event — the same normalisation, so the comparison stays
    machine-independent.
    """
    mc = baseline.get("macro_components")
    if mc:
        return mc["equivalent_events"]
    macro = baseline.get("macro_full_system", {}).get("M7")
    micro = baseline.get("micro", {}).get("hetero_dense")
    if macro and micro:
        return macro["new_seconds"] * 1e9 / micro["new_ns_per_event"]
    return None


def check_macro_components(result: dict, baseline: dict) -> bool:
    """CI gates for the macro component section.

    * total M7 macro cost (equivalent events) must stay within 1.10x of
      the committed baseline — the top-level "did macro runs get
      slower" gate;
    * no component's share may grow by more than 30% relative (plus a
      2-point absolute floor so a 1% component jittering to 1.4%
      doesn't fail the build) — the "which layer regressed" gate.
    """
    ok = True
    now = result["macro_components"]
    base_equiv = _baseline_macro_equiv(baseline)
    if base_equiv:
        ceiling = 1.10 * base_equiv
        macro_ok = now["equivalent_events"] <= ceiling
        ok = ok and macro_ok
        speedup = base_equiv / now["equivalent_events"]
        print(f"check[macro]: M7 {now['equivalent_events']:,} equiv "
              f"events vs baseline {base_equiv:,.0f} (ceiling "
              f"{ceiling:,.0f}) -> {speedup:.2f}x vs baseline -> "
              f"{'OK' if macro_ok else 'REGRESSION'}")

    base_shares = (baseline.get("macro_components") or {}).get("shares")
    if base_shares:
        print(f"check[components]: {'component':10s} {'base':>7s} "
              f"{'now':>7s}")
        for comp, base_share in base_shares.items():
            now_share = now["shares"].get(comp, 0.0)
            limit = base_share * 1.30 + 0.02
            comp_ok = now_share <= limit
            ok = ok and comp_ok
            print(f"check[components]: {comp:10s} {100 * base_share:6.1f}% "
                  f"{100 * now_share:6.1f}% (limit {100 * limit:.1f}%) -> "
                  f"{'OK' if comp_ok else 'REGRESSION'}")
    return ok


def run_bench(quick: bool) -> dict:
    n_events = 100_000 if quick else 400_000
    reps = 2 if quick else 3
    print(f"event-kernel bench: {n_events:,} events/scenario, "
          f"best of {reps}")
    print("micro (kernel-dominated event chains):")
    micro = bench_micro(n_events, reps)
    print("closure vs closure-free scheduling (new kernel):")
    closures = bench_closures(n_events, reps)
    print("opt-in profiling:")
    prof = bench_profiling(n_events, reps)
    print("macro (full system, callback-dominated):")
    macro = bench_macro(["W8"] if quick else ["W8", "M7"],
                        1 if quick else 2)
    # wall-time sections are gated at tight (5-10%) ceilings against
    # the committed baseline, and best-of-N is the estimator of the
    # uncontended floor — so they get more reps than the micro loops,
    # whose per-event times are far more stable
    print("span tracing (full system, W8 smoke):")
    spans = bench_spans(micro["hetero_dense"]["new_ns_per_event"],
                        max(reps, 5))
    print("macro per-component breakdown (M7 smoke):")
    components = bench_macro_components(
        micro["hetero_dense"]["new_ns_per_event"], 3)
    print("L2 single run (M13 sms-0.9 smoke, batched vs legacy DRAM "
          "path):")
    sms = bench_sms(micro["hetero_dense"]["new_ns_per_event"], 3)
    geomean = round(math.exp(statistics.fmean(
        math.log(s["speedup"]) for s in micro.values())), 2)
    print(f"headline micro speedup (geomean): {geomean}x")
    return {
        "benchmark": "event-kernel calendar queue vs reference heap",
        "methodology": (
            "Self-sustaining event chains reschedule themselves with "
            "pre-generated deltas drawn from the simulator's real delay "
            "constants; callbacks are a bounds check + counter bump, so "
            "ns/event isolates queue operations. best-of-N wall time, "
            f"{n_events} events per scenario, N={reps}. Macro rows run "
            "the full system at smoke scale, where component callbacks "
            "dominate and the kernel is ~15-20% of wall time."),
        "machine": _machine(),
        "events_per_scenario": n_events,
        "reps": reps,
        "micro": micro,
        "micro_speedup_geomean": geomean,
        "closure_vs_closure_free": closures,
        "profiling": prof,
        "macro_full_system": macro,
        "macro_components": components,
        "l2_sms": sms,
        "spans_off": spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer events/reps (CI-friendly)")
    ap.add_argument("--check", action="store_true",
                    help="fail if headline speedup regressed >30%% vs "
                         "the committed BENCH_kernel.json")
    ap.add_argument("--out", default=None, metavar="PATH",
                    help=f"write results JSON (default: {BASELINE.name} "
                         "at the repo root; --check never overwrites)")
    args = ap.parse_args(argv)

    result = run_bench(quick=args.quick or args.check)

    if args.check:
        if not BASELINE.exists():
            print(f"no committed baseline at {BASELINE}", file=sys.stderr)
            return 2
        baseline = json.loads(BASELINE.read_text())
        ok = True

        base = baseline["micro_speedup_geomean"]
        now = result["micro_speedup_geomean"]
        floor = 0.7 * base
        micro_ok = now >= floor
        ok = ok and micro_ok
        print(f"check[micro]: measured {now}x vs baseline {base}x "
              f"(floor {floor:.2f}x) -> "
              f"{'OK' if micro_ok else 'REGRESSION'}")

        base_spans = baseline.get("spans_off")
        if base_spans:
            base_ev = base_spans["off_equivalent_events"]
            now_ev = result["spans_off"]["off_equivalent_events"]
            ceiling = 1.05 * base_ev
            spans_ok = now_ev <= ceiling
            ok = ok and spans_ok
            print(f"check[spans_off]: measured {now_ev:,} equiv events "
                  f"vs baseline {base_ev:,} (ceiling {ceiling:,.0f}) -> "
                  f"{'OK' if spans_ok else 'REGRESSION'}")

        ok = check_macro_components(result, baseline) and ok
        ok = check_sms(result, baseline) and ok

        out = Path(args.out) if args.out else None
        if out:
            out.write_text(json.dumps(result, indent=2) + "\n")
        return 0 if ok else 1

    # regenerating the baseline: record the macro speedup against the
    # file being replaced, so the committed JSON carries the evidence
    # of the hot-path change even after the old numbers are gone
    if BASELINE.exists():
        prior = _baseline_macro_equiv(json.loads(BASELINE.read_text()))
        if prior:
            now_ev = result["macro_components"]["equivalent_events"]
            speedup = round(prior / now_ev, 2)
            result["macro_components"]["speedup_vs_prior_baseline"] = \
                speedup
            print(f"M7 macro speedup vs prior baseline: {speedup}x")
    out = Path(args.out) if args.out else BASELINE
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
