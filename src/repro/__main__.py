"""Command-line interface.

Examples::

    python -m repro run --mix M7 --policy throtcpuprio --scale test
    python -m repro standalone --game DOOM3 --scale smoke
    python -m repro standalone --spec 429
    python -m repro compare --mix M7 --policies baseline,throtcpuprio
    python -m repro compare --mix M7 --policies baseline,sms-0.9 --jobs 4
    python -m repro run --mix M7 --predictor rls   # FRPU seam override
    python -m repro compare-predictors --mixes M1,M7 --scale test
    python -m repro run --mix W8 --trace-spans spans.jsonl --span-sample 64
    python -m repro latency --spans spans.jsonl --compare other.jsonl
    python -m repro run --mix M7 --guard          # invariant watchdogs on
    python -m repro faults                        # fault-injection campaign
    python -m repro faults --only worker-crash,cache-corrupt --scale smoke
    python -m repro list
    python -m repro report --experiment fig9 --scale smoke
    python -m repro cache            # show cache location / size / salt
    python -m repro cache stats      # store-wide hit/miss counters
    python -m repro cache prune --max-size 512   # LRU eviction (MB)
    python -m repro cache --clear

Independent runs route through :mod:`repro.exec`: results persist in the
on-disk cache (``.repro_cache/`` by default) and ``--jobs N`` (or the
``REPRO_JOBS`` environment variable) fans cache misses across N worker
processes.  Each command folds its cache hit/miss/store counts into the
store's ``stats.json`` when it returns (``cache stats`` prints them).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import MIXES_M, MIXES_W, POLICY_NAMES, mix, weighted_speedup_for
from repro.cpu.spec import SPEC_PROFILES
from repro.exec import (mix_spec, run_cached, shared_cache,
                        standalone_cpu_spec, standalone_gpu_spec)
from repro.gpu.workloads import GAME_ORDER, workload_for


def _print_result(r, scale: str) -> None:
    print(f"mix={r.mix_name} policy={r.policy_name} scale={r.scale_name}")
    print(f"  simulated ticks: {r.ticks:,}")
    if r.gpu_app:
        print(f"  GPU {r.gpu_app}: {r.fps:.1f} FPS over "
              f"{r.frames_rendered} frames "
              f"(texture share {r.gpu_texture_share:.0%})")
    if r.cpu_apps:
        ipcs = " ".join(f"{sid}:{r.cpu_ipcs[i]:.2f}"
                        for i, sid in enumerate(r.cpu_apps))
        print(f"  CPU IPCs: {ipcs}")
        ws = weighted_speedup_for(r, scale)
        print(f"  weighted speedup vs standalone: {ws:.3f}")
    print(f"  LLC: cpu misses {r.cpu_llc_misses:,}, "
          f"gpu misses {r.gpu_llc_misses:,}")
    print(f"  DRAM: gpu {r.gpu_dram_bytes/1e6:.1f} MB, cpu "
          f"{(r.dram_cpu_read_bytes + r.dram_cpu_write_bytes)/1e6:.1f} MB,"
          f" row-hit rate {r.dram_row_hit_rate:.0%}")
    if r.qos:
        print(f"  QoS: {r.qos}")
    if r.frpu_errors:
        mean_abs = sum(abs(e) for e in r.frpu_errors) / len(r.frpu_errors)
        name = f" ({r.predictor})" if r.predictor else ""
        print(f"  FRPU{name} mean |error|: {mean_abs:.2f}%")


def _probed_run(args, spec):
    """Run ``spec`` with the probe that ``args``'s probe flag selects.

    Returns ``(result, report)``, ``report`` being the probe's printout,
    or ``None`` when no probe flag is set.  A probed run bypasses the
    result cache: the probe's output is a side effect a cache hit could
    not replay.
    """
    probes = {}
    if args.telemetry:
        from repro.telemetry import Telemetry
        probes["telemetry"] = Telemetry.to_file(args.telemetry)
    elif args.trace_spans:
        from repro.spans import SpanTracer
        probes["tracer"] = SpanTracer(sample_every=args.span_sample,
                                      path=args.trace_spans)
    elif getattr(args, "guard", False):
        from repro.guard import InvariantMonitor
        probes["monitor"] = InvariantMonitor()
    elif not args.profile:
        return None
    from repro.policies import make_policy
    from repro.sim.metrics import collect
    from repro.sim.system import HeterogeneousSystem
    system = HeterogeneousSystem(spec.resolved_cfg(), spec.resolved_mix(),
                                 make_policy(spec.policy), **probes)
    prof = system.sim.enable_profiling() if args.profile else None
    system.run()
    if prof is not None:
        report = prof.report()
    elif args.telemetry:
        tel = system.telemetry
        tel.close()
        counts = ", ".join(f"{t}: {n}" for t, n in tel.counts().items())
        report = (f"  telemetry: {tel.count()} records -> "
                  f"{args.telemetry}  ({counts})")
    elif args.trace_spans:
        tracer = system.tracer
        tracer.close()
        report = (f"  spans: {tracer.finished} -> {args.trace_spans}\n"
                  + tracer.format_report())
    else:
        report = f"  {system.monitor.report().format()}"
    return collect(system), report


def cmd_run(args) -> int:
    t0 = time.time()
    spec = mix_spec(args.mix, args.policy, args.scale, args.seed,
                    predictor=args.predictor)
    r, report = _probed_run(args, spec) or (spec.run(), None)
    _print_result(r, args.scale)
    if report:
        print(report)
    print(f"  wall time: {time.time()-t0:.1f}s")
    return 0


def cmd_standalone(args) -> int:
    if not args.game and not args.spec:
        print("need --game or --spec", file=sys.stderr)
        return 2
    spec = standalone_gpu_spec(args.game, args.scale, args.seed) \
        if args.game else \
        standalone_cpu_spec(args.spec, args.scale, args.seed)
    r, report = _probed_run(args, spec) or (run_cached(spec), None)
    if args.game:
        w = workload_for(args.game)
        print(f"{args.game}: {r.fps:.1f} FPS measured "
              f"(Table II: {w.fps_nominal})")
    else:
        print(f"SPEC {args.spec}: IPC {r.cpu_ipcs[0]:.3f}, "
              f"LLC accesses {r.llc['cpu_accesses']:,}")
    if report:
        print(report)
    return 0


def _progress(outcome, index: int, total: int) -> None:
    """Per-run progress/timing line (stderr, so tables stay clean)."""
    if outcome.source == "run":
        detail = f"ran in {outcome.elapsed:.1f}s"
    elif outcome.source == "error":
        detail = "FAILED"
    else:
        detail = f"cached ({outcome.source})"
    print(f"  [{index + 1}/{total}] {outcome.spec.label}: {detail}",
          file=sys.stderr)


def cmd_compare(args) -> int:
    from repro.exec import run_many
    policies = args.policies.split(",")
    specs = [mix_spec(args.mix, pol, args.scale, args.seed)
             for pol in policies]
    outcomes = run_many(specs, progress=_progress)
    base_ws = None
    failed = 0
    print(f"{'policy':14s} {'GPU FPS':>8s} {'CPU WS':>8s} {'vs base':>8s}")
    for pol, out in zip(policies, outcomes):
        if not out.ok:
            failed += 1
            last = out.error.strip().splitlines()[-1]
            print(f"{pol:14s}   failed: {last}")
            continue
        r = out.result
        ws = weighted_speedup_for(r, args.scale, args.seed) \
            if r.cpu_apps else 0.0
        if base_ws is None:
            base_ws = ws
        rel = ws / base_ws if base_ws else 1.0
        print(f"{pol:14s} {r.fps:8.1f} {ws:8.3f} {rel:8.3f}")
    return 1 if failed else 0


def cmd_compare_predictors(args) -> int:
    """Head-to-head frame-time predictor suite (docs/predictors.md)."""
    from repro.analysis.predictors import compare_predictors
    from repro.config import PREDICTORS
    t0 = time.time()
    mixes = args.mixes.split(",")
    predictors = tuple(PREDICTORS) if args.predictors == "all" \
        else tuple(args.predictors.split(","))
    cmp = compare_predictors(mixes=mixes, predictors=predictors,
                             scale=args.scale, seed=args.seed,
                             policy=args.policy, progress=_progress)
    print(cmp.format())
    print(f"wall time: {time.time()-t0:.1f}s")
    return 0


def cmd_list(args) -> int:
    print("GPU applications (Table II):")
    for g in GAME_ORDER:
        w = workload_for(g)
        print(f"  {g:14s} {w.api:3s} {w.resolution} "
              f"{w.fps_nominal:6.1f} FPS")
    print("SPEC CPU 2006 profiles:")
    for sid in sorted(SPEC_PROFILES):
        print(f"  {sid} {SPEC_PROFILES[sid].name}")
    print("Mixes: " + " ".join(sorted(MIXES_M, key=lambda n: int(n[1:])))
          + " / " + " ".join(sorted(MIXES_W, key=lambda n: int(n[1:]))))
    print("Policies: " + " ".join(POLICY_NAMES))
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import main as report_main
    return report_main(["--experiment", args.experiment,
                        "--scale", args.scale, "--seed", str(args.seed)])


def cmd_trace(args) -> int:
    """Record a mix's LLC traffic to an .npz trace."""
    from repro.config import default_config
    from repro.sim.system import HeterogeneousSystem
    from repro.tracing import TraceRecorder
    m = mix(args.mix)
    cfg = default_config(scale=args.scale, n_cpus=m.n_cpus,
                         seed=args.seed)
    system = HeterogeneousSystem(cfg, m)
    rec = TraceRecorder.attach(system)
    system.run()
    rec.save(args.out)
    tr = rec.trace()
    print(f"recorded {len(tr):,} LLC requests over "
          f"{tr.summary()['span_ticks']:,} ticks -> {args.out}")
    for k, v in tr.summary().items():
        print(f"  {k}: {v}")
    return 0


def cmd_latency(args) -> int:
    """Analyse a --trace-spans recording (optionally vs a second one)."""
    from repro.analysis.latency import SpanReport, format_comparison
    rep = SpanReport.load(args.spans)
    print(rep.format_report())
    if args.compare:
        other = SpanReport.load(args.compare)
        print()
        print(format_comparison(rep, other, side=args.side))
    return 0


def cmd_cache(args) -> int:
    """Inspect, prune, or clear the persistent result cache."""
    from repro.exec import shared_cache
    c = shared_cache()
    if args.clear:
        n = c.clear_disk()
        print(f"removed {n} cached result(s) from {os.path.abspath(c.root)}")
        return 0
    if args.action == "prune":
        if args.max_size is None:
            print("cache prune needs --max-size MB", file=sys.stderr)
            return 2
        removed, freed = c.prune(int(args.max_size * 1e6))
        left, left_size = c.disk_usage()
        print(f"pruned {removed} file(s) ({freed / 1e6:.1f} MB) "
              f"from {os.path.abspath(c.root)}")
        print(f"store now: {left} entries ({left_size / 1e6:.1f} MB), "
              f"cap {args.max_size:.1f} MB")
        return 0
    if args.action == "stats":
        files, size = c.disk_usage()
        stats = c.persisted_stats()
        hits = stats["memory_hits"] + stats["disk_hits"]
        total = hits + stats["misses"]
        rate = hits / total if total else 0.0
        print(f"store:      {os.path.abspath(c.root)}")
        print(f"entries:    {files} ({size / 1e6:.1f} MB)")
        print(f"hits:       {hits} (memory {stats['memory_hits']}, "
              f"disk {stats['disk_hits']})")
        print(f"misses:     {stats['misses']}   hit rate: {rate:.0%}")
        print(f"stores:     {stats['stores']}   corrupt: "
              f"{stats['corrupt']}   pruned: {stats['pruned']}")
        return 0
    files, size = c.disk_usage()
    state = "on" if c.disk_enabled() else "off (REPRO_CACHE=0)"
    print(f"cache dir:  {os.path.abspath(c.root)}  [disk layer {state}]")
    print(f"entries:    {files} ({size / 1e6:.1f} MB)")
    print(f"code salt:  {c.salt}")
    return 0


def cmd_faults(args) -> int:
    """Run the fault-injection campaign (see docs/robustness.md)."""
    from repro.faults import run_campaign, scenario_names
    if args.list_scenarios:
        for name in scenario_names():
            print(name)
        return 0
    only = args.only.split(",") if args.only else None
    t0 = time.time()

    def progress(outcome):
        print(f"  {outcome.name}: {outcome.classification}",
              file=sys.stderr)

    report = run_campaign(scale=args.scale, seed=args.seed,
                          mix_name=args.mix, policy=args.policy,
                          only=only, progress=progress)
    print(report.format())
    print(f"wall time: {time.time()-t0:.1f}s")
    return 0 if report.ok else 1


def cmd_sweep(args) -> int:
    """QoS-target sweep on one mix (the headline ablation)."""
    from repro.analysis.sweep import sweep, vary_qos
    targets = [float(x) for x in args.targets.split(",")]
    rows = sweep(args.mix, policy="throtcpuprio", scale=args.scale,
                 seed=args.seed, variations=vary_qos(target_fps=targets))
    for row in rows:
        print(f"  {row.label:18s} -> GPU {row.result.fps:6.1f} FPS")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run one mix under one policy")
    p.add_argument("--mix", default="M7")
    p.add_argument("--policy", default="throtcpuprio", choices=POLICY_NAMES)
    # each probe flag selects its own uncached run: at most one per run
    probe = p.add_mutually_exclusive_group()
    probe.add_argument("--profile", action="store_true",
                       help="profile the event kernel (per-owner event "
                            "counts + wall-time breakdown; bypasses "
                            "cache)")
    probe.add_argument("--telemetry", metavar="PATH",
                       help="record control-loop telemetry to PATH "
                            "(.jsonl or .csv; bypasses cache; see "
                            "docs/telemetry.md)")
    probe.add_argument("--trace-spans", metavar="PATH",
                       help="sample request-path spans to PATH (.jsonl; "
                            "bypasses cache; see docs/latency.md)")
    probe.add_argument("--guard", action="store_true",
                       help="attach the invariant monitor (conservation, "
                            "occupancy, liveness checks; bypasses cache; "
                            "see docs/robustness.md)")
    p.add_argument("--span-sample", type=int, default=None, metavar="N",
                   help="with --trace-spans: trace 1-in-N eligible "
                        "requests (default 64)")
    from repro.config import PREDICTORS
    p.add_argument("--predictor", default=None,
                   choices=list(PREDICTORS),
                   help="frame-time predictor behind the FRPU seam "
                        "(default: the config's, i.e. the paper's "
                        "'rtp' extrapolator; see docs/predictors.md)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("standalone", help="run one app alone")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--game")
    target.add_argument("--spec", type=int)
    probe = p.add_mutually_exclusive_group()
    probe.add_argument("--profile", action="store_true",
                       help="profile the event kernel (bypasses cache)")
    probe.add_argument("--telemetry", metavar="PATH",
                       help="record control-loop telemetry to PATH "
                            "(.jsonl or .csv; bypasses cache)")
    probe.add_argument("--trace-spans", metavar="PATH",
                       help="sample request-path spans to PATH (.jsonl; "
                            "bypasses cache; see docs/latency.md)")
    p.add_argument("--span-sample", type=int, default=None, metavar="N",
                   help="with --trace-spans: trace 1-in-N eligible "
                        "requests (default 64)")
    p.set_defaults(fn=cmd_standalone)

    p = sub.add_parser("compare", help="compare policies on one mix")
    p.add_argument("--mix", default="M7")
    p.add_argument("--policies",
                   default="baseline,dynprio,helm,throtcpuprio")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("compare-predictors",
                       help="head-to-head frame-time predictor suite: "
                            "accuracy per phase + end-to-end FPS/CPU-"
                            "speedup deltas (see docs/predictors.md)")
    p.add_argument("--mixes", default="M1,M7", metavar="A,B,...",
                   help="Table III mixes to evaluate (default M1,M7)")
    p.add_argument("--predictors", default="all", metavar="A,B,...",
                   help="predictors to pit against each other "
                        "(default: all registered)")
    p.add_argument("--policy", default="throtcpuprio", choices=POLICY_NAMES,
                   help="throttling policy consulting the predictor "
                        "(default throtcpuprio)")
    p.set_defaults(fn=cmd_compare_predictors)

    p = sub.add_parser("list", help="list workloads, mixes, policies")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("report", help="regenerate a table/figure")
    p.add_argument("--experiment", default="all")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("trace", help="record a mix's LLC traffic")
    p.add_argument("--mix", default="M7")
    p.add_argument("--out", default="trace.npz")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("latency",
                       help="analyse a --trace-spans recording")
    p.add_argument("--spans", required=True, metavar="PATH",
                   help="span stream from --trace-spans")
    p.add_argument("--compare", metavar="PATH",
                   help="second recording to diff stage shares against")
    p.add_argument("--side", default="cpu", choices=["cpu", "gpu"],
                   help="side for the --compare share table")
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("sweep", help="QoS-target sweep on one mix")
    p.add_argument("--mix", default="M7")
    p.add_argument("--targets", default="30,40,50")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("cache",
                       help="inspect/prune/clear the result cache")
    p.add_argument("action", nargs="?", default="info",
                   choices=["info", "stats", "prune"],
                   help="info (default): location/size/salt; stats: "
                        "store-wide hit/miss counters; prune: LRU "
                        "eviction down to --max-size")
    p.add_argument("--max-size", type=float, metavar="MB",
                   help="prune target: keep at most MB megabytes, "
                        "evicting least-recently-used results first")
    p.add_argument("--clear", action="store_true",
                   help="delete every persisted result")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("faults",
                       help="fault-injection campaign: every fault "
                            "detected or tolerated, never silent")
    p.add_argument("--mix", default="W8")
    p.add_argument("--policy", default="throtcpuprio", choices=POLICY_NAMES)
    p.add_argument("--only", metavar="A,B,...",
                   help="run only these scenarios")
    p.add_argument("--list-scenarios", action="store_true",
                   help="print scenario names and exit")
    p.set_defaults(fn=cmd_faults)

    for sp in sub.choices.values():
        sp.add_argument("--scale", default="smoke",
                        choices=["smoke", "test", "bench", "paper"])
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for independent runs "
                             "(0 = one per core; default: $REPRO_JOBS or 1)")

    # the campaign defaults to test scale: smoke runs are short enough
    # that some scenarios (FRPU misprediction) may never engage
    sub.choices["faults"].set_defaults(scale="test")

    args = ap.parse_args(argv)
    if hasattr(args, "span_sample"):
        if args.span_sample is None:
            args.span_sample = 64
        elif not args.trace_spans:
            # a sampling rate without a recording would be ignored
            sub.choices[args.cmd].error(
                "--span-sample needs --trace-spans")
    if args.cmd == "compare":
        unknown = [p for p in args.policies.split(",")
                   if p not in POLICY_NAMES]
        if unknown:
            sub.choices["compare"].error(
                f"unknown --policies {','.join(unknown)} (choose from "
                f"{', '.join(POLICY_NAMES)})")
    if args.jobs is not None:
        # route every layer (run_many defaults, figure prefetches)
        # through the requested fan-out
        os.environ["REPRO_JOBS"] = str(args.jobs)
    try:
        return args.fn(args)
    finally:
        shared_cache().persist_stats()


if __name__ == "__main__":
    raise SystemExit(main())
