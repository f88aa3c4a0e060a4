"""One fresh interpreter of a benchmark run (launched by ``run.py``).

    python perfbench/child.py --mode MODE --workload NAME --seed N
                              --out RESULT.json --work DIR

Every mode but ``reference`` first sets up the way a user's
interpreter does: import the workload's entry modules, compute
``code_salt()``, open the result store named by ``REPRO_CACHE_DIR``.
The timestamps of those steps, taken on the monotonic clock the
launching process also reads, give ``setup_s``.

Modes:

* ``setup`` -- set up, then exit;
* ``reference`` -- instead of setting up, run the host-speed reference
  (see ``reference``);
* ``prep`` -- fill the store with the figures (``edit-rerun``'s
  untimed preparation);
* ``run`` -- time the workload from ready until its last output is
  returned, then check the outputs with the clock stopped;
* ``traced`` -- ``run`` with span wrappers on every layer entry point;
* ``profile`` -- simulate the workload's specs with kernel profiling on.

The result is written as JSON to ``--out``.
"""

import time

T_MAIN = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def parse(argv: list) -> dict:
    args = dict(zip(argv[0::2], argv[1::2]))
    return {"mode": args["--mode"], "workload": args["--workload"],
            "seed": int(args["--seed"]), "out": args["--out"],
            "work": args["--work"], "extras": args.get("--extras") == "1"}


def setup(workload: str) -> dict:
    """Import, salt, open the store; returns the step timestamps."""
    from perfbench.workloads import entry_modules  # stdlib-only import
    for name in entry_modules(workload):
        importlib.import_module(name)
    t_imported = time.monotonic()
    from repro.exec import code_salt, shared_cache
    code_salt()
    t_salted = time.monotonic()
    os.makedirs(shared_cache().root, exist_ok=True)
    return {"t_main": T_MAIN, "t_imported": t_imported,
            "t_salted": t_salted, "t_ready": time.monotonic()}


#: rows of the host-speed reference's table
REFERENCE_ROWS = 60_000


def reference() -> dict:
    """The host-speed reference: build a table of small objects, then
    update rows picked at random, the kind of scattered access to many
    small objects the simulator makes.  It runs no code of the package
    under test, so no change to the package can move its time; only the
    host's speed does, cache and memory contention included."""
    table = [[i, 2 * i, str(i)] for i in range(REFERENCE_ROWS)]
    x = total = 1
    for _ in range(REFERENCE_ROWS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        row = table[x % REFERENCE_ROWS]
        row[0] += 1
        total += row[1]
    return {"t_done": time.monotonic(), "total": total}


def run_workload(args: dict, recorder=None) -> dict:
    from perfbench import workloads
    from repro.exec import counters, shared_cache

    workload, seed = args["workload"], args["seed"]
    checks = workloads.Checks(workloads.expected_for(seed))
    outdir = os.path.join(args["work"], "recorded")
    t0 = time.monotonic()
    if workload == "recorded":
        os.makedirs(outdir)
        rec = workloads.run_recorded(seed, outdir)
    else:
        figures, errors = workloads.run_figures(workload, seed)
    t1 = time.monotonic()

    # the clock has stopped: collect the counters and spans before the
    # output checks, which read the store through wrapped methods
    stats = shared_cache().stats
    out = {"wall_s": t1 - t0, "executed": counters["executed"],
           "cache": {k: getattr(stats, k) for k in
                     ("memory_hits", "disk_hits", "misses", "stores")}}
    if recorder is not None:
        from perfbench import layers
        spans = recorder.all_spans()
        out["layers"] = layers.span_metrics(spans, recorder.batches)
        with open(os.path.join(args["work"], "spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in sorted(spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")
    if workload == "recorded":
        workloads.check_recorded(rec, outdir, checks)
        out["probes"] = workloads.probe_counts(rec, outdir)
        if args["extras"]:
            out["probes"]["overhead"] = probes_overhead(rec, seed)
    else:
        workloads.check_figures(workload, seed, figures, errors,
                                shared_cache().root, checks)
    out["checks"] = checks.as_dict()
    return out


def probes_overhead(rec: dict, seed: int) -> float:
    """Probed ``run_system`` host time over unprobed, same two specs."""
    from perfbench import workloads

    probed = sum(run["run_s"] for run in rec["runs"])
    t0 = time.perf_counter()
    for spec in workloads.workload_specs("recorded", seed):
        spec.run()
    return probed / (time.perf_counter() - t0)


def profile(args: dict) -> dict:
    """Profile every distinct spec of the workload, two at a time."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from perfbench import layers, workloads

    specs = workloads.workload_specs(args["workload"], args["seed"])
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        parts = list(pool.map(layers.profile_spec, specs))
    return {"layers": layers.profile_metrics(parts)}


def main(argv: list) -> int:
    args = parse(argv)
    mode = args["mode"]
    result = reference() if mode == "reference" else setup(args["workload"])
    if mode == "prep":
        from perfbench import workloads
        _figures, errors = workloads.run_figures(args["workload"],
                                                 args["seed"])
        if errors:
            sys.stderr.write("".join(errors.values()))
            return 1
    elif mode == "run":
        result.update(run_workload(args))
    elif mode == "traced":
        from perfbench import layers
        flush_dir = os.path.join(args["work"], "worker-spans")
        os.makedirs(flush_dir, exist_ok=True)
        recorder = layers.Recorder(flush_dir)
        layers.install(recorder)
        result.update(run_workload(args, recorder))
    elif mode == "profile":
        result.update(profile(args))
    elif mode not in ("setup", "reference"):
        raise SystemExit(f"unknown mode {mode!r}")
    with open(args["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
