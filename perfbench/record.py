"""Record the output digests the benchmark checks against.

    python3 perfbench/record.py --seeds 1-40

For each workload seed this simulates every spec of the figure workloads
with ``RunSpec.run()`` directly (two at a time, bypassing the executor
and the result store), regenerates the figure dicts from those results,
and makes the probed recordings of the ``recorded`` workload.  The
SHA-256 digests go into ``perfbench/digests.json``, merged with the seeds
already there.  A seed whose probed results differ from its unprobed
ones is refused.

Rewriting a digest is a statement that the simulator's output changed
on purpose; say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.run import CLEARED_ENV, WORK_ROOT  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_seed(seed: int, pool, work: Path) -> dict:
    from repro.analysis import experiments
    from repro.exec import ResultCache, counters, set_shared_cache
    from repro.exec.specs import RunSpec

    specs = workloads.workload_specs("figures-cold", seed)
    results = list(pool.map(RunSpec.run, specs))
    entry = {"runs": {workloads.spec_key(s): workloads.digest(r)
                      for s, r in zip(specs, results)}}

    cache = ResultCache(root=str(work / f"store-{seed}"))
    for spec, result in zip(specs, results):
        cache.put(spec, result)
    set_shared_cache(cache)
    executed = counters["executed"]
    entry["figures"] = {
        name: workloads.digest(getattr(experiments, name)(
            scale=workloads.SCALE, seed=seed, **workloads.FIGURE_ARGS[name]))
        for name in workloads.FIGURE_ARGS}
    if counters["executed"] != executed:
        raise SystemExit("figures simulated a spec the workloads do not "
                         "list; perfbench/workloads.py is out of date")

    outdir = str(work / f"recorded-{seed}")
    os.makedirs(outdir)
    n = len(workloads.RECORDED_POLICIES)
    runs = list(pool.map(workloads.record_one, workloads.RECORDED_POLICIES,
                         [seed] * n, [outdir] * n))
    out = workloads.load_recorded(runs, outdir)
    recorded = {}
    for policy in workloads.RECORDED_POLICIES:
        tel_path, span_path = workloads.recorded_paths(outdir, policy)
        recorded[f"telemetry/{policy}"] = workloads.file_digest(tel_path)
        recorded[f"spans/{policy}"] = workloads.file_digest(span_path)
    if out["compare"] is not None:
        recorded["compare"] = workloads.digest(out["compare"])
    entry["recorded"] = recorded

    checks = workloads.Checks(entry)
    workloads.check_recorded(out, outdir, checks)
    if checks.failed:
        raise SystemExit(f"seed {seed}: refusing to record: "
                         + "; ".join(checks.problems))
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True,
                   help="seeds to (re)record, e.g. 1-40 or 1,2,7")
    args = p.parse_args(argv)
    for name in CLEARED_ENV + ("REPRO_JOBS",):
        os.environ.pop(name, None)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT))
    os.environ["REPRO_CACHE_DIR"] = str(work / "unused-store")
    try:
        table = workloads.load_digests()
    except FileNotFoundError:
        table = {"scale": workloads.SCALE, "seeds": {}}
    ctx = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            for seed in parse_seeds(args.seeds):
                table["seeds"][str(seed)] = record_seed(seed, pool, work)
                table["seeds"] = dict(sorted(table["seeds"].items(),
                                             key=lambda kv: int(kv[0])))
                with open(workloads.DIGESTS_PATH, "w",
                          encoding="utf-8") as fh:
                    json.dump(table, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print(f"seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
