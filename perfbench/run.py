"""Benchmark launcher: time the regeneration of the paper's figures.

    python3 perfbench/run.py --workload figures-jobs2 --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each exists): ``figures-cold``,
``figures-jobs2``, ``edit-rerun``, ``recorded``; BENCHMARK.json judges
the two that hold still on a shared 2-vCPU host.  Every workload runs at
``smoke`` scale, closed loop from this one process, with at most two
simulations in flight; each pass is a fresh interpreter with its
own private result store.

``--trace 0`` runs the workload in ``ceil(seconds / PASS_S)`` passes
(``--seconds``, default ``run_seconds`` in BENCHMARK.json), each on its
own workload seed drawn from ``--seed`` (``pass_seeds``), and reports
the end-to-end metrics: ``wall_s`` (mean over passes), ``setup_s``
(median over ``SETUP_LAUNCHES`` set-up-only launches), both scaled to
the reference host speed ``REFERENCE_S``, and ``peak_rss_mb``.
``--trace 1`` makes one untraced pass, one pass with spans on every
layer entry point and one profiled pass, all on the first pass's seed,
and reports the per-layer metrics.  Outputs are checked in both
modes; the last line of standard output is one JSON object.

This process never imports ``repro``: it builds the bytecode, launches
``child.py`` with ``sys.executable`` and reads the JSON each child writes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
CHILD = BENCH / "child.py"
#: private stores and copies, removed when the run ends
WORK_ROOT = ROOT / ".perfbench_work"
#: the traced run's span file is kept here for inspection
OUT_ROOT = ROOT / ".perfbench_out"

WORKLOADS = ("figures-cold", "figures-jobs2", "edit-rerun", "recorded")
#: REPRO_JOBS of each workload's timed interpreter
JOBS = {"figures-cold": 1, "figures-jobs2": 2, "edit-rerun": 1,
        "recorded": 1}
#: variables that would change what a run does; the harness clears them
#: and sets REPRO_JOBS and REPRO_CACHE_DIR itself
CLEARED_ENV = ("REPRO_CACHE", "REPRO_CACHE_SALT", "REPRO_HOTPATH",
               "REPRO_SERVICE", "REPRO_REMOTE_FALLBACK")
#: set-up-only launches per run, each followed by one launch of the
#: host-speed reference: a single launch is too noisy here
SETUP_LAUNCHES = 16
#: seconds of the host-speed reference (``child.py --mode reference``)
#: on the VM the benchmark was defined on (Intel Xeon, 2.0 GHz, 2 vCPUs).
#: ``wall_s`` and ``setup_s`` are host seconds scaled to that speed.
REFERENCE_S = 0.150
#: nominal seconds of one timed pass at ``REFERENCE_S``; a run makes
#: ``ceil(seconds / PASS_S)`` passes, at most ``MAX_PASSES``, so that the
#: parent and a change run the same seeds whatever their speed
PASS_S = {"figures-cold": 25.0, "figures-jobs2": 14.0, "edit-rerun": 5.0,
          "recorded": 8.5}
MAX_PASSES = 8
#: ``digests.json`` holds workload seeds ``0 .. RECORDED_SEEDS - 1``
#: (``record.py``)
RECORDED_SEEDS = 41
#: consecutive passes of a run are this many workload seeds apart; it is
#: prime to ``RECORDED_SEEDS``, so no run repeats a seed, and runs whose
#: ``--seed`` differ by less than it share none over four passes
PASS_STRIDE = 10
#: a run must end within 180 s; no child may outlive this budget
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "sim.runs": "count", "sim.events": "count",
    "sim.ff_ticks_share": "ratio", "sim.build_s": "s", "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "sim.run_s.W": "s", "sim.run_s.alone": "s", "sim.run_s.M-frfcfs": "s",
    "sim.run_s.M-sms": "s", "sim.run_s.M-throttle": "s",
    "sim.engine_share": "ratio",
    **{f"{m}.{k}": u for m in ("dram", "cpu", "mem", "gpu", "interconnect",
                               "core")
       for k, u in (("host_share", "ratio"), ("events", "count"))},
    "exec.executed": "count", "exec.cache.memory_hits": "count",
    "exec.cache.disk_hits": "count", "exec.cache.misses": "count",
    "exec.cache.stores": "count", "exec.cache.get_s": "s",
    "exec.cache.put_s": "s", "exec.key_s": "s", "exec.salt_s": "s",
    "exec.dispatch_s": "s", "exec.child_cpu_s": "s",
    "exec.worker_busy_share": "ratio", "exec.batch_tail_s": "s",
    "analysis.self_s": "s", "analysis.lookups": "count",
    "telemetry.records": "count", "telemetry.bytes": "B",
    "spans.rows": "count", "spans.bytes": "B", "guard.checks": "count",
    "probes.overhead": "ratio",
    "setup.interp_s": "s", "setup.import_s": "s",
    "trace.overhead_s": "s",
}


def pass_seeds(seed: int, passes: int) -> list[int]:
    """The workload seed of each pass of a run on ``--seed``: the first
    is ``seed`` modulo ``RECORDED_SEEDS``, the rest ``PASS_STRIDE`` apart.
    Every one has recorded digests, so any ``--seed`` is checked.  The
    seed sets the simulated work (the synthetic CPU and GPU traces), so
    a run spans several seeds' work rather than one."""
    return [(seed + PASS_STRIDE * k) % RECORDED_SEEDS
            for k in range(passes)]


class BenchError(RuntimeError):
    """The harness itself failed; no result is printed."""


def build() -> None:
    """Byte-compile the package and the benchmark (the Python build)."""
    for tree in (SRC, BENCH):
        if not compileall.compile_dir(str(tree), quiet=1):
            raise BenchError(f"byte-compiling {tree} failed")


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.t_start = time.monotonic()
        self.n = 0
        self.setups: list[dict] = []
        self.references: list[float] = []
        self.checks: list[dict] = []
        #: ``edit-rerun``: the edited copy of ``src/`` and, per workload
        #: seed, the store its preparation filled
        self.prepared: tuple[Path, dict] | None = None
        self.seeds: list[int] = []
        self.walls: list[float] = []

    # -- children ------------------------------------------------------------

    def env(self, src: Path, store: Path, jobs: int) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        env["REPRO_JOBS"] = str(jobs)
        env["REPRO_CACHE_DIR"] = str(store)
        env["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
        return env

    def launch(self, mode: str, env: dict, where: Path, seed: int,
               extras: bool = False) -> dict:
        out = where / f"{mode}.json"
        cmd = [sys.executable, str(CHILD), "--mode", mode,
               "--workload", self.workload, "--seed", str(seed),
               "--out", str(out), "--work", str(where),
               "--extras", "1" if extras else "0"]
        budget = DEADLINE_S - (time.monotonic() - self.t_start)
        if budget <= 0:
            raise BenchError("out of time before launching a child")
        t_launch = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=budget)
        except BaseException:
            # the child's own workers share its process group: stop them all
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if code != 0:
            raise BenchError(f"{mode} interpreter exited with {code}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["t_launch"] = t_launch
        result["mode"] = mode
        if mode in ("setup", "run", "traced"):
            self.setups.append(result)
        if mode == "reference":
            self.references.append(result["t_done"] - t_launch)
        if "checks" in result:
            self.checks.append(result["checks"])
        return result

    def setup_only(self) -> None:
        """One set-up-only launch, then one of the host-speed reference."""
        where = self.work / "setup"
        where.mkdir(exist_ok=True)
        env = self.env(SRC, where / "store", 1)
        self.launch("setup", env, where, self.seed)
        self.launch("reference", env, where, self.seed)

    def prepare_edit(self, seeds: list[int]) -> tuple[Path, dict]:
        """``edit-rerun``'s untimed preparation, once per run: a private
        copy of ``src/``, a store per workload seed filled from it, then
        an edit that touches no simulation module."""
        where = self.work / "prepared"
        where.mkdir()
        src = where / "src"
        shutil.copytree(SRC, src)
        stores = {}
        for seed in seeds:
            stores[seed] = where / f"store-{seed}"
            self.launch("prep", self.env(src, stores[seed], 2), where, seed)
        with open(src / "repro" / "__main__.py", "a",
                  encoding="utf-8") as fh:
            fh.write("\n# edited by the edit-rerun workload\n")
        return src, stores

    def iteration(self, mode: str, seed: int, extras: bool = False) -> dict:
        """One fresh interpreter running the workload once on ``seed``."""
        self.n += 1
        where = self.work / f"it{self.n}"
        where.mkdir()
        src, store = SRC, where / "store"
        if self.workload == "edit-rerun":
            src, filled = self.prepared
            shutil.copytree(filled[seed], store)     # the store as prepared
        return self.launch(mode, self.env(src, store, JOBS[self.workload]),
                           where, seed, extras)

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    # -- the two kinds of run ----------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics over ``ceil(seconds / PASS_S)`` passes,
        each on its own workload seed.  The ``SETUP_LAUNCHES`` set-up-only
        launches, each followed by a reference launch, are spread over
        the run, so that they see the host as the passes did: a quarter
        before the first pass, the rest evenly after the passes.  The
        host's speed drifts by a third and more over minutes, and that
        drift moves the reference as it moves the workload, so both
        times are scaled to ``REFERENCE_S``: ``wall_s`` by the mean of
        the run's reference times, each set-up time by the reference
        launch right after it, ``setup_s`` being the median of those
        ratios."""
        passes = min(MAX_PASSES, max(1, math.ceil(
            seconds / PASS_S[self.workload])))
        self.seeds = pass_seeds(self.seed, passes)
        if self.workload == "edit-rerun":
            self.prepared = self.prepare_edit(self.seeds)
        first = SETUP_LAUNCHES // 4
        for _ in range(first):
            self.setup_only()
        launched = first
        walls: list[float] = []
        for k, seed in enumerate(self.seeds, 1):
            t0 = self.elapsed()
            walls.append(self.iteration("run", seed)["wall_s"])
            # a host slowed past all reason still ends within the deadline
            last = k == passes or \
                self.elapsed() + 2 * (self.elapsed() - t0) > DEADLINE_S - 20
            due = SETUP_LAUNCHES if last else \
                first + (SETUP_LAUNCHES - first) * k // passes
            for _ in range(due - launched):
                self.setup_only()
            launched = due
            if last:
                break
        self.walls = walls
        # ``setup_only`` appends one set-up and one reference, in step
        setups = [s["t_ready"] - s["t_launch"] for s in self.setups
                  if s["mode"] == "setup"]
        ru = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {"wall_s": statistics.fmean(walls) * REFERENCE_S
                / statistics.fmean(self.references),
                "setup_s": statistics.median(
                    s / r for s, r in zip(setups, self.references))
                * REFERENCE_S,
                "peak_rss_mb": ru / 1024.0}

    def traced(self) -> dict:
        """Per-layer metrics from an untraced, a traced and a profiled
        interpreter, plus set-up and reference launch pairs."""
        seed = pass_seeds(self.seed, 1)[0]
        if self.workload == "edit-rerun":
            self.prepared = self.prepare_edit([seed])
        for _ in range(SETUP_LAUNCHES // 4):
            self.setup_only()
        untraced = self.iteration("run", seed, extras=True)
        traced = self.iteration("traced", seed)
        where = self.work / "profile"
        where.mkdir()
        prof = self.launch("profile", self.env(SRC, where / "store", 2),
                           where, seed)
        OUT_ROOT.mkdir(exist_ok=True)
        shutil.copyfile(
            self.work / f"it{self.n}" / "spans.jsonl",
            OUT_ROOT / f"spans-{self.workload}-seed{seed}.jsonl")

        m = dict(traced["layers"])
        m.update(prof["layers"])
        m["exec.executed"] = traced["executed"]
        for key, value in traced["cache"].items():
            m[f"exec.cache.{key}"] = value
        probes = traced.get("probes", {})
        for key in ("telemetry.records", "telemetry.bytes", "spans.rows",
                    "spans.bytes", "guard.checks"):
            m[key] = probes.get(key, 0)
        m["probes.overhead"] = untraced.get("probes", {}).get("overhead", 0.0)
        s = self.setups
        m["setup.interp_s"] = statistics.median(
            x["t_main"] - x["t_launch"] for x in s)
        m["setup.import_s"] = statistics.median(
            x["t_imported"] - x["t_main"] for x in s)
        m["exec.salt_s"] = statistics.median(
            x["t_salted"] - x["t_imported"] for x in s)
        m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        self.walls = [untraced["wall_s"], traced["wall_s"]]
        self.seeds = [seed, seed]
        return m


def report(bench: Bench, metrics: dict, units: dict) -> dict:
    """Print the human-readable summary; return the result object."""
    if set(metrics) != set(units):
        raise BenchError("metric names differ from the declared ones: "
                         f"{sorted(set(metrics) ^ set(units))}")
    attempted = sum(c["attempted"] for c in bench.checks)
    failed = sum(c["failed"] for c in bench.checks)
    unchecked = any(c["unchecked"] for c in bench.checks)
    print(f"perfbench {bench.workload} seed {bench.seed}: "
          f"{len(bench.walls)} workload pass(es) on workload seeds "
          f"{', '.join(map(str, bench.seeds[:len(bench.walls)]))} "
          f"({', '.join(f'{w:.3f}' for w in bench.walls)} s), "
          f"{len(bench.references)} set-up and reference launch pairs, "
          f"reference mean {statistics.fmean(bench.references):.4f} s "
          f"(REFERENCE_S {REFERENCE_S})")
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]:>16.6f} {units[name]}")
    if unchecked:
        print("checks: UNCHECKED -- no recorded digests for a workload "
              "seed (record them with perfbench/record.py)")
    print(f"checks: {attempted} operations, {failed} failed")
    for c in bench.checks:
        for problem in c["problems"]:
            print(f"  FAILED {problem}")
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    print(f"env: python {sys.version.split()[0]}, {os.cpu_count()} CPUs, "
          "OPENBLAS_NUM_THREADS "
          + (f"pinned to {blas}" if blas else "not pinned"))
    return {"correct": failed == 0 and not unchecked and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int,
                   help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds like an interrupt, so that ``launch`` kills the
    # running child's process group on the way out
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        build()
        WORK_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=WORK_ROOT))
        try:
            bench = Bench(args.workload, args.seed, work)
            if args.trace:
                result = report(bench, bench.traced(), PER_LAYER)
            else:
                result = report(bench, bench.measure(args.seconds),
                                END_TO_END)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
