"""Steadiness of the benchmark: run one workload N times, one seed each.

    python3 perfbench/steady.py --workload figures-jobs2 --runs 10
    python3 perfbench/steady.py --workload recorded --runs 5 --first-seed 11

For every metric this prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and IQR/median, next to the
metric's bound in BENCHMARK.json and a third of it, the target spread.
Each run is ``perfbench/run.py`` in its own process, exactly as the
benchmark is run; failed operations are summed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(args.first_seed, args.first_seed + args.runs)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    attempted = failed = incorrect = 0
    for seed in seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            raise SystemExit(f"seed {seed}: run.py exited "
                             f"{proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        incorrect += not result["correct"]
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4f}")
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(line[:6]), flush=True)
        print("  " + proc.stdout.splitlines()[0], flush=True)

    print(f"\n{args.workload}: {len(seeds)} runs, {attempted} operations, "
          f"{failed} failed, {incorrect} run(s) not correct")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'bound':>6s} {'target':>7s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], None, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        tail = (f"{bound:6.3f} {bound / 3:7.3f}"
                + ("" if spread < bound / 3 else "  <-- above target")
                if bound is not None else "")
        print(f"{name:28s} {med:12.5f} {q1:12.5f} {q3:12.5f} "
              f"{spread:8.4f} {tail}")
    return 0 if failed == 0 and incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
