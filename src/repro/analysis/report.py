"""ASCII rendering of every regenerated table and figure.

Run as a module::

    python -m repro.analysis.report --experiment fig9 --scale test
    python -m repro.analysis.report --experiment all --scale smoke
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import experiments, tables
from repro.exec import shared_cache


def _bar(value: float, unit: float = 1.0, width: int = 40) -> str:
    n = max(int(value / unit * width / 2), 0)
    return "#" * min(n, width)


def _fmt_series(title: str, series: dict[str, float],
                unit: float = 1.0) -> str:
    lines = [title]
    for k, v in series.items():
        lines.append(f"  {k:>16s} {v:8.3f} {_bar(v, unit)}")
    return "\n".join(lines)


def render_table1(scale: str) -> str:
    cfg = tables.table1(scale)
    out = ["Table I — simulated heterogeneous CMP", "=" * 50]
    for section, vals in cfg.items():
        out.append(f"[{section}]")
        for k, v in vals.items():
            out.append(f"  {k}: {v}")
    return "\n".join(out)


def render_table2(scale: str) -> str:
    rows = tables.table2(scale)
    out = ["Table II — graphics frame details", "=" * 66,
           f"{'application':14s} {'API':4s} {'frames':9s} {'res':4s} "
           f"{'FPS(paper)':>10s} {'FPS(ours)':>10s}"]
    for r in rows:
        out.append(f"{r['application']:14s} {r['api']:4s} "
                   f"{r['frames']:9s} {r['resolution']:4s} "
                   f"{r['fps_paper']:10.1f} {r['fps_measured']:10.1f}")
    return "\n".join(out)


def render_table3() -> str:
    rows = tables.table3()
    out = ["Table III — heterogeneous workload mixes", "=" * 72]
    for r in rows:
        out.append(f"{r['gpu_application']:14s} {r['m_mix']:30s} "
                   f"{r['w_mix']}")
    return "\n".join(out)


def render_fig(name: str, scale: str, seed: int = 1) -> str:
    fn = getattr(experiments, name)
    data = fn(scale=scale, seed=seed)
    out = [f"{name} @ scale={scale}", "=" * 50]

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            if obj and all(isinstance(v, (int, float)) for v in obj.values()):
                out.append(_fmt_series(prefix, obj))
            else:
                for k, v in obj.items():
                    walk(f"{prefix}.{k}" if prefix else str(k), v)
        else:
            out.append(f"{prefix}: {obj}")

    walk("", data)
    return "\n".join(out)


EXPERIMENTS = ["fig1", "fig2", "fig3", "fig8", "fig9", "fig10", "fig11",
               "fig12", "fig13", "fig14"]
TABLES = ["table1", "table2", "table3"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--experiment", default="all",
                    help=f"one of {TABLES + EXPERIMENTS} or 'all'")
    ap.add_argument("--scale", default="test",
                    choices=["smoke", "test", "bench", "paper"])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    targets = (TABLES + EXPERIMENTS if args.experiment == "all"
               else [args.experiment])
    try:
        for t in targets:
            if t == "table1":
                print(render_table1(args.scale))
            elif t == "table2":
                print(render_table2(args.scale))
            elif t == "table3":
                print(render_table3())
            elif t in EXPERIMENTS:
                print(render_fig(t, args.scale, args.seed))
            else:
                print(f"unknown experiment {t!r}", file=sys.stderr)
                return 2
            print()
        return 0
    finally:
        # fold this run's counters into the store, as ``python -m
        # repro`` does, so ``cache stats`` counts figure runs too
        shared_cache().persist_stats()


if __name__ == "__main__":
    raise SystemExit(main())
