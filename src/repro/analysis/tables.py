"""Tables I-III of the paper, regenerated from the live system."""

from __future__ import annotations

from dataclasses import asdict

from repro.config import default_config
from repro.cpu.spec import SPEC_PROFILES
from repro.gpu.workloads import GAME_ORDER, GAME_WORKLOADS
from repro.mixes import MIXES_M, MIXES_W
from repro.sim import runner


def table1(scale: str = "test") -> dict[str, dict]:
    """Table I: the simulated heterogeneous CMP configuration."""
    cfg = default_config(scale=scale)
    return {
        "cpu": {
            "cores": cfg.n_cpus,
            "clock_ghz": 4.0,
            "issue_width": cfg.cpu.issue_width,
            "l1i": asdict(cfg.cpu.l1i),
            "l1d": asdict(cfg.cpu.l1d),
            "l2": asdict(cfg.cpu.l2),
        },
        "gpu": {
            "clock_ghz": 1.0,
            "shader_cores": cfg.gpu.shader_cores,
            "thread_contexts": cfg.gpu.max_thread_contexts,
            "rops": cfg.gpu.rops,
            "mshr_entries": cfg.gpu.mshr_entries,
            "caches": asdict(cfg.gpu.caches),
        },
        "llc": {
            "paper_bytes": cfg.llc.size_bytes,
            "scaled_bytes": cfg.scale.llc_bytes,
            "ways": cfg.llc.ways,
            "latency_cycles": cfg.llc.latency,
            "policy": cfg.llc.policy,
            "inclusive_for": "cpu",
        },
        "dram": asdict(cfg.dram),
        "ring": asdict(cfg.ring),
        "qos": asdict(cfg.qos),
        "scale": asdict(cfg.scale),
    }


def table2(scale: str = "test", seed: int = 1) -> list[dict]:
    """Table II: the 14 graphics workloads with *measured* standalone FPS.

    Frames/resolution come from the workload models; the FPS column is a
    live measurement (the paper's own FPS column is their baseline
    measurement too).
    """
    rows = []
    for name in GAME_ORDER:
        w = GAME_WORKLOADS[name]
        r = runner.standalone_gpu(name, scale, seed)
        rows.append({
            "application": name,
            "api": w.api,
            "frames": f"{w.frames[0]}-{w.frames[1]}",
            "resolution": w.resolution,
            "fps_paper": w.fps_nominal,
            "fps_measured": round(r.fps, 1),
        })
    return rows


def table3() -> list[dict]:
    """Table III: the heterogeneous workload mixes."""
    rows = []
    for i, name in enumerate(sorted(MIXES_M, key=lambda n: int(n[1:]))):
        m = MIXES_M[name]
        w = MIXES_W[f"W{i+1}"]
        rows.append({
            "gpu_application": m.gpu_app,
            "m_mix": f"{name}: {m.cpu_label()}",
            "w_mix": f"W{i+1}: {w.cpu_label()}",
        })
    return rows


def latency_table(mix_names=None, policies=("baseline", "throtcpuprio"),
                  scale: str = "test", seed: int = 1) -> list[dict]:
    """LLC read round-trip latency per side, mix x policy.

    One row per (mix, policy) from the always-on
    :attr:`RunResult.llc_latency` aggregates (created_at -> data
    return, CPU ticks): mean and log2-bucket p95 for each side.  The
    paper's mechanism in one table — throttling policies should cut
    the CPU columns on memory-heavy mixes while the GPU columns rise.
    A failed run raises :class:`repro.exec.BatchError`.
    """
    from repro.exec import mix_spec, run_many
    if mix_names is None:
        mix_names = sorted(MIXES_W, key=lambda n: int(n[1:]))
    specs = [mix_spec(m, pol, scale, seed)
             for m in mix_names for pol in policies]
    rows = []
    for spec, out in zip(specs, run_many(specs, strict=True)):
        lat = out.result.llc_latency
        rows.append({
            "mix": spec.resolved_mix().name, "policy": spec.policy,
            "cpu_mean": lat.get("cpu_mean", 0.0),
            "cpu_p95": lat.get("cpu_p95", 0.0),
            "gpu_mean": lat.get("gpu_mean", 0.0),
            "gpu_p95": lat.get("gpu_p95", 0.0),
        })
    return rows


def format_latency_table(rows) -> str:
    """Render :func:`latency_table` rows for the CLI/notebooks."""
    lines = [f"{'mix':6s} {'policy':14s} {'cpu mean':>9s} {'cpu p95':>8s} "
             f"{'gpu mean':>9s} {'gpu p95':>8s}"]
    for r in rows:
        lines.append(f"{r['mix']:6s} {r['policy']:14s} "
                     f"{r['cpu_mean']:9.1f} {r['cpu_p95']:8.0f} "
                     f"{r['gpu_mean']:9.1f} {r['gpu_p95']:8.0f}")
    return "\n".join(lines)


def spec_profile_table() -> list[dict]:
    """Companion table: the SPEC CPU 2006 profile parameters we use."""
    rows = []
    for sid in sorted(SPEC_PROFILES):
        p = SPEC_PROFILES[sid]
        rows.append({
            "id": sid, "name": p.name, "mem_per_kinst": p.mem_per_kinst,
            "store_frac": p.store_frac, "ipc_base": p.ipc_base,
            "mlp": p.mlp,
            "streams": "+".join(f"{s.kind}:{s.weight:g}"
                                for s in p.streams),
        })
    return rows
