"""Unit tests for the configuration layer (Table I + scaling)."""

import pytest

from repro.config import (CacheConfig, ConfigError, CpuCoreConfig,
                          DramConfig, GpuConfig, QosConfig, RingConfig,
                          SCALES, Scale, SystemConfig, default_config)


def test_table1_headline_values():
    cfg = default_config()
    assert cfg.n_cpus == 4
    assert cfg.cpu.l1d.size_bytes == 32 * 1024
    assert cfg.cpu.l1d.ways == 8
    assert cfg.cpu.l2.size_bytes == 256 * 1024
    assert cfg.llc.size_bytes == 16 * 1024 * 1024   # paper value
    assert cfg.llc.ways == 16
    assert cfg.llc.policy == "srrip"
    assert cfg.dram.channels == 2
    assert cfg.dram.timing.t_cas == 14
    assert cfg.gpu.shader_cores == 64
    assert cfg.gpu.rops == 16
    assert cfg.qos.target_fps == 40.0
    assert cfg.qos.rtp_table_entries == 64


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        CacheConfig("bad", 1000, 7)


def test_construction_time_rejections():
    """Impossible machines fail at build time with a ConfigError naming
    the offending field — never as a nonsense simulation result."""
    cases = [
        lambda: CacheConfig("z", 0, 8),                 # zero-size cache
        lambda: CacheConfig("z", 32 * 1024, -1),        # negative ways
        lambda: CacheConfig("z", 32 * 1024, 8, mshr_entries=0),
        lambda: CpuCoreConfig(issue_width=0),           # zero-width core
        lambda: CpuCoreConfig(mlp_limit=-4),
        lambda: CpuCoreConfig(write_buffer=0),
        lambda: GpuConfig(shader_cores=0),
        lambda: GpuConfig(issue_rate=-1),
        lambda: DramConfig(channels=0),
        lambda: DramConfig(read_queue=-1),
        lambda: DramConfig(mapping="diagonal"),
        lambda: DramConfig(write_drain_lo=0.9,          # lo above hi
                           write_drain_hi=0.2),
        lambda: DramConfig(write_drain_hi=1.5),         # outside [0, 1]
        lambda: RingConfig(hop_ticks=0),
        lambda: RingConfig(model="mesh"),
        lambda: QosConfig(target_fps=-30.0),            # negative budget
        lambda: QosConfig(wg_step=0),
        lambda: QosConfig(recompute_interval_gpu_cycles=0),
        lambda: QosConfig(verify_threshold=1.5),        # lambda-like knob
        lambda: QosConfig(verify_threshold=0.0),
        lambda: Scale("z", gpu_frame_cycles=0, cpu_instructions=1000),
        lambda: Scale("z", gpu_frame_cycles=1000, cpu_instructions=-1),
        lambda: Scale("z", gpu_frame_cycles=1000, cpu_instructions=1000,
                      min_frames=9, max_frames=3),
        lambda: SystemConfig(n_cpus=-1),
        lambda: SystemConfig(gpu_frontend="raytrace"),
    ]
    for build in cases:
        with pytest.raises(ConfigError):
            build()


def test_frpu_rejects_bad_knobs():
    from repro.predict.rtp import RtpExtrapolator
    for kwargs in ({"ewma_alpha": 0.0}, {"ewma_alpha": 1.5},
                   {"verify_threshold": 0.0}, {"rtp_entries": 0},
                   {"skip_frames": -1}):
        with pytest.raises(ConfigError):
            RtpExtrapolator(**kwargs)


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_scale_presets_are_ordered():
    assert SCALES["smoke"].gpu_frame_cycles < \
        SCALES["test"].gpu_frame_cycles < \
        SCALES["bench"].gpu_frame_cycles < \
        SCALES["paper"].gpu_frame_cycles
    assert SCALES["paper"].mem_scale == 1


def test_effective_llc_scales_capacity_only():
    cfg = default_config("test")
    llc = cfg.effective_llc()
    assert llc.size_bytes == cfg.scale.llc_bytes
    assert llc.ways == 16
    assert llc.policy == "srrip"


def test_effective_cpu_scales_private_caches():
    cfg = default_config("test")     # mem_scale 4
    cpu = cfg.effective_cpu()
    assert cpu.l1d.size_bytes == 8 * 1024
    assert cpu.l2.size_bytes == 64 * 1024
    paper = default_config("paper")  # mem_scale 1
    assert paper.effective_cpu().l1d.size_bytes == 32 * 1024


def test_with_helpers():
    cfg = default_config().with_scale("smoke").with_cpus(2)
    assert cfg.scale.name == "smoke"
    assert cfg.n_cpus == 2
    cfg2 = cfg.with_qos(target_fps=50.0)
    assert cfg2.qos.target_fps == 50.0
    assert cfg.qos.target_fps == 40.0   # frozen original untouched
