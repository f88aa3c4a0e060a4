"""Machine and experiment configuration.

This module encodes Table I of the paper (the simulated heterogeneous CMP)
as a tree of frozen dataclasses, plus the *scaling presets* that let the
same machine run paper-shaped experiments at laptop speed.

Clocking model
--------------
The simulation uses a single integer time base: **one tick = one CPU cycle
at 4 GHz**.  The GPU runs at 1 GHz, i.e. one GPU cycle = 4 ticks.  The
DDR3-2133 command clock (1066 MHz) is approximated as 4 ticks per DRAM
cycle; this slightly under-clocks the DRAM (1.000 vs 1.066 GHz) which is
irrelevant for the relative results the paper reports.

Scaling model
-------------
The paper simulates 450M instructions per CPU core and full 1280x1024+
frames on a cycle-accurate simulator farm.  We scale all *work* down by a
preset factor while keeping all *machine latencies and rates* fixed, and
report FPS through ``fps_time_scale`` so the Table II calibration holds:

    reported_fps = fps_time_scale * gpu_clock_hz / cycles_per_frame

``fps_time_scale`` equals the factor by which per-frame work was shrunk,
so a game calibrated to 80 FPS standalone reports ~80 FPS at every preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


class ConfigError(ValueError):
    """An impossible machine description, rejected at construction time.

    Every config dataclass validates in ``__post_init__`` so a typo'd
    sweep (zero-width core, negative cycle budget, cache that doesn't
    tile, drain watermark outside [0, 1]) fails at build time with a
    named field — never as a nonsense simulation result thousands of
    ticks later.
    """


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ConfigError(what)


def _positive(name: str, **fields: float) -> None:
    for fname, value in fields.items():
        _require(value > 0, f"{name}.{fname} must be > 0, got {value!r}")


def _non_negative(name: str, **fields: float) -> None:
    for fname, value in fields.items():
        _require(value >= 0,
                 f"{name}.{fname} must be >= 0, got {value!r}")


CPU_CLOCK_HZ: int = 4_000_000_000
GPU_CLOCK_HZ: int = 1_000_000_000

#: ticks (CPU cycles) per GPU cycle
GPU_CYCLE_TICKS: int = 4
#: ticks per DRAM command-bus cycle (approximation of 1066 MHz, see module doc)
DRAM_CYCLE_TICKS: int = 4

LINE_BYTES: int = 64


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one set-associative cache."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = LINE_BYTES
    latency: int = 1                  # lookup latency in ticks
    policy: str = "lru"               # replacement policy registry key
    write_back: bool = True
    write_allocate: bool = True
    mshr_entries: int = 16

    @property
    def sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0:
            raise ConfigError(f"{self.name}: geometry yields {sets} sets")
        return sets

    def __post_init__(self) -> None:
        _positive(self.name, size_bytes=self.size_bytes, ways=self.ways,
                  line_bytes=self.line_bytes,
                  mshr_entries=self.mshr_entries)
        _non_negative(self.name, latency=self.latency)
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )


@dataclass(frozen=True)
class CpuCoreConfig:
    """Interval-model parameters for one out-of-order x86 core (4 GHz)."""

    issue_width: int = 4              # retired instructions per cycle, peak
    rob_entries: int = 192
    mlp_limit: int = 16               # max outstanding LLC-bound loads
    write_buffer: int = 32
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        "l1i", 32 * 1024, 8, latency=2))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        "l1d", 32 * 1024, 8, latency=2))
    # Latencies are in ticks; one CPU cycle == one tick, so Table I's
    # "2 cycles"/"3 cycles" translate directly.
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "l2", 256 * 1024, 8, latency=3))

    def __post_init__(self) -> None:
        _positive("cpu", issue_width=self.issue_width,
                  rob_entries=self.rob_entries, mlp_limit=self.mlp_limit,
                  write_buffer=self.write_buffer)


@dataclass(frozen=True)
class GpuCachesConfig:
    """GPU-internal cache hierarchy (Table I)."""

    tex_l0: CacheConfig = field(default_factory=lambda: CacheConfig(
        "tex_l0", 2 * 1024, 32, latency=1 * GPU_CYCLE_TICKS))  # fully assoc.
    tex_l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "tex_l1", 64 * 1024, 16, latency=2 * GPU_CYCLE_TICKS))
    tex_l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "tex_l2", 384 * 1024, 48, latency=4 * GPU_CYCLE_TICKS))
    depth_l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "depth_l1", 2 * 1024, 8, line_bytes=256,
        latency=1 * GPU_CYCLE_TICKS))
    depth_l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "depth_l2", 32 * 1024, 32, latency=2 * GPU_CYCLE_TICKS))
    color_l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "color_l1", 2 * 1024, 8, line_bytes=256,
        latency=1 * GPU_CYCLE_TICKS))
    color_l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "color_l2", 32 * 1024, 32, latency=2 * GPU_CYCLE_TICKS))
    vertex: CacheConfig = field(default_factory=lambda: CacheConfig(
        "vertex", 16 * 1024, 256, latency=1 * GPU_CYCLE_TICKS))  # fully assoc.
    zhier: CacheConfig = field(default_factory=lambda: CacheConfig(
        "zhier", 16 * 1024, 16, latency=1 * GPU_CYCLE_TICKS))
    shader_i: CacheConfig = field(default_factory=lambda: CacheConfig(
        "shader_i", 32 * 1024, 8, latency=1 * GPU_CYCLE_TICKS))


@dataclass(frozen=True)
class GpuConfig:
    """Throughput-optimised GPU (1 GHz, unified shader model)."""

    shader_cores: int = 64
    max_thread_contexts: int = 4096
    texture_samplers_per_core: int = 2
    rops: int = 16
    #: max LLC-bound requests in flight (request buffers + MSHRs across
    #: the texture/depth/colour paths; GPUs sustain very deep MLP)
    mshr_entries: int = 48
    #: max LLC accesses the GPU front end can issue per GPU cycle
    issue_rate: int = 2
    caches: GpuCachesConfig = field(default_factory=GpuCachesConfig)

    def __post_init__(self) -> None:
        _positive("gpu", shader_cores=self.shader_cores,
                  max_thread_contexts=self.max_thread_contexts,
                  texture_samplers_per_core=self.texture_samplers_per_core,
                  rops=self.rops, mshr_entries=self.mshr_entries,
                  issue_rate=self.issue_rate)


@dataclass(frozen=True)
class LlcConfig:
    """Shared LLC: 16 MB, 16-way, SRRIP, inclusive for CPU lines only."""

    size_bytes: int = 16 * 1024 * 1024
    ways: int = 16
    line_bytes: int = LINE_BYTES
    latency: int = 10                 # ticks (10 CPU cycles, Table I)
    policy: str = "srrip"
    mshr_entries: int = 128

    def __post_init__(self) -> None:
        # full geometry/divisibility checks run in cache_config(); the
        # eager ones here catch sweeps that never build a cache
        _positive("llc", size_bytes=self.size_bytes, ways=self.ways,
                  line_bytes=self.line_bytes,
                  mshr_entries=self.mshr_entries)
        _non_negative("llc", latency=self.latency)

    def cache_config(self) -> CacheConfig:
        return CacheConfig(
            "llc", self.size_bytes, self.ways, self.line_bytes,
            latency=self.latency, policy=self.policy,
            mshr_entries=self.mshr_entries)


@dataclass(frozen=True)
class DramTiming:
    """DDR3-2133 14-14-14, values in DRAM command-bus cycles."""

    t_cas: int = 14
    t_rcd: int = 14
    t_rp: int = 14
    t_ras: int = 36
    burst_cycles: int = 4             # BL=8 on a DDR bus -> 4 command cycles
    t_wr: int = 16                    # write recovery
    t_wtr: int = 8                    # write-to-read turnaround
    t_rtp: int = 8                    # read-to-precharge
    #: refresh: tREFI (interval) and tRFC (all-bank busy), DRAM cycles.
    #: Disabled by default (t_refi=0) to keep the calibrated baseline;
    #: no bench or figure enables it (tests/dram/test_refresh_faw.py
    #: checks that it costs bandwidth, not how much).
    t_refi: int = 0
    t_rfc: int = 280
    #: tFAW: at most four ACTIVATEs per rolling window (DRAM cycles).
    #: 0 disables the constraint (default, see above).
    t_faw: int = 0

    def __post_init__(self) -> None:
        _positive("dram.timing", t_cas=self.t_cas, t_rcd=self.t_rcd,
                  t_rp=self.t_rp, t_ras=self.t_ras,
                  burst_cycles=self.burst_cycles, t_wr=self.t_wr,
                  t_wtr=self.t_wtr, t_rtp=self.t_rtp, t_rfc=self.t_rfc)
        _non_negative("dram.timing", t_refi=self.t_refi,
                      t_faw=self.t_faw)


@dataclass(frozen=True)
class DramConfig:
    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    row_bytes: int = 8 * 1024         # 1 KB/device x8 devices
    #: address-mapping scheme: "line" interleaves channels at line
    #: granularity (default, maximises channel parallelism), "row"
    #: interleaves at row granularity (keeps a stream on one channel),
    #: "bank-xor" adds a row-XOR bank hash to spread conflict rows
    mapping: str = "line"
    timing: DramTiming = field(default_factory=DramTiming)
    open_page: bool = True
    read_queue: int = 64
    write_queue: int = 64
    #: drain writes when the write queue is this full (fraction)
    write_drain_hi: float = 0.8
    write_drain_lo: float = 0.2

    def __post_init__(self) -> None:
        _positive("dram", channels=self.channels,
                  ranks_per_channel=self.ranks_per_channel,
                  banks_per_rank=self.banks_per_rank,
                  row_bytes=self.row_bytes, read_queue=self.read_queue,
                  write_queue=self.write_queue)
        _require(self.mapping in ("line", "row", "bank-xor"),
                 f"dram.mapping must be line/row/bank-xor, "
                 f"got {self.mapping!r}")
        _require(0.0 <= self.write_drain_lo < self.write_drain_hi <= 1.0,
                 "dram write-drain watermarks must satisfy "
                 "0 <= lo < hi <= 1, got "
                 f"lo={self.write_drain_lo!r} hi={self.write_drain_hi!r}")


@dataclass(frozen=True)
class RingConfig:
    """Bidirectional ring, single-cycle hop (Table I)."""

    hop_ticks: int = 1
    #: ring stops: cores..., LLC slice, MC0, MC1, GPU
    link_bytes_per_tick: int = 32
    #: "latency" (pure hop latency, default) or "contention" (finite
    #: per-direction injection rate; see interconnect.ring)
    model: str = "latency"
    #: injection-slot occupancy per message under the contention model
    slot_ticks: int = 1

    def __post_init__(self) -> None:
        _positive("ring", hop_ticks=self.hop_ticks,
                  link_bytes_per_tick=self.link_bytes_per_tick,
                  slot_ticks=self.slot_ticks)
        _require(self.model in ("latency", "contention"),
                 f"ring.model must be latency/contention, "
                 f"got {self.model!r}")


#: frame-time predictor registry names (the FRPU seam).  Mirrors
#: ``repro.predict.PREDICTOR_NAMES`` — kept as a literal here so the
#: config tree stays import-light; a sync test in tests/predict
#: enforces the equality.  See docs/predictors.md.
PREDICTORS: tuple[str, ...] = ("rtp", "rls", "ewma-blend", "last-frame")


@dataclass(frozen=True)
class QosConfig:
    """The proposal's knobs (Section III)."""

    target_fps: float = 40.0          # 30 FPS floor + 10 FPS cushion
    rtp_table_entries: int = 64
    #: relative drift that invalidates learned data (cross-verification)
    verify_threshold: float = 0.25
    #: W_G growth step of the Fig. 6 loop
    wg_step: int = 2
    #: GPU cycles between throttle-parameter recomputations
    recompute_interval_gpu_cycles: int = 2048
    #: frame-time predictor behind the FRPU: "rtp" (the paper's Eqs.
    #: 1-3 extrapolator, default), "rls", "ewma-blend" or "last-frame"
    predictor: str = "rtp"

    def __post_init__(self) -> None:
        _positive("qos", target_fps=self.target_fps,
                  rtp_table_entries=self.rtp_table_entries,
                  wg_step=self.wg_step,
                  recompute_interval_gpu_cycles=(
                      self.recompute_interval_gpu_cycles))
        _require(0.0 < self.verify_threshold <= 1.0,
                 "qos.verify_threshold must be in (0, 1], got "
                 f"{self.verify_threshold!r}")
        _require(self.predictor in PREDICTORS,
                 f"qos.predictor must be one of {'/'.join(PREDICTORS)}, "
                 f"got {self.predictor!r}")


@dataclass(frozen=True)
class Scale:
    """Work-scaling preset.

    Frames are scaled *per game*: a game nominally running at ``fps`` has
    a design-point frame of ``gpu_frame_cycles`` GPU cycles, so its time
    scale is ``S_game = 1e9 / (fps * gpu_frame_cycles)`` and measured FPS
    is reported as ``S_game * 1e9 / measured_frame_ticks_in_gpu_cycles``.
    Capacity *ratios* are preserved rather than absolute sizes: the LLC,
    the CPU private caches, the applications' hot sets and streaming
    footprints, and the GPU texture/vertex footprints all shrink by the
    same ``mem_scale`` so the working-set-to-capacity pressure (the
    mechanism the paper manages) is faithful at every preset.
    """

    name: str
    #: design-point GPU cycles per frame (standalone, compute-bound part)
    gpu_frame_cycles: int
    cpu_instructions: int             # per core, already scaled
    min_frames: int = 4               # at least this many frames per run
    max_frames: int = 12
    #: CPU warm-up instructions before measurement begins
    warmup_instructions: int = 0
    #: LLC capacity at this preset.  A scaled run issues ~1000x fewer
    #: accesses than the paper's 450M-instruction windows, so the full
    #: 16 MB LLC would never fill and every capacity effect — the very
    #: mechanism the paper manages — would vanish.  Shrinking the LLC
    #: with the work preserves the working-set-to-capacity pressure.
    llc_bytes: int = 1024 * 1024
    #: uniform divisor for the other memory footprints: CPU private
    #: caches, application hot/big regions, GPU texture/vertex buffers
    #: and larger GPU-internal caches, so every capacity ratio (hot set
    #: vs L1/L2, private caches vs LLC, footprint vs LLC) stays in the
    #: paper's regime at reduced access counts.
    mem_scale: int = 4

    def __post_init__(self) -> None:
        _positive(f"scale[{self.name}]",
                  gpu_frame_cycles=self.gpu_frame_cycles,
                  cpu_instructions=self.cpu_instructions,
                  min_frames=self.min_frames, max_frames=self.max_frames,
                  llc_bytes=self.llc_bytes, mem_scale=self.mem_scale)
        _non_negative(f"scale[{self.name}]",
                      warmup_instructions=self.warmup_instructions)
        _require(self.min_frames <= self.max_frames,
                 f"scale[{self.name}]: min_frames {self.min_frames} "
                 f"exceeds max_frames {self.max_frames}")


#: Presets: "smoke" for unit tests, "test" for integration/benchmarks,
#: "paper" for the most faithful (slow) runs.
SCALES: dict[str, Scale] = {
    "smoke": Scale("smoke", gpu_frame_cycles=8_000,
                   cpu_instructions=40_000, min_frames=3, max_frames=6,
                   llc_bytes=512 * 1024, mem_scale=8),
    "test": Scale("test", gpu_frame_cycles=24_000,
                  cpu_instructions=150_000, min_frames=4, max_frames=9,
                  warmup_instructions=20_000, llc_bytes=1024 * 1024,
                  mem_scale=4),
    "bench": Scale("bench", gpu_frame_cycles=40_000,
                   cpu_instructions=300_000, min_frames=5, max_frames=12,
                   warmup_instructions=40_000, llc_bytes=2 * 1024 * 1024,
                   mem_scale=2),
    "paper": Scale("paper", gpu_frame_cycles=120_000,
                   cpu_instructions=1_200_000, min_frames=6, max_frames=18,
                   warmup_instructions=150_000,
                   llc_bytes=4 * 1024 * 1024, mem_scale=1),
}


@dataclass(frozen=True)
class SystemConfig:
    """Top-level machine description (Table I) plus scaling preset."""

    n_cpus: int = 4
    cpu: CpuCoreConfig = field(default_factory=CpuCoreConfig)
    gpu: GpuConfig = field(default_factory=GpuConfig)
    llc: LlcConfig = field(default_factory=LlcConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    ring: RingConfig = field(default_factory=RingConfig)
    qos: QosConfig = field(default_factory=QosConfig)
    scale: Scale = field(default_factory=lambda: SCALES["test"])
    seed: int = 1
    #: GPU front end: "procedural" (calibrated tile budgets, default)
    #: or "geometry" (explicit triangle scene -> raster coverage)
    gpu_frontend: str = "procedural"

    def __post_init__(self) -> None:
        # n_cpus == 0 is legal: standalone GPU runs have no CPU cores
        _non_negative("system", n_cpus=self.n_cpus)
        _require(self.gpu_frontend in ("procedural", "geometry"),
                 f"system.gpu_frontend must be procedural/geometry, "
                 f"got {self.gpu_frontend!r}")

    def with_scale(self, scale: str | Scale) -> "SystemConfig":
        if isinstance(scale, str):
            scale = SCALES[scale]
        return replace(self, scale=scale)

    def with_cpus(self, n: int) -> "SystemConfig":
        return replace(self, n_cpus=n)

    def with_qos(self, **kwargs) -> "SystemConfig":
        return replace(self, qos=replace(self.qos, **kwargs))

    def effective_llc(self) -> LlcConfig:
        """The LLC at this preset's capacity (see :class:`Scale`)."""
        return replace(self.llc, size_bytes=self.scale.llc_bytes)

    def effective_cpu(self) -> CpuCoreConfig:
        """CPU core config with private caches at this preset's scale."""
        k = self.scale.mem_scale
        if k <= 1:
            return self.cpu
        return replace(
            self.cpu,
            l1i=replace(self.cpu.l1i,
                        size_bytes=self.cpu.l1i.size_bytes // k),
            l1d=replace(self.cpu.l1d,
                        size_bytes=self.cpu.l1d.size_bytes // k),
            l2=replace(self.cpu.l2,
                       size_bytes=self.cpu.l2.size_bytes // k))


def default_config(scale: str = "test", n_cpus: int = 4,
                   seed: int = 1) -> SystemConfig:
    """The Table I machine at the given scaling preset."""
    return SystemConfig(n_cpus=n_cpus, scale=SCALES[scale], seed=seed)
