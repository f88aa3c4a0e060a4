"""Render target geometry and procedural frame-work generation.

A frame is rendered as a sequence of *render-target planes* (RTPs): full
coverage passes over the render target's tiles (RTTs), exactly the
structure the FRPU's RTP table observes (paper Fig. 5).  Each tile update
carries a generated access list (texture/depth/colour/vertex) plus a
compute budget; the pipeline walks these through the GPU-internal caches.

Footprints are real-sized (multi-MB colour/depth/texture buffers); the
scale preset only shrinks *how many* tiles are touched per frame (a
representative sample from a persistent active-tile set, so cross-RTP and
cross-frame reuse is preserved).
"""

from __future__ import annotations

import numpy as np

from repro.config import GPU_CYCLE_TICKS, LINE_BYTES
from repro.gpu.workloads import GameWorkload

#: access-kind codes used in tile work arrays
KIND_TEX, KIND_DEPTH, KIND_COLOR, KIND_VERTEX = 0, 1, 2, 3
KIND_ZHIER, KIND_SHADERI = 4, 5
KIND_NAMES = {KIND_TEX: "texture", KIND_DEPTH: "depth",
              KIND_COLOR: "color", KIND_VERTEX: "vertex",
              KIND_ZHIER: "zhier", KIND_SHADERI: "shader_i"}

TILE_PX = 16                        # t x t render-target tiles
BYTES_PER_PIXEL = 4


class RenderTarget:
    """Address geometry of the colour + depth buffers."""

    def __init__(self, workload: GameWorkload, base_addr: int):
        self.workload = workload
        self.width = workload.width
        self.height = workload.height
        self.tiles_x = self.width // TILE_PX
        self.tiles_y = self.height // TILE_PX
        self.n_tiles = self.tiles_x * self.tiles_y
        row_bytes = self.width * BYTES_PER_PIXEL
        self.buffer_bytes = row_bytes * self.height
        self.color_base = base_addr
        self.depth_base = base_addr + self._round(self.buffer_bytes)
        self.end_addr = self.depth_base + self._round(self.buffer_bytes)
        # one 16x16 tile = 16 rows x 64B = 16 lines per buffer
        self._tile_lines = (TILE_PX * TILE_PX * BYTES_PER_PIXEL) \
            // LINE_BYTES
        self._row_bytes = row_bytes

    @staticmethod
    def _round(n: int) -> int:
        return (n + 0xFFFF) & ~0xFFFF

    def tile_lines(self, tile: int, base: int) -> np.ndarray:
        """Line addresses of one tile in the buffer at ``base``."""
        ty, tx = divmod(tile, self.tiles_x)
        x_byte = tx * TILE_PX * BYTES_PER_PIXEL
        rows = np.arange(TILE_PX, dtype=np.int64)
        addrs = base + (ty * TILE_PX + rows) * self._row_bytes + x_byte
        return addrs & ~(LINE_BYTES - 1)

    def color_lines(self, tile: int) -> np.ndarray:
        return self.tile_lines(tile, self.color_base)

    def depth_lines(self, tile: int) -> np.ndarray:
        return self.tile_lines(tile, self.depth_base)


class TileWork:
    """One RTT update: ordered accesses + compute budget."""

    __slots__ = ("tile", "kinds", "addrs", "writes", "compute_ticks",
                 "updates")

    def __init__(self, tile: int, kinds: np.ndarray, addrs: np.ndarray,
                 writes: np.ndarray, compute_ticks: int, updates: int = 1):
        self.tile = tile
        self.kinds = kinds
        self.addrs = addrs
        self.writes = writes
        self.compute_ticks = compute_ticks
        self.updates = updates

    @property
    def n_accesses(self) -> int:
        return len(self.kinds)


class RtpWork:
    """One render-target plane: a batch of tile updates."""

    __slots__ = ("index", "tiles")

    def __init__(self, index: int, tiles: list[TileWork]):
        self.index = index
        self.tiles = tiles

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def updates(self) -> int:
        return sum(t.updates for t in self.tiles)


class FrameDescription:
    """All RTPs of one frame."""

    __slots__ = ("index", "rtps")

    def __init__(self, index: int, rtps: list[RtpWork]):
        self.index = index
        self.rtps = rtps

    @property
    def n_rtps(self) -> int:
        return len(self.rtps)

    def total_accesses(self) -> int:
        return sum(t.n_accesses for r in self.rtps for t in r.tiles)


class FrameGenerator:
    """Procedurally generates frames for one game, deterministically.

    Memory layout (all within the GPU's address region):
    colour buffer | depth buffer | texture atlas | vertex buffers.
    """

    def __init__(self, workload: GameWorkload, gpu_frame_cycles: int,
                 base_addr: int, seed: int, mem_scale: int = 1):
        self.workload = workload
        self.gpu_frame_cycles = gpu_frame_cycles
        self.mem_scale = max(mem_scale, 1)
        self.rng = np.random.default_rng(seed)
        self.rt = RenderTarget(workload, base_addr)
        self.tex_base = self.rt.end_addr
        tex_bytes = max(workload.texture_bytes // self.mem_scale,
                        256 * 1024)
        self.tex_lines = max(tex_bytes // LINE_BYTES, 64)
        self.vertex_base = self.tex_base + tex_bytes
        self.vertex_bytes = max(8 * 1024 * 1024 // self.mem_scale,
                                256 * 1024)
        # hierarchical-depth buffer: 1/16th of the depth buffer, and the
        # shader program code region
        self.zhier_base = self.vertex_base + self.vertex_bytes
        self.zhier_bytes = max(self.rt.buffer_bytes // 16, LINE_BYTES * 16)
        self.shader_code_base = self.zhier_base + self.zhier_bytes
        self.shader_code_bytes = 64 * 1024
        self.end_addr = self.shader_code_base + self.shader_code_bytes
        self._vertex_cursor = 0

        # how many tiles one frame touches: the design-point access budget
        # divided by per-tile work, split across RTPs
        per_tile = workload.accesses_per_tile()
        budget = workload.llc_intensity * gpu_frame_cycles
        self.tiles_per_rtp = max(int(budget / (workload.n_rtp * per_tile)), 4)
        # persistent active set, 4x a single RTP's tiles, spread over the RT
        n_active = min(self.tiles_per_rtp * 4, self.rt.n_tiles)
        self.active_tiles = np.sort(self.rng.choice(
            self.rt.n_tiles, size=n_active, replace=False))
        # per-tile texture neighbourhood (a cluster in the atlas)
        self._tile_tex_base = self.rng.integers(
            0, max(self.tex_lines - 64, 1), size=n_active)
        # compute budget per tile so that sum(compute) = compute_frac*frame
        total_tiles = self.tiles_per_rtp * workload.n_rtp
        self.compute_per_tile_ticks = max(int(
            workload.compute_frac * gpu_frame_cycles * GPU_CYCLE_TICKS
            / total_tiles), 1)

    # -- access-pattern helpers -----------------------------------------

    #: fraction of texture taps inside the tile's atlas neighbourhood
    TEX_LOCAL_FRAC = 0.92
    #: atlas neighbourhood size in lines (2 KB per tile)
    TEX_LOCAL_LINES = 32

    def _texture_addrs(self, active_idx: int, n: int) -> np.ndarray:
        """Most taps fall in the tile's atlas neighbourhood (bilinear
        taps of adjacent fragments share lines); the rest scatter over
        the whole atlas (mip levels, far LODs) — those are the GPU's
        DRAM-bound texture traffic."""
        rng = self.rng
        base = int(self._tile_tex_base[active_idx])
        local = base + rng.integers(0, self.TEX_LOCAL_LINES, size=n)
        far = rng.integers(0, self.tex_lines, size=n)
        lines = np.where(rng.random(n) < self.TEX_LOCAL_FRAC, local, far) \
            % self.tex_lines
        return self.tex_base + lines * LINE_BYTES

    def _vertex_addrs(self, n: int) -> np.ndarray:
        lines = self.vertex_bytes // LINE_BYTES
        idx = (self._vertex_cursor + np.arange(n, dtype=np.int64)) % lines
        self._vertex_cursor = int((self._vertex_cursor + n) % lines)
        return self.vertex_base + idx * LINE_BYTES

    def _tile_work(self, active_idx: int, hot: bool) -> TileWork:
        w = self.workload
        rng = self.rng
        tile = int(self.active_tiles[active_idx])
        mult = 2 if hot else 1
        n_tex = w.tex_per_tile * mult
        n_depth = w.depth_per_tile * mult
        n_color = w.color_per_tile * mult
        n_vert = w.vertex_per_tile

        color_lines = self.rt.color_lines(tile)
        depth_lines = self.rt.depth_lines(tile)
        # depth: test-then-update walk over the tile's lines (reads, ~45%
        # also update); colour: blends/writes dominate (~75% writes)
        depth_addrs = depth_lines[rng.integers(0, len(depth_lines), n_depth)]
        color_addrs = color_lines[rng.integers(0, len(color_lines), n_color)]
        tex_addrs = self._texture_addrs(active_idx, n_tex)
        vert_addrs = self._vertex_addrs(n_vert)

        # one hierarchical-depth probe and one shader i-fetch per update
        zhier_addr = self.zhier_base + (
            (tile * LINE_BYTES) % self.zhier_bytes) // LINE_BYTES \
            * LINE_BYTES
        shader_addr = self.shader_code_base + int(rng.integers(
            0, self.shader_code_bytes // LINE_BYTES)) * LINE_BYTES

        kinds = np.concatenate([
            np.full(1, KIND_ZHIER, dtype=np.int8),
            np.full(1, KIND_SHADERI, dtype=np.int8),
            np.full(n_vert, KIND_VERTEX, dtype=np.int8),
            np.full(n_tex, KIND_TEX, dtype=np.int8),
            np.full(n_depth, KIND_DEPTH, dtype=np.int8),
            np.full(n_color, KIND_COLOR, dtype=np.int8)])
        addrs = np.concatenate([
            np.array([zhier_addr, shader_addr], dtype=np.int64),
            vert_addrs, tex_addrs, depth_addrs, color_addrs])
        writes = np.concatenate([
            np.zeros(2 + n_vert, dtype=bool),
            np.zeros(n_tex, dtype=bool),
            rng.random(n_depth) < 0.45,
            rng.random(n_color) < 0.75])
        compute = self.compute_per_tile_ticks * mult
        return TileWork(tile, kinds, addrs, writes, compute,
                        updates=mult)

    # -- frame generation --------------------------------------------------

    def next_frame(self, index: int) -> FrameDescription:
        w = self.workload
        rng = self.rng
        jitter = float(np.clip(rng.normal(1.0, w.frame_jitter), 0.7, 1.4))
        n_tiles = max(int(self.tiles_per_rtp * jitter), 2)
        n_active = len(self.active_tiles)
        rtps = []
        for r in range(w.n_rtp):
            # each RTP covers a window of the active set (scene coherence:
            # consecutive RTPs revisit mostly the same tiles)
            start = int(rng.integers(0, n_active))
            sel = (start + np.arange(n_tiles)) % n_active
            hot = rng.random(n_tiles) < w.hot_tile_frac
            tiles = [self._tile_work(int(sel[i]), bool(hot[i]))
                     for i in range(n_tiles)]
            rtps.append(RtpWork(r, tiles))
        return FrameDescription(index, rtps)
