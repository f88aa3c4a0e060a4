"""Triangle-level geometry front end (alternative frame generator).

The default :class:`~repro.gpu.framebuffer.FrameGenerator` produces tile
work directly from calibrated budgets.  This module derives the same
tile work from an explicit geometry pipeline, the way the Attila
simulator's frames do:

1. **Scene** — a deterministic set of screen-space triangles per frame
   (object clusters with frame-to-frame coherence: the camera drifts, so
   most triangles move slightly between frames).
2. **Vertex stage** — each triangle fetches its three vertices from the
   vertex buffer (indexed, so shared vertices hit the vertex cache).
3. **Raster stage** — each triangle covers the render-target tiles its
   bounding box intersects; per covered tile it contributes fragments.
4. **Hierarchical-Z** — a depth-sorted fraction of fragments is rejected
   before shading (the zhier probe models the test's memory side).
5. **Fragment stage** — surviving fragments become texture/depth/colour
   accesses on the covered tile, reusing the same per-tile access
   generators as the default front end.

The triangle count is auto-calibrated so a frame's total access budget
matches the workload's ``llc_intensity * gpu_frame_cycles`` design
point — the two front ends are interchangeable for the experiments
(selected with ``SystemConfig.gpu_frontend = "geometry"``) and the
front-end ablation bench compares them.
"""

from __future__ import annotations

import numpy as np

from repro.config import LINE_BYTES
from repro.gpu.framebuffer import (FrameDescription, FrameGenerator,
                                   RtpWork, TILE_PX, TileWork,
                                   KIND_COLOR, KIND_DEPTH, KIND_SHADERI,
                                   KIND_TEX, KIND_VERTEX, KIND_ZHIER)
from repro.gpu.workloads import GameWorkload


class Scene:
    """Deterministic drifting-triangle scene for one game."""

    def __init__(self, workload: GameWorkload, n_triangles: int,
                 rng: np.random.Generator):
        self.w = workload
        self.n = n_triangles
        width, height = workload.width, workload.height
        # object clusters: triangles belong to objects; objects drift
        self.n_objects = max(n_triangles // 8, 1)
        self.obj_x = rng.uniform(0, width, self.n_objects)
        self.obj_y = rng.uniform(0, height, self.n_objects)
        self.obj_vx = rng.normal(0, 4.0, self.n_objects)
        self.obj_vy = rng.normal(0, 4.0, self.n_objects)
        self.tri_obj = rng.integers(0, self.n_objects, n_triangles)
        self.tri_dx = rng.normal(0, 40.0, n_triangles)
        self.tri_dy = rng.normal(0, 40.0, n_triangles)
        # triangle sizes: mostly small, a few large (log-normal-ish)
        self.tri_size = np.clip(
            rng.lognormal(np.log(TILE_PX), 0.8, n_triangles),
            4, TILE_PX * 6)
        self.tri_depth = rng.random(n_triangles)
        # indexed vertices: ~0.6 vertices per triangle are shared
        self.tri_vertex_idx = rng.integers(
            0, max(n_triangles * 2, 8), size=(n_triangles, 3))

    def advance(self) -> None:
        """One frame of camera/object drift (scene coherence)."""
        self.obj_x = (self.obj_x + self.obj_vx) % self.w.width
        self.obj_y = (self.obj_y + self.obj_vy) % self.w.height

    def triangle_positions(self) -> tuple[np.ndarray, np.ndarray]:
        x = (self.obj_x[self.tri_obj] + self.tri_dx) % self.w.width
        y = (self.obj_y[self.tri_obj] + self.tri_dy) % self.w.height
        return x, y


class GeometryFrameGenerator(FrameGenerator):
    """Frame generator driven by the triangle scene.

    Inherits the address-space layout and the per-tile access synthesis
    from :class:`FrameGenerator`; overrides *which* tiles a frame
    touches and how many updates each receives (triangle coverage).
    """

    #: fraction of covered-tile fragments rejected by hierarchical-Z
    ZHIER_REJECT = 0.25

    def __init__(self, workload: GameWorkload, gpu_frame_cycles: int,
                 base_addr: int, seed: int, mem_scale: int = 1):
        super().__init__(workload, gpu_frame_cycles, base_addr, seed,
                         mem_scale)
        # calibrate the triangle count to the same access budget:
        # expected covered tiles per triangle from the size distribution
        per_tile = workload.accesses_per_tile()
        budget_tiles = max(
            int(workload.llc_intensity * gpu_frame_cycles
                / (workload.n_rtp * per_tile)), 4) * workload.n_rtp
        self._budget_tiles = budget_tiles
        # initial guess from the size distribution (lognormal, mean
        # ~22 px -> ~2.4x2.4 tile bbox) times the mean per-tile update
        # multiplier of _geom_tile_work ...
        mean_tiles_per_tri = 6.0
        mean_update_mult = 1.5
        self.n_triangles = max(
            int(budget_tiles / (mean_tiles_per_tri * mean_update_mult)),
            8)
        self.scene = Scene(workload, self.n_triangles, self.rng)
        # ... then empirical correction: measure the update-weighted
        # coverage of the generated scene and rescale the triangle count
        # until the per-frame access budget matches the procedural front
        # end.  Coverage is nonlinear in triangle count (overlap, the
        # update-multiplier cap), hence the fixed-point iteration.
        # Deterministic: all RNG is seeded.
        survive = 1.0 - self.ZHIER_REJECT
        for _ in range(6):
            cov = self._cover()
            if not cov:
                break
            weighted = sum(min(max(round(u * survive), 1), 4)
                           for u in cov.values())
            # every RTP is a full pass over the covered set
            factor = budget_tiles / max(weighted * workload.n_rtp, 1)
            if 0.85 <= factor <= 1.18:
                break
            self.n_triangles = max(int(self.n_triangles * factor), 8)
            self.scene = Scene(workload, self.n_triangles, self.rng)

    # -- coverage ------------------------------------------------------------

    def _cover(self) -> dict[int, int]:
        """tile -> update count for the current scene state."""
        x, y, = self.scene.triangle_positions()
        size = self.scene.tri_size
        tiles: dict[int, int] = {}
        tx_max, ty_max = self.rt.tiles_x - 1, self.rt.tiles_y - 1
        x0 = np.clip((x - size / 2) // TILE_PX, 0, tx_max).astype(int)
        x1 = np.clip((x + size / 2) // TILE_PX, 0, tx_max).astype(int)
        y0 = np.clip((y - size / 2) // TILE_PX, 0, ty_max).astype(int)
        y1 = np.clip((y + size / 2) // TILE_PX, 0, ty_max).astype(int)
        for i in range(len(x)):
            for ty in range(y0[i], y1[i] + 1):
                row = ty * self.rt.tiles_x
                for tx in range(x0[i], x1[i] + 1):
                    t = row + tx
                    tiles[t] = tiles.get(t, 0) + 1
        return tiles

    def _geom_tile_work(self, tile: int, updates: int) -> TileWork:
        """Tile work from raster coverage: ``updates`` overlapping
        triangles, hierarchical-Z rejecting a share of the fragments."""
        w = self.workload
        rng = self.rng
        survive = max(1.0 - self.ZHIER_REJECT, 0.1)
        mult = min(max(int(round(updates * survive)), 1), 4)
        n_tex = w.tex_per_tile * mult
        n_depth = w.depth_per_tile * mult
        n_color = w.color_per_tile * mult
        n_vert = w.vertex_per_tile

        color_lines = self.rt.color_lines(tile)
        depth_lines = self.rt.depth_lines(tile)
        depth_addrs = depth_lines[rng.integers(0, len(depth_lines),
                                               n_depth)]
        color_addrs = color_lines[rng.integers(0, len(color_lines),
                                               n_color)]
        # texture neighbourhood keyed by tile id (stable across frames)
        tex_key = tile % len(self._tile_tex_base)
        tex_addrs = self._texture_addrs(tex_key, n_tex)
        vert_addrs = self._vertex_addrs(n_vert)
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
                        updates=updates)

    # -- frame generation -----------------------------------------------------

    def next_frame(self, index: int) -> FrameDescription:
        w = self.workload
        self.scene.advance()
        coverage = self._cover()
        covered = sorted(coverage)
        if not covered:
            return super().next_frame(index)
        # each RTP is a pass over the covered tile set, decimated so the
        # frame's access budget matches the design point even when a
        # handful of triangles already cover more tiles than the budget
        # affords (small scaling presets)
        survive = 1.0 - self.ZHIER_REJECT
        weighted = sum(min(max(round(u * survive), 1), 4)
                       for u in coverage.values())
        budget = self._budget_tiles
        stride = max(int(weighted * w.n_rtp / max(budget, 1)), 1)
        rtps = []
        for r in range(w.n_rtp):
            sel = covered[r % stride::stride] or covered[:1]
            tiles = [self._geom_tile_work(t, coverage[t]) for t in sel]
            rtps.append(RtpWork(r, tiles))
        return FrameDescription(index, rtps)
