"""History-driven predictors: the multi-horizon blender and the naive
last-frame baseline.

``EwmaBlendPredictor`` keeps one exponentially-weighted moving average
of the natural frame time per *horizon* (a fast tracker, a mid tracker
and a slow tracker) and combines them with multiplicative-weights
("hedge") mixing: after every completed frame each horizon's standing
estimate is scored against the observed time and its mixture weight is
scaled by ``exp(-eta * |error| / actual)``.  Stable workloads
concentrate weight on the slow, noise-free average; phase changes move
it onto the fast tracker within a frame or two — the representation-
drift behaviour motivated by Raghavan et al. ("GPU Activity Prediction
using Representation Learning", PAPERS.md) without the offline
training a representation model needs.  Mid-frame, the blended history
estimate ``H`` is combined with the in-frame extrapolation
``E = elapsed / lambda`` exactly as Eq. 3 combines ``C_inter`` with
``C_avg``:

    F = lambda * E + (1 - lambda) * H

``LastFramePredictor`` predicts that the current frame will take as
long as the previous one.  It is deliberately the simplest model that
is ever right — the head-to-head floor every learned predictor must
beat (`python -m repro compare-predictors`).

Both are deterministic and state their full hardware cost via
``storage_bits``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.gpu.pipeline import FrameRecord
from repro.predict.base import Predictor
from repro.predict.features import MIN_LAMBDA


class EwmaBlendPredictor(Predictor):
    name = "ewma-blend"

    def __init__(self, alphas: tuple[float, ...] = (0.5, 0.2, 0.05),
                 eta: float = 2.0, min_history: int = 2,
                 llc_alpha: float = 0.3, correct_throttle: bool = True,
                 skip_frames: int = 1, telemetry=None):
        from repro.config import ConfigError
        if not alphas or any(not 0.0 < a <= 1.0 for a in alphas):
            raise ConfigError("ewma-blend.alphas must all be in (0, 1], "
                              f"got {alphas!r}")
        if eta <= 0:
            raise ConfigError(f"ewma-blend.eta must be > 0, got {eta!r}")
        if min_history < 1:
            raise ConfigError("ewma-blend.min_history must be >= 1, "
                              f"got {min_history!r}")
        super().__init__(correct_throttle=correct_throttle,
                         skip_frames=skip_frames, telemetry=telemetry)
        self.alphas = tuple(alphas)
        self.eta = eta
        self.min_history = min_history
        self.llc_alpha = llc_alpha
        self._means: list[Optional[float]] = [None] * len(self.alphas)
        self._weights = [1.0 / len(self.alphas)] * len(self.alphas)
        self._llc_ewma = 0.0
        self._frames_observed = 0

    # -- the Predictor contract ----------------------------------------------

    @property
    def ready(self) -> bool:
        return self._frames_observed >= self.min_history

    def frame_llc_accesses(self) -> int:
        return int(self._llc_ewma)

    def storage_bits(self) -> int:
        h = len(self.alphas)
        # per-horizon mean + weight, the llc EWMA, working registers
        return (2 * h + 1) * 32 + 12 * 32

    def history_estimate(self) -> Optional[float]:
        """The hedge-weighted blend of the horizon averages."""
        if self._means[0] is None:
            return None
        return sum(w * m for w, m in zip(self._weights, self._means))

    def predict_frame_cycles(self, pipeline) -> Optional[float]:
        if not self.ready:
            return None
        hist = self.history_estimate()
        if hist is None:
            return None
        lam = min(max(pipeline.frame_progress, 0.0), 1.0)
        elapsed = pipeline.current_frame_elapsed_cycles()
        if self.correct_throttle:
            elapsed -= pipeline.current_frame_throttle_cycles()
        if lam > MIN_LAMBDA and elapsed > 0:
            f = lam * (elapsed / lam) + (1.0 - lam) * hist
        else:
            f = hist                   # too early in the frame: history only
        f = max(f, elapsed, 1.0)
        if 0.25 <= lam <= 0.75:
            self._note_mid_frame(pipeline._frame_idx, f)
        return f

    # -- training ------------------------------------------------------------

    def _observe(self, rec: FrameRecord) -> None:
        if not rec.rtps:
            return                     # empty frame: nothing to learn
        y = self.natural_cycles(rec)
        if y <= 0:
            return
        if self._means[0] is not None:
            # hedge: score each horizon's standing estimate, then mix
            scaled = [w * math.exp(-self.eta * abs(m - y) / y)
                      for w, m in zip(self._weights, self._means)]
            total = sum(scaled)
            if total > 0:
                self._weights = [s / total for s in scaled]
        self._means = [y if m is None else (1.0 - a) * m + a * y
                       for a, m in zip(self.alphas, self._means)]
        llc = float(sum(r.llc_accesses for r in rec.rtps))
        self._llc_ewma = (llc if self._frames_observed == 0 else
                          (1.0 - self.llc_alpha) * self._llc_ewma +
                          self.llc_alpha * llc)
        self._frames_observed += 1
        self.frames_learned += 1


class LastFramePredictor(Predictor):
    name = "last-frame"

    def __init__(self, correct_throttle: bool = True,
                 skip_frames: int = 1, telemetry=None):
        super().__init__(correct_throttle=correct_throttle,
                         skip_frames=skip_frames, telemetry=telemetry)
        self._last: Optional[float] = None
        self._last_llc = 0

    @property
    def ready(self) -> bool:
        return self._last is not None

    def frame_llc_accesses(self) -> int:
        return self._last_llc

    def storage_bits(self) -> int:
        return 2 * 32 + 12 * 32        # last time + last A + registers

    def predict_frame_cycles(self, pipeline) -> Optional[float]:
        if self._last is None:
            return None
        lam = min(max(pipeline.frame_progress, 0.0), 1.0)
        elapsed = pipeline.current_frame_elapsed_cycles()
        if self.correct_throttle:
            elapsed -= pipeline.current_frame_throttle_cycles()
        f = max(self._last, elapsed, 1.0)
        if 0.25 <= lam <= 0.75:
            self._note_mid_frame(pipeline._frame_idx, f)
        return f

    def _observe(self, rec: FrameRecord) -> None:
        if not rec.rtps:
            return
        y = self.natural_cycles(rec)
        if y <= 0:
            return
        self._last = y
        self._last_llc = sum(r.llc_accesses for r in rec.rtps)
        self.frames_learned += 1
