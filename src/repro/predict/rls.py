"""Online recursive-least-squares frame-time predictor.

Following the online-learning methodology of Gupta et al. ("An Online
Learning Methodology for Performance Modeling of Graphics Processors",
see PAPERS.md), the model maintains a linear map from per-frame work
features (:mod:`repro.predict.features`) to the frame's natural cycle
count, updated after every completed frame by exponentially-weighted
recursive least squares:

    k   = P x / (beta + x' P x)          (gain)
    w  += k (y - x' w)                   (weight update)
    P   = (P - k x' P) / beta            (inverse-covariance update)

with forgetting factor ``beta`` slightly below 1 so the model tracks
phase drift — the regime where a fixed extrapolation (the RTP
reference) misfires — while still averaging out contention noise.

Mid-frame, the current frame's feature vector is estimated by scaling
the completed-RTP partial observations to full-frame magnitude and
blending with the trailing feature average
(:func:`repro.predict.features.partial_features`); the projection
``w . x_hat`` is floored at the frame's natural elapsed time (a frame
cannot finish in the past).

Everything is deterministic: weights start at zero, ``P`` at
``p0 * I``, and no randomness enters the update, so two runs fed the
same frames are bit-identical (``tests/predict/test_predictors.py``).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.gpu.pipeline import FrameRecord
from repro.predict.base import Predictor
from repro.predict.features import (MIN_LAMBDA, N_FEATURES, ewma_update,
                                    frame_features, partial_features)


class RlsPredictor(Predictor):
    name = "rls"

    def __init__(self, forgetting: float = 0.98, p0: float = 1e6,
                 min_history: int = 2, feature_alpha: float = 0.3,
                 correct_throttle: bool = True, skip_frames: int = 1,
                 telemetry=None):
        from repro.config import ConfigError
        if not 0.0 < forgetting <= 1.0:
            raise ConfigError("rls.forgetting must be in (0, 1], "
                              f"got {forgetting!r}")
        if p0 <= 0:
            raise ConfigError(f"rls.p0 must be > 0, got {p0!r}")
        if min_history < 1:
            raise ConfigError(
                f"rls.min_history must be >= 1, got {min_history!r}")
        super().__init__(correct_throttle=correct_throttle,
                         skip_frames=skip_frames, telemetry=telemetry)
        self.forgetting = forgetting
        self.min_history = min_history
        self.feature_alpha = feature_alpha
        n = N_FEATURES
        self._w = [0.0] * n
        self._p = [[p0 if i == j else 0.0 for j in range(n)]
                   for i in range(n)]
        #: trailing EWMA of completed-frame feature vectors (the
        #: history side of the mid-frame feature blend)
        self._x_ewma: Optional[list[float]] = None
        self._frames_observed = 0

    # -- the Predictor contract ----------------------------------------------

    @property
    def ready(self) -> bool:
        return self._frames_observed >= self.min_history

    def frame_llc_accesses(self) -> int:
        if self._x_ewma is None:
            return 0
        return int(self._x_ewma[-1])   # the llc feature (schema order)

    def storage_bits(self) -> int:
        n = N_FEATURES
        # weights + inverse covariance + feature EWMA, 4 bytes each,
        # plus a dozen working registers
        return (n + n * n + n) * 32 + 12 * 32

    def predict_frame_cycles(self, pipeline) -> Optional[float]:
        if not self.ready:
            return None
        lam = min(max(pipeline.frame_progress, 0.0), 1.0)
        x = partial_features(pipeline, lam, self._x_ewma)
        if x is None:
            return None
        f = sum(w * v for w, v in zip(self._w, x))
        if not math.isfinite(f):
            return None
        elapsed = pipeline.current_frame_elapsed_cycles()
        if self.correct_throttle:
            elapsed -= pipeline.current_frame_throttle_cycles()
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
        x = frame_features(rec)
        self._rls_update(x, y)
        self._x_ewma = ewma_update(self._x_ewma, x, self.feature_alpha)
        self._frames_observed += 1
        self.frames_learned += 1

    def _rls_update(self, x: list[float], y: float) -> None:
        n = N_FEATURES
        p, w, beta = self._p, self._w, self.forgetting
        px = [sum(p[i][j] * x[j] for j in range(n)) for i in range(n)]
        denom = beta + sum(x[i] * px[i] for i in range(n))
        if denom <= 1e-12 or not math.isfinite(denom):
            return                     # degenerate direction: skip
        k = [v / denom for v in px]
        err = y - sum(w[i] * x[i] for i in range(n))
        for i in range(n):
            w[i] += k[i] * err
        for i in range(n):
            ki = k[i]
            row = p[i]
            for j in range(n):
                row[j] = (row[j] - ki * px[j]) / beta
