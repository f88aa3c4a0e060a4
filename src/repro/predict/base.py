"""The ``Predictor`` interface: the seam behind the FRPU.

The paper's QoS controller needs exactly one estimate — the projected
cycle count of the frame currently being rendered — plus the learned
per-frame LLC access count ``A`` that converts a cycle surplus into a
throttle window (Fig. 6).  Everything else about the FRPU (the RTP
information table, the learning/prediction phase machine, Eqs. 1-3) is
an *implementation* of that contract, not the contract itself.

This module extracts the contract so the hand-built extrapolator
(:class:`repro.predict.rtp.RtpExtrapolator`) and the online-learned
models (:mod:`repro.predict.rls`, :mod:`repro.predict.blend`) are
interchangeable behind :class:`repro.core.qos.QoSController`:

* ``predict_frame_cycles(pipeline)`` — projected GPU cycles for the
  in-flight frame, or ``None`` when the predictor has no valid estimate
  (the controller then runs unthrottled, exactly as the paper's
  mechanism "remains disabled" without a verified learning).
* ``on_frame_complete(rec)`` — one observation per finished frame; the
  predictor learns/verifies/updates from the
  :class:`~repro.gpu.pipeline.FrameRecord`.
* ``ready`` — True iff ``predict_frame_cycles`` can produce estimates.
* ``frame_llc_accesses()`` — the learned per-frame ``A`` (0 = unknown).

Shared behaviour lives here so every predictor is measured the same
way: mid-frame predictions taken at ``lambda in [0.25, 0.75]`` are
remembered (bounded, stale entries pruned) and scored against the
frame's *natural* cycle count — observed cycles minus the ATU-injected
throttle stall — when the frame completes.  Errors land in
``error_log`` (the Fig. 8 metric) and, when a telemetry hub is
attached, as ``predictor_error`` records (``frpu_error`` for the
reference extrapolator, whose byte stream predates the seam and is
golden-tested to stay bit-identical).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.gpu.pipeline import FrameRecord


class Predictor(ABC):
    """Observe frame/progress samples -> predict frame completion time.

    Subclasses implement :meth:`_observe` (digest one completed frame),
    :meth:`predict_frame_cycles`, :attr:`ready` and
    :meth:`frame_llc_accesses`.  The base class owns cold-frame
    skipping, prediction-error bookkeeping and telemetry emission.
    """

    #: registry name (overridden per subclass)
    name: str = "?"

    #: outstanding mid-frame predictions kept at most; older entries
    #: belong to frames that will never reach ``on_frame_complete``
    #: (run ended mid-frame, learning reset) and would otherwise leak
    MID_FRAME_BOUND = 4

    def __init__(self, correct_throttle: bool = True,
                 skip_frames: int = 1, seed: int = 0, telemetry=None):
        from repro.config import ConfigError
        if skip_frames < 0:
            raise ConfigError(
                f"predictor.skip_frames must be >= 0, got {skip_frames!r}")
        #: subtract the pipeline's accounted throttle stall so the
        #: predictor sees *natural* frame time (see repro.predict.rtp's
        #: module doc for why this keeps W_G stable)
        self.correct_throttle = correct_throttle
        #: initial frames ignored entirely (cold caches would poison
        #: any learned cycle statistic and bias later predictions)
        self.skip_frames = skip_frames
        #: deterministic-init seed; every shipped predictor is fully
        #: deterministic, the seed only perturbs explicitly-randomised
        #: research variants
        self.seed = seed
        #: optional repro.telemetry.Telemetry: prediction-error samples
        #: are emitted when attached
        self.telemetry = telemetry
        #: per-frame (frame, predicted, actual) for the Fig. 8 metric
        self.error_log: list[tuple[int, float, float]] = []
        self._mid_frame_prediction: dict[int, float] = {}
        self.frames_learned = 0
        self.frames_predicted = 0

    # -- the contract --------------------------------------------------------

    @abstractmethod
    def predict_frame_cycles(self, pipeline) -> Optional[float]:
        """Projected GPU cycles for the frame currently being rendered,
        or ``None`` when no valid estimate exists."""

    @property
    @abstractmethod
    def ready(self) -> bool:
        """True iff the predictor currently holds a valid estimate."""

    @abstractmethod
    def frame_llc_accesses(self) -> int:
        """Learned LLC accesses per frame (the paper's ``A``); a value
        ``<= 0`` means unknown and keeps the throttle disabled."""

    @abstractmethod
    def _observe(self, rec: FrameRecord) -> None:
        """Digest one completed (non-cold) frame."""

    def storage_bits(self) -> int:
        """Hardware budget of the predictor state (Section III-D
        accounting); a dozen 4-byte working registers by default."""
        return 12 * 32

    # -- frame completion ----------------------------------------------------

    def on_frame_complete(self, rec: FrameRecord) -> None:
        if rec.index < self.skip_frames:
            return                     # cold-start frame: ignore
        if self.ready:
            self.frames_predicted += 1
            self._log_error(rec)
        self._observe(rec)

    # -- shared measurement plumbing -----------------------------------------

    def natural_cycles(self, rec: FrameRecord) -> float:
        """Observed frame cycles with the ATU-injected stall removed
        (kept when ``correct_throttle=False``)."""
        return float(rec.cycles - (rec.throttle_ticks
                                   if self.correct_throttle else 0))

    def _note_mid_frame(self, frame_idx: int, predicted: float) -> None:
        mid = self._mid_frame_prediction
        mid[frame_idx] = predicted
        while len(mid) > self.MID_FRAME_BOUND:
            del mid[min(mid)]

    def _log_error(self, rec: FrameRecord) -> None:
        mid = self._mid_frame_prediction
        for idx in [i for i in mid if i < rec.index]:
            del mid[idx]              # stale: that frame never completed
        pred = mid.pop(rec.index, None)
        if pred is None:
            return
        actual = self.natural_cycles(rec)
        if actual > 0:
            self.error_log.append((rec.index, pred, float(actual)))
            self._emit_error(rec, pred, float(actual))

    def _emit_error(self, rec: FrameRecord, pred: float,
                    actual: float) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(
                "predictor_error", tick=rec.end_time, frame=rec.index,
                predictor=self.name, predicted_cycles=pred,
                actual_cycles=actual,
                error_pct=100.0 * (pred - actual) / actual)

    def predicted_fps(self, pipeline, fps_nominal: float,
                      gpu_frame_cycles: int) -> Optional[float]:
        f = self.predict_frame_cycles(pipeline)
        if f is None or f <= 0:
            return None
        return fps_nominal * gpu_frame_cycles / f

    # -- Fig. 8 metric -------------------------------------------------------

    def percent_errors(self) -> list[float]:
        return [100.0 * (p - a) / a for _, p, a in self.error_log]

    def mean_abs_percent_error(self) -> float:
        errs = self.percent_errors()
        return sum(abs(e) for e in errs) / len(errs) if errs else 0.0
