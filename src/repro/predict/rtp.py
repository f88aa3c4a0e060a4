"""The reference predictor: the paper's FRPU extrapolator (Eqs. 1-3).

This is the hand-built frame-rate predictor of Section III-A (exported
under the paper's name as :class:`repro.core.FrameRatePredictor`) behind
the :class:`~repro.predict.base.Predictor` interface.  It alternates
between a *learning* phase — one complete frame is monitored and its
per-RTP statistics recorded in the RTP information table — and a
*prediction* phase, where the current frame's projected cycle count is

    F = (lambda * C_inter + (1 - lambda) * C_avg) * N_rtp        (Eq. 3)

with ``lambda`` the fraction of the frame rendered so far, ``C_inter``
the average cycles/RTP observed in the current frame, and ``C_avg`` /
``N_rtp`` from the learned frame.  Each completed frame in the
prediction phase is cross-verified against the learned data; drifting
more than ``verify_threshold`` discards the learning (back to point B
of Fig. 4).

Verification uses the *work* metrics (RTP count, updates, RTT counts,
LLC accesses) rather than cycles: cycle counts legitimately move with
memory-system contention and with our own throttling, while a change in
the rendered workload shows up in the work metrics.

Throttle correction: while the ATU gates accesses, observed cycles
include the injected stall.  The predictor subtracts the pipeline's
accounted throttle stall from ``C_inter`` to obtain the *natural* frame
time, so the throttle computation ``W_G = (C_T - C_P)/A`` stays stable
instead of oscillating (set ``correct_throttle=False`` to get the raw
paper-literal behaviour; the ablation bench compares both).

Behaviour is golden-tested to be bit-identical (RunResult and telemetry
byte stream) to the pre-seam FRPU — see
``tests/predict/test_predict_golden.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.rtp_table import RtpInfoTable
from repro.gpu.pipeline import FrameRecord, GpuPipeline
from repro.predict.base import Predictor


class Phase(enum.Enum):
    LEARNING = "learning"
    PREDICTION = "prediction"


@dataclass
class LearnedFrame:
    """Aggregates the FRPU derives from the RTP table after learning."""

    n_rtp: int
    c_avg: float                  # average GPU cycles per RTP
    llc_accesses: int             # A: LLC accesses per frame
    updates_per_rtp: float
    rtts_per_rtp: float
    llc_per_rtp: float


@dataclass
class PredictionSample:
    frame_index: int
    lam: float
    predicted_cycles: float


class RtpExtrapolator(Predictor):
    name = "rtp"

    def __init__(self, rtp_entries: int = 64, verify_threshold: float = 0.25,
                 correct_throttle: bool = True, skip_frames: int = 1,
                 ewma_alpha: float = 0.4, telemetry=None):
        from repro.config import ConfigError
        if rtp_entries < 1:
            raise ConfigError(
                f"frpu.rtp_entries must be >= 1, got {rtp_entries!r}")
        if not 0.0 < verify_threshold <= 1.0:
            raise ConfigError("frpu.verify_threshold must be in (0, 1], "
                              f"got {verify_threshold!r}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError("frpu.ewma_alpha must be in (0, 1], "
                              f"got {ewma_alpha!r}")
        super().__init__(correct_throttle=correct_throttle,
                         skip_frames=skip_frames, telemetry=telemetry)
        self.table = RtpInfoTable(rtp_entries)
        self.verify_threshold = verify_threshold
        #: after each verified frame the learned aggregates track the
        #: observed workload with this EWMA weight, so slow drift in
        #: contention does not require a full re-learning round trip
        self.ewma_alpha = ewma_alpha
        self.phase = Phase.LEARNING
        self.learned: Optional[LearnedFrame] = None
        self.phase_transitions: list[tuple[int, Phase]] = []

    # -- the Predictor contract ----------------------------------------------

    @property
    def ready(self) -> bool:
        return self.phase is Phase.PREDICTION

    def frame_llc_accesses(self) -> int:
        return self.learned.llc_accesses if self.learned else 0

    def storage_bits(self) -> int:
        # the RTP information table plus a dozen 4-byte working
        # registers (N_G, W_G, tokens, learned aggregates, phase/state)
        return self.table.storage_bits() + 12 * 32

    # -- prediction (Eqs. 1-3) -----------------------------------------------

    def predict_frame_cycles(self, pipeline: GpuPipeline) -> Optional[float]:
        """Projected cycles for the frame currently being rendered."""
        if self.phase is not Phase.PREDICTION or self.learned is None:
            return None
        lam = pipeline.frame_progress
        c_avg = self.learned.c_avg
        records = pipeline.current_rtp_records()
        if records:
            cycles = sum(r.cycles for r in records)
            if self.correct_throttle:
                cycles -= sum(r.throttle_ticks for r in records)
            c_inter = max(cycles / len(records), 1.0)
        else:
            # no RTP finished yet in this frame: extrapolate from elapsed
            elapsed = pipeline.current_frame_elapsed_cycles()
            if self.correct_throttle:
                elapsed -= pipeline.current_frame_throttle_cycles()
            frac = lam * self.learned.n_rtp
            c_inter = (elapsed / frac) if frac > 0.05 else c_avg
            # first-frame edge: before any RTP completes a throttled or
            # freshly-started frame can observe a non-positive natural
            # elapsed time; a non-positive C_inter would project a
            # nonsense (negative) frame and open the throttle at full
            # width, so floor it like the records branch does.  The
            # floor is inert whenever C_inter is already sane, keeping
            # the golden byte streams bit-identical.
            if c_inter < 1.0:
                c_inter = c_avg if c_avg >= 1.0 else 1.0
        c_rtp = lam * c_inter + (1.0 - lam) * c_avg
        f = c_rtp * self.learned.n_rtp
        # keep the latest mid-frame prediction for error accounting
        if 0.25 <= lam <= 0.75:
            self._note_mid_frame(pipeline._frame_idx, f)
        return f

    # -- frame completion: learn or verify -----------------------------------

    def _observe(self, rec: FrameRecord) -> None:
        if self.phase is Phase.LEARNING:
            self._learn(rec)
            return
        if not self._verify(rec):
            self.table.reset()
            self.learned = None
            self._mid_frame_prediction.clear()
            self.phase = Phase.LEARNING
            self.phase_transitions.append((rec.index, Phase.LEARNING))
            if self.telemetry is not None:
                self.telemetry.emit(
                    "frpu_phase", tick=rec.end_time, frame=rec.index,
                    phase=Phase.LEARNING.value,
                    actual_cycles=rec.cycles)
        else:
            self._refresh(rec)

    def _refresh(self, rec: FrameRecord) -> None:
        """EWMA-track the learned aggregates with a verified frame."""
        a = self.ewma_alpha
        learned = self.learned
        n = max(len(rec.rtps), 1)
        cycles = rec.cycles - (rec.throttle_ticks
                               if self.correct_throttle else 0)
        llc = sum(r.llc_accesses for r in rec.rtps)
        learned.c_avg = (1 - a) * learned.c_avg + a * (cycles / n)
        learned.llc_accesses = int((1 - a) * learned.llc_accesses + a * llc)
        learned.updates_per_rtp = ((1 - a) * learned.updates_per_rtp +
                                   a * sum(r.updates for r in rec.rtps) / n)
        learned.rtts_per_rtp = ((1 - a) * learned.rtts_per_rtp +
                                a * sum(r.n_rtts for r in rec.rtps) / n)
        learned.llc_per_rtp = (1 - a) * learned.llc_per_rtp + a * llc / n

    def _learn(self, rec: FrameRecord) -> None:
        self.table.reset()
        for r in rec.rtps:
            self.table.record(r.updates, r.cycles - (
                r.throttle_ticks if self.correct_throttle else 0),
                r.n_rtts, r.llc_accesses)
        n = self.table.n_rtps
        if n == 0:
            return                     # empty frame: stay learning
        entries = self.table.valid_entries()
        self.learned = LearnedFrame(
            n_rtp=n,
            c_avg=self.table.avg_cycles_per_rtp(),
            llc_accesses=self.table.total_llc_accesses(),
            updates_per_rtp=sum(e.updates for e in entries) / n,
            rtts_per_rtp=sum(e.n_rtts for e in entries) / n,
            llc_per_rtp=sum(e.llc_accesses for e in entries) / n,
        )
        self.frames_learned += 1
        self.phase = Phase.PREDICTION
        self.phase_transitions.append((rec.index, Phase.PREDICTION))
        if self.telemetry is not None:
            self.telemetry.emit(
                "frpu_phase", tick=rec.end_time, frame=rec.index,
                phase=Phase.PREDICTION.value, n_rtp=self.learned.n_rtp,
                c_avg=self.learned.c_avg, actual_cycles=rec.cycles)

    def _verify(self, rec: FrameRecord) -> bool:
        """Cross-verification: does this frame still match the learning?"""
        learned = self.learned
        if learned is None:
            return False
        if not rec.rtps:
            return False
        thr = self.verify_threshold

        def drift(observed: float, expected: float) -> float:
            if expected <= 0:
                return 0.0 if observed <= 0 else 1.0
            return abs(observed - expected) / expected

        n_rtp_obs = len(rec.rtps)
        if drift(n_rtp_obs, learned.n_rtp) > thr:
            return False
        upd = sum(r.updates for r in rec.rtps) / n_rtp_obs
        rtts = sum(r.n_rtts for r in rec.rtps) / n_rtp_obs
        llc = sum(r.llc_accesses for r in rec.rtps) / n_rtp_obs
        return (drift(upd, learned.updates_per_rtp) <= thr and
                drift(rtts, learned.rtts_per_rtp) <= thr and
                drift(llc, learned.llc_per_rtp) <= thr)

    # -- telemetry: the pre-seam byte stream ---------------------------------

    def _emit_error(self, rec: FrameRecord, pred: float,
                    actual: float) -> None:
        # the reference predictor predates the seam: its error records
        # keep the original `frpu_error` type (no predictor field) so
        # default-run telemetry streams stay bit-identical
        if self.telemetry is not None:
            self.telemetry.emit(
                "frpu_error", tick=rec.end_time, frame=rec.index,
                predicted_cycles=pred, actual_cycles=actual,
                error_pct=100.0 * (pred - actual) / actual)
