"""Unit tests for the frame-rate predictor (learning/prediction phases,
Eqs. 1-3, cross-verification)."""

import pytest

from repro.predict.rtp import Phase, RtpExtrapolator as FrameRatePredictor
from repro.gpu.pipeline import FrameRecord, RtpRecord


def frame(index, n_rtp=4, cycles_per_rtp=1000, updates=50, rtts=50,
          llc=2000, throttle=0):
    rtps = [RtpRecord(updates, cycles_per_rtp, rtts, llc, throttle)
            for _ in range(n_rtp)]
    return FrameRecord(index, cycles_per_rtp * n_rtp, llc * n_rtp, rtps,
                       throttle * n_rtp, end_time=0)


class StubPipeline:
    """Minimal stand-in exposing the FRPU observation surface."""

    def __init__(self, progress=0.5, records=None, elapsed=0.0,
                 throttle=0.0, frame_idx=10):
        self.frame_progress = progress
        self._records = records or []
        self._elapsed = elapsed
        self._throttle = throttle
        self._frame_idx = frame_idx

    def current_rtp_records(self):
        return self._records

    def current_frame_elapsed_cycles(self):
        return self._elapsed

    def current_frame_throttle_cycles(self):
        return self._throttle


def learn(frpu, **kw):
    frpu.on_frame_complete(frame(frpu.skip_frames, **kw))


def test_starts_learning_then_predicts():
    f = FrameRatePredictor()
    assert f.phase is Phase.LEARNING
    learn(f)
    assert f.phase is Phase.PREDICTION
    assert f.learned.n_rtp == 4
    assert f.learned.c_avg == 1000
    assert f.learned.llc_accesses == 8000


def test_cold_frames_skipped():
    f = FrameRatePredictor(skip_frames=2)
    f.on_frame_complete(frame(0, cycles_per_rtp=99_999))
    f.on_frame_complete(frame(1, cycles_per_rtp=99_999))
    assert f.phase is Phase.LEARNING   # both ignored
    f.on_frame_complete(frame(2))
    assert f.phase is Phase.PREDICTION
    assert f.learned.c_avg == 1000


def test_eq3_blends_inter_and_avg():
    f = FrameRatePredictor()
    learn(f)                            # c_avg=1000, n_rtp=4
    # current frame: 2 RTPs done at 2000 cycles each, lambda=0.5
    recs = [RtpRecord(50, 2000, 50, 2000, 0)] * 2
    pred = f.predict_frame_cycles(StubPipeline(0.5, recs))
    # c_rtp = 0.5*2000 + 0.5*1000 = 1500 -> F = 6000
    assert pred == pytest.approx(6000)


def test_prediction_without_completed_rtps_uses_elapsed():
    f = FrameRatePredictor()
    learn(f)
    p = StubPipeline(progress=0.25, records=[], elapsed=1500.0)
    pred = f.predict_frame_cycles(p)
    # c_inter = 1500/(0.25*4)=1500; c_rtp = 0.25*1500+0.75*1000 = 1125
    assert pred == pytest.approx(1125 * 4)


def test_no_prediction_while_learning():
    f = FrameRatePredictor()
    assert f.predict_frame_cycles(StubPipeline()) is None


def test_throttle_correction_subtracts_injected_stall():
    f = FrameRatePredictor(correct_throttle=True)
    learn(f)
    recs = [RtpRecord(50, 1500, 50, 2000, throttle_ticks=500)] * 2
    pred = f.predict_frame_cycles(StubPipeline(0.5, recs))
    # natural c_inter = (3000-1000)/2 = 1000 -> F = 4000
    assert pred == pytest.approx(4000)


def test_raw_mode_keeps_throttle_in_estimate():
    f = FrameRatePredictor(correct_throttle=False)
    learn(f)
    recs = [RtpRecord(50, 1500, 50, 2000, throttle_ticks=500)] * 2
    pred = f.predict_frame_cycles(StubPipeline(0.5, recs))
    assert pred == pytest.approx((0.5 * 1500 + 0.5 * 1000) * 4)


def test_verification_discards_on_workload_change():
    f = FrameRatePredictor(verify_threshold=0.25)
    learn(f)
    # a frame with 3x the work per RTP: learning must be discarded
    f.on_frame_complete(frame(2, updates=150, rtts=150, llc=6000))
    assert f.phase is Phase.LEARNING
    assert f.learned is None
    # and it re-learns from the next frame (point C of Fig. 4)
    f.on_frame_complete(frame(3))
    assert f.phase is Phase.PREDICTION


def test_verification_tolerates_cycle_changes():
    """Contention moves cycles, not work — learning must survive."""
    f = FrameRatePredictor()
    learn(f)
    f.on_frame_complete(frame(2, cycles_per_rtp=1800))
    assert f.phase is Phase.PREDICTION


def test_ewma_refresh_tracks_drift():
    f = FrameRatePredictor(ewma_alpha=0.5)
    learn(f)
    f.on_frame_complete(frame(2, cycles_per_rtp=2000))
    assert 1000 < f.learned.c_avg < 2000


def test_error_log_records_mid_frame_predictions():
    f = FrameRatePredictor()
    learn(f)
    recs = [RtpRecord(50, 1000, 50, 2000, 0)] * 2
    f.predict_frame_cycles(StubPipeline(0.5, recs, frame_idx=2))
    f.on_frame_complete(frame(2))
    errs = f.percent_errors()
    assert len(errs) == 1
    assert errs[0] == pytest.approx(0.0, abs=1e-6)
    assert f.mean_abs_percent_error() == pytest.approx(0.0, abs=1e-6)


def test_refresh_survives_frame_with_no_rtps():
    """Regression: an empty frame must not divide by zero in _refresh."""
    f = FrameRatePredictor()
    learn(f)
    f._refresh(frame(2, n_rtp=0))        # no ZeroDivisionError
    assert f.learned.c_avg >= 0


def test_mid_frame_predictions_are_bounded():
    """Regression: abandoned mid-frame predictions must not accumulate."""
    f = FrameRatePredictor()
    learn(f)
    recs = [RtpRecord(50, 1000, 50, 2000, 0)] * 2
    for idx in range(2, 100):
        f.predict_frame_cycles(StubPipeline(0.5, recs, frame_idx=idx))
    assert len(f._mid_frame_prediction) <= f.MID_FRAME_BOUND


def test_mid_frame_predictions_cleared_on_learning_reset():
    f = FrameRatePredictor()
    learn(f)
    recs = [RtpRecord(50, 1000, 50, 2000, 0)] * 2
    f.predict_frame_cycles(StubPipeline(0.5, recs, frame_idx=2))
    assert f._mid_frame_prediction
    f.on_frame_complete(frame(2, updates=500))   # verify fails: reset
    assert f.phase is Phase.LEARNING
    assert not f._mid_frame_prediction


def test_stale_mid_frame_predictions_pruned_on_completion():
    """A prediction for a frame that never completed is dropped when a
    later frame does, and contributes nothing to the error log."""
    f = FrameRatePredictor()
    learn(f)
    recs = [RtpRecord(50, 1000, 50, 2000, 0)] * 2
    f.predict_frame_cycles(StubPipeline(0.5, recs, frame_idx=2))
    f.predict_frame_cycles(StubPipeline(0.5, recs, frame_idx=3))
    f.on_frame_complete(frame(3))
    assert not f._mid_frame_prediction   # 3 consumed, stale 2 pruned
    assert [i for i, _p, _a in f.error_log] == [3]


def test_phase_transitions_recorded():
    f = FrameRatePredictor()
    learn(f)
    f.on_frame_complete(frame(2, updates=500))   # discard
    f.on_frame_complete(frame(3))                # relearn
    phases = [p for _, p in f.phase_transitions]
    assert phases == [Phase.PREDICTION, Phase.LEARNING, Phase.PREDICTION]
