"""Property tests on FRPU estimate behaviour."""

from hypothesis import given, settings, strategies as st

from repro.predict.rtp import Phase, RtpExtrapolator as FrameRatePredictor
from repro.gpu.pipeline import FrameRecord, RtpRecord


def make_frame(index, cycles_per_rtp, n_rtp=4, updates=50, rtts=50,
               llc=1000):
    rtps = [RtpRecord(updates, cycles_per_rtp, rtts, llc, 0)
            for _ in range(n_rtp)]
    return FrameRecord(index, cycles_per_rtp * n_rtp, llc * n_rtp,
                       rtps, 0, 0)


class P:
    """Pipeline stub with adjustable progress/records."""

    def __init__(self, lam, records, idx=5):
        self.frame_progress = lam
        self._records = records
        self._frame_idx = idx

    def current_rtp_records(self):
        return self._records

    def current_frame_elapsed_cycles(self):
        return 0.0

    def current_frame_throttle_cycles(self):
        return 0.0


@settings(max_examples=60)
@given(st.floats(0.05, 1.0), st.integers(100, 100_000),
       st.integers(100, 100_000))
def test_property_prediction_bounded_by_blend_extremes(lam, c_avg,
                                                       c_inter):
    """Eq. 3 is a convex blend: the prediction always lies between the
    all-learned and all-observed extrapolations."""
    f = FrameRatePredictor()
    f.on_frame_complete(make_frame(f.skip_frames, c_avg))
    assert f.phase is Phase.PREDICTION
    records = [RtpRecord(50, c_inter, 50, 1000, 0)] * 2
    pred = f.predict_frame_cycles(P(lam, records))
    lo = 4 * min(c_avg, c_inter)
    hi = 4 * max(c_avg, c_inter)
    assert lo - 1e-6 <= pred <= hi + 1e-6


@settings(max_examples=40)
@given(st.integers(100, 10_000), st.floats(0.0, 3.0))
def test_property_steady_workload_never_discards(c_avg, cycle_scale):
    """Cycle changes alone (contention) must never trigger re-learning;
    only work-metric drift may."""
    f = FrameRatePredictor()
    f.on_frame_complete(make_frame(f.skip_frames, c_avg))
    stretched = make_frame(f.skip_frames + 1,
                           max(int(c_avg * (0.25 + cycle_scale)), 1))
    f.on_frame_complete(stretched)
    assert f.phase is Phase.PREDICTION


@settings(max_examples=40)
@given(st.floats(2.0, 10.0))
def test_property_large_work_drift_discards(factor):
    f = FrameRatePredictor(verify_threshold=0.25)
    f.on_frame_complete(make_frame(f.skip_frames, 1000))
    heavy = make_frame(f.skip_frames + 1, 1000,
                       updates=int(50 * factor),
                       rtts=int(50 * factor), llc=int(1000 * factor))
    f.on_frame_complete(heavy)
    assert f.phase is Phase.LEARNING
