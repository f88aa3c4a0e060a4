"""Unit tests for the predictor seam: registry/config sync, the
interface contract, first-frame/mid-frame edge cases, determinism, and
the prediction-error telemetry records (docs/predictors.md)."""

import json

import pytest

from repro.config import PREDICTORS, ConfigError, QosConfig
from repro.gpu.pipeline import FrameRecord, RtpRecord
from repro.predict import (EwmaBlendPredictor, LastFramePredictor,
                           PREDICTOR_NAMES, Predictor, RlsPredictor,
                           RtpExtrapolator, make_predictor)
from repro.predict.features import (FEATURE_NAMES, N_FEATURES,
                                    frame_features, partial_features)
from repro.telemetry import Telemetry


def frame(index, n_rtp=4, cycles_per_rtp=1000, updates=50, rtts=50,
          llc=2000, throttle=0):
    rtps = [RtpRecord(updates, cycles_per_rtp, rtts, llc, throttle)
            for _ in range(n_rtp)]
    return FrameRecord(index, cycles_per_rtp * n_rtp, llc * n_rtp, rtps,
                       throttle * n_rtp, end_time=index * 10_000)


class StubPipeline:
    """Minimal stand-in exposing the predictor observation surface."""

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


# -- registry <-> config sync -------------------------------------------------

def test_registry_matches_config_literal():
    """config.PREDICTORS is a literal copy of the registry (kept so the
    config tree stays import-light); they must never drift."""
    assert tuple(PREDICTOR_NAMES) == tuple(PREDICTORS)


def test_make_predictor_builds_every_registered_name():
    for name in PREDICTOR_NAMES:
        p = make_predictor(name)
        assert isinstance(p, Predictor)
        assert p.name == name
        assert p.storage_bits() > 0


def test_make_predictor_unknown_name():
    with pytest.raises(KeyError, match="unknown predictor"):
        make_predictor("oracle")


def test_make_predictor_routes_rtp_knobs_only_to_reference():
    p = make_predictor("rtp", rtp_entries=8, verify_threshold=0.5)
    assert p.table.capacity == 8
    assert p.verify_threshold == 0.5
    # the same knobs must not leak into learned predictors
    q = make_predictor("rls", rtp_entries=8, verify_threshold=0.5)
    assert isinstance(q, RlsPredictor)
    assert not hasattr(q, "verify_threshold")


def test_make_predictor_passes_impl_kwargs():
    p = make_predictor("rls", forgetting=0.9)
    assert p.forgetting == 0.9


def test_qos_config_rejects_unknown_predictor():
    with pytest.raises(ConfigError, match="qos.predictor"):
        QosConfig(predictor="oracle")


def test_mix_spec_predictor_changes_cache_key():
    from repro.exec.specs import mix_spec
    base = mix_spec("M7", "throtcpuprio", "smoke", 1)
    rtp = mix_spec("M7", "throtcpuprio", "smoke", 1, predictor="rtp")
    rls = mix_spec("M7", "throtcpuprio", "smoke", 1, predictor="rls")
    # the default predictor IS rtp: explicit selection resolves to the
    # same machine, hence the same content hash (cache sharing)
    assert base.key("s") == rtp.key("s")
    assert rls.key("s") != base.key("s")


# -- the interface contract ---------------------------------------------------

@pytest.mark.parametrize("name", PREDICTOR_NAMES)
def test_not_ready_predicts_none(name):
    p = make_predictor(name)
    assert not p.ready
    assert p.predict_frame_cycles(StubPipeline()) is None
    assert p.frame_llc_accesses() == 0
    assert p.predicted_fps(StubPipeline(), 60.0, 8000) is None


@pytest.mark.parametrize("name", PREDICTOR_NAMES)
def test_cold_frames_skipped(name):
    p = make_predictor(name, skip_frames=2)
    p.on_frame_complete(frame(0))
    p.on_frame_complete(frame(1))
    assert not p.ready                  # both below skip_frames: ignored
    assert p.frames_learned == 0


@pytest.mark.parametrize("name", PREDICTOR_NAMES)
def test_becomes_ready_and_predicts_positive(name):
    p = make_predictor(name)
    for i in range(1, 5):
        p.on_frame_complete(frame(i))
    assert p.ready
    pred = p.predict_frame_cycles(StubPipeline(
        0.5, [RtpRecord(50, 1000, 50, 2000, 0)] * 2, elapsed=2000.0,
        frame_idx=5))
    assert pred is not None and pred > 0
    assert p.frame_llc_accesses() > 0


@pytest.mark.parametrize("name", PREDICTOR_NAMES)
def test_skip_frames_validation(name):
    with pytest.raises(ConfigError, match="skip_frames"):
        make_predictor(name, skip_frames=-1)


@pytest.mark.parametrize("name", PREDICTOR_NAMES)
def test_error_log_scores_mid_frame_predictions(name):
    p = make_predictor(name)
    for i in range(1, 5):
        p.on_frame_complete(frame(i))
    p.predict_frame_cycles(StubPipeline(
        0.5, [RtpRecord(50, 1000, 50, 2000, 0)] * 2, elapsed=2000.0,
        frame_idx=5))
    p.on_frame_complete(frame(5))
    assert [i for i, _p, _a in p.error_log] == [5]
    (idx, pred, actual) = p.error_log[0]
    assert actual == pytest.approx(4000.0)
    assert p.percent_errors() == \
        [pytest.approx(100.0 * (pred - actual) / actual)]


# -- first-frame / mid-frame edge cases (the extraction's bug fixes) ----------

def learned_rtp():
    p = RtpExtrapolator()
    p.on_frame_complete(frame(1))       # learn: c_avg=1000, n_rtp=4
    assert p.ready
    return p


def test_rtp_zero_elapsed_before_first_rtp_falls_back_to_history():
    """Regression: a mid-frame prediction taken before any RTP (or any
    cycle) of the frame has run used to extrapolate C_inter = 0 and
    halve the projection; it must fall back to the learned average."""
    p = learned_rtp()
    pred = p.predict_frame_cycles(
        StubPipeline(progress=0.5, records=[], elapsed=0.0))
    assert pred == pytest.approx(1000 * 4)


def test_rtp_throttled_negative_elapsed_does_not_underpredict():
    """Regression: with throttle correction on, a frame whose accounted
    stall exceeds its elapsed cycles observed a *negative* C_inter and
    projected an absurdly fast frame — which opens the throttle at full
    width.  The natural-elapsed floor keeps the projection sane."""
    p = learned_rtp()
    pred = p.predict_frame_cycles(StubPipeline(
        progress=0.5, records=[], elapsed=100.0, throttle=500.0))
    assert pred == pytest.approx(1000 * 4)


def test_rtp_sane_elapsed_unaffected_by_the_floor():
    """The edge-case floor must be inert on the normal path (this is
    what keeps the golden byte streams bit-identical)."""
    p = learned_rtp()
    pred = p.predict_frame_cycles(
        StubPipeline(progress=0.25, records=[], elapsed=1500.0))
    # c_inter = 1500/(0.25*4) = 1500; (0.25*1500 + 0.75*1000) * 4
    assert pred == pytest.approx(1125 * 4)


def test_rls_predicts_before_any_rtp_completes_via_history():
    p = RlsPredictor(min_history=2)
    for i in range(1, 4):
        p.on_frame_complete(frame(i))
    assert p.ready
    # brand-new frame: no records, nothing elapsed — history carries it
    pred = p.predict_frame_cycles(
        StubPipeline(progress=0.0, records=[], elapsed=0.0))
    assert pred is not None and pred > 0


def test_rls_no_history_no_records_predicts_none():
    p = RlsPredictor(min_history=1)
    p._frames_observed = 1              # ready, but never saw features
    assert p.predict_frame_cycles(
        StubPipeline(progress=0.0, records=[], elapsed=0.0)) is None


def test_prediction_floored_at_natural_elapsed():
    """A frame cannot finish in the past: every learned predictor's
    projection is floored at the frame's natural elapsed cycles."""
    for name in ("rls", "ewma-blend", "last-frame"):
        p = make_predictor(name)
        for i in range(1, 4):
            p.on_frame_complete(frame(i))
        pred = p.predict_frame_cycles(StubPipeline(
            progress=0.8, records=[], elapsed=50_000.0))
        assert pred >= 50_000.0, name


def test_mid_frame_predictions_bounded():
    for name in PREDICTOR_NAMES:
        p = make_predictor(name)
        for i in range(1, 4):
            p.on_frame_complete(frame(i))
        recs = [RtpRecord(50, 1000, 50, 2000, 0)] * 2
        for idx in range(4, 60):
            p.predict_frame_cycles(
                StubPipeline(0.5, recs, elapsed=2000.0, frame_idx=idx))
        assert len(p._mid_frame_prediction) <= p.MID_FRAME_BOUND, name


# -- learned-model behaviour --------------------------------------------------

def test_rls_learns_a_linear_workload_exactly():
    """y = 1000 * n_rtp is inside the model class; RLS must drive the
    prediction error to ~0 once the covariance settles."""
    p = RlsPredictor(min_history=2, forgetting=1.0)
    for i in range(1, 30):
        n = 3 + (i % 3)                 # vary n_rtp so features span
        p.on_frame_complete(frame(i, n_rtp=n))
    recs = [RtpRecord(50, 1000, 50, 2000, 0)] * 2
    pred = p.predict_frame_cycles(
        StubPipeline(progress=0.5, records=recs, elapsed=2000.0))
    assert pred == pytest.approx(4000, rel=0.05)


def test_ewma_blend_shifts_weight_to_fast_horizon_on_phase_change():
    p = EwmaBlendPredictor(alphas=(0.5, 0.05))
    for i in range(1, 10):
        p.on_frame_complete(frame(i, cycles_per_rtp=1000))
    w_before = list(p._weights)
    for i in range(10, 14):
        p.on_frame_complete(frame(i, cycles_per_rtp=3000))
    # after the jump the fast tracker is closer to the data: hedge
    # moves mixture weight onto it
    assert p._weights[0] > w_before[0]
    assert p.history_estimate() > 4000.0


def test_last_frame_predicts_previous_natural_frame():
    p = LastFramePredictor()
    p.on_frame_complete(frame(1, cycles_per_rtp=1000, throttle=100))
    pred = p.predict_frame_cycles(StubPipeline(progress=0.5))
    assert pred == pytest.approx(4 * 1000 - 4 * 100)


def test_empty_frames_do_not_poison_learned_predictors():
    for name in ("rls", "ewma-blend", "last-frame"):
        p = make_predictor(name)
        for i in range(1, 4):
            p.on_frame_complete(frame(i))
        before = p.frames_learned
        p.on_frame_complete(frame(4, n_rtp=0))   # empty frame
        assert p.frames_learned == before, name
        assert p.ready, name


@pytest.mark.parametrize("name", PREDICTOR_NAMES)
def test_deterministic_under_fixed_seed(name):
    """Two predictors fed the identical (seeded) frame stream must make
    bit-identical predictions and keep bit-identical state."""
    import random

    def drive(seed):
        rng = random.Random(seed)
        p = make_predictor(name)
        preds = []
        for i in range(1, 25):
            cyc = 900 + rng.randrange(200)
            recs = [RtpRecord(50, cyc, 50, 2000, 0)] * 2
            preds.append(p.predict_frame_cycles(StubPipeline(
                0.5, recs, elapsed=2.0 * cyc, frame_idx=i)))
            p.on_frame_complete(frame(i, cycles_per_rtp=cyc))
        return preds, p.error_log

    a_preds, a_log = drive(7)
    b_preds, b_log = drive(7)
    assert a_preds == b_preds           # exact float equality
    assert a_log == b_log


# -- feature schema -----------------------------------------------------------

def test_frame_features_schema():
    x = frame_features(frame(3, n_rtp=4))
    assert len(x) == N_FEATURES == len(FEATURE_NAMES)
    assert x == [1.0, 4.0, 200.0, 200.0, 8000.0]


def test_partial_features_blend_and_fallbacks():
    recs = [RtpRecord(50, 1000, 50, 2000, 0)] * 2
    hist = [1.0, 4.0, 200.0, 200.0, 8000.0]
    # lam=0.5: partial scales by 2, then blends half-half with history
    x = partial_features(StubPipeline(0.5, recs), 0.5, hist)
    assert x == pytest.approx([1.0, 4.0, 200.0, 200.0, 8000.0])
    # nothing rendered yet: history only
    assert partial_features(StubPipeline(0.0), 0.0, hist) == hist
    # no history either: nothing to predict from
    assert partial_features(StubPipeline(0.0), 0.0, None) is None


# -- telemetry: prediction-error records --------------------------------------

def drive_with_telemetry(name, tel):
    p = make_predictor(name, telemetry=tel)
    for i in range(1, 5):
        p.on_frame_complete(frame(i))
    p.predict_frame_cycles(StubPipeline(
        0.5, [RtpRecord(50, 1000, 50, 2000, 0)] * 2, elapsed=2000.0,
        frame_idx=5))
    p.on_frame_complete(frame(5))
    return p


def test_learned_predictors_emit_predictor_error_records():
    tel = Telemetry(sample_interval_ticks=0)
    p = drive_with_telemetry("rls", tel)
    recs = [r for r in tel.records if r["type"] == "predictor_error"]
    assert len(recs) == len(p.error_log) == 1
    r = recs[0]
    assert r["predictor"] == "rls"
    assert r["frame"] == 5
    assert r["actual_cycles"] == pytest.approx(4000.0)
    assert r["error_pct"] == pytest.approx(
        100.0 * (r["predicted_cycles"] - 4000.0) / 4000.0)


def test_reference_keeps_the_preseam_frpu_error_stream():
    tel = Telemetry(sample_interval_ticks=0)
    drive_with_telemetry("rtp", tel)
    assert tel.count("predictor_error") == 0
    assert tel.count("frpu_error") == 1
    r = [x for x in tel.records if x["type"] == "frpu_error"][0]
    assert "predictor" not in r         # byte-stream compatibility


def test_predictor_error_round_trips_through_jsonl(tmp_path):
    path = str(tmp_path / "tel.jsonl")
    tel = Telemetry.to_file(path)
    drive_with_telemetry("ewma-blend", tel)
    tel.close()
    with open(path) as fh:
        recs = [json.loads(line) for line in fh]
    errs = [r for r in recs if r["type"] == "predictor_error"]
    assert len(errs) == 1
    from repro.telemetry.events import validate
    fields = {k: v for k, v in errs[0].items() if k != "type"}
    validate("predictor_error", fields)   # schema round-trip
    assert errs[0]["predictor"] == "ewma-blend"
