"""Golden bit-identity: the predictor seam must not move a single bit.

ISSUE 8's tentpole refactor extracted the FRPU's Eqs. 1-3 extrapolator
out of ``repro.core.frpu`` into ``repro.predict.rtp.RtpExtrapolator``
behind the :class:`~repro.predict.base.Predictor` interface, and
rewired :class:`~repro.core.qos.QoSController` to speak only that
interface.  These tests prove the refactor is *pure*: a full
``throtcpuprio`` simulation under the new seam produces a bit-identical
:class:`~repro.sim.metrics.RunResult` AND a bit-identical telemetry
byte stream compared to the pre-seam wiring.

The reference is re-created here as a verbatim copy of the pre-refactor
code (the same idiom the batching PR used for its bit-identity proof):

* ``LegacyFrameRatePredictor`` — ``src/repro/core/frpu.py`` at the
  parent commit, copied line-for-line (no ``Predictor`` base class,
  phase checked directly, the old int-typed ``actual`` in
  ``_log_error``, and **without** the first-frame ``C_inter`` floor —
  the floor must be inert on these runs);
* ``LegacyQoSController`` — the old ``_chain_frame_done`` (checks
  ``phase is Phase.LEARNING`` instead of ``not ready``), the old
  ``recompute`` (reads ``frpu.learned.llc_accesses`` directly) and the
  old inline ``storage_overhead_bits``;
* ``LegacyThrottlePolicy`` — attaches the legacy controller with the
  old constructor call.

Each mix x seed runs both wirings at smoke scale with telemetry
attached (telemetry-attached runs are never cached, so both executions
are genuinely fresh) and compares the full result dict plus a SHA-256
over the canonicalised record stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from typing import Optional

import pytest

from repro.config import default_config
from repro.core.qos import QoSController
from repro.core.rtp_table import RtpInfoTable
from repro.gpu.pipeline import FrameRecord, GpuPipeline
from repro.mixes import mix
from repro.policies.throttle import ThrottlePolicy
from repro.predict.rtp import LearnedFrame, Phase
from repro.sim.runner import run_system
from repro.telemetry import Telemetry

# --------------------------------------------------------------------------
# Verbatim pre-refactor reference (HEAD^ src/repro/core/frpu.py), with one
# metadata addition: a ``name`` class attribute so the *new* metrics
# collector (which tags RunResult.predictor) reads the same tag from both
# wirings.  ``name`` is never consulted by the legacy control path.
# --------------------------------------------------------------------------


class LegacyFrameRatePredictor:
    name = "rtp"                       # metrics tag only (see above)

    MID_FRAME_BOUND = 4

    def __init__(self, rtp_entries: int = 64, verify_threshold: float = 0.25,
                 correct_throttle: bool = True, skip_frames: int = 1,
                 ewma_alpha: float = 0.4, telemetry=None):
        self.table = RtpInfoTable(rtp_entries)
        self.telemetry = telemetry
        self.verify_threshold = verify_threshold
        self.correct_throttle = correct_throttle
        self.skip_frames = skip_frames
        self.ewma_alpha = ewma_alpha
        self.phase = Phase.LEARNING
        self.learned: Optional[LearnedFrame] = None
        self.phase_transitions: list[tuple[int, Phase]] = []
        self.error_log: list[tuple[int, float, float]] = []
        self._mid_frame_prediction: dict[int, float] = {}
        self.frames_learned = 0
        self.frames_predicted = 0

    def predict_frame_cycles(self, pipeline: GpuPipeline) -> Optional[float]:
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
            elapsed = pipeline.current_frame_elapsed_cycles()
            if self.correct_throttle:
                elapsed -= pipeline.current_frame_throttle_cycles()
            frac = lam * self.learned.n_rtp
            c_inter = (elapsed / frac) if frac > 0.05 else c_avg
        c_rtp = lam * c_inter + (1.0 - lam) * c_avg
        f = c_rtp * self.learned.n_rtp
        if 0.25 <= lam <= 0.75:
            self._note_mid_frame(pipeline._frame_idx, f)
        return f

    def _note_mid_frame(self, frame_idx: int, predicted: float) -> None:
        mid = self._mid_frame_prediction
        mid[frame_idx] = predicted
        while len(mid) > self.MID_FRAME_BOUND:
            del mid[min(mid)]

    def predicted_fps(self, pipeline: GpuPipeline, fps_nominal: float,
                      gpu_frame_cycles: int) -> Optional[float]:
        f = self.predict_frame_cycles(pipeline)
        if f is None or f <= 0:
            return None
        return fps_nominal * gpu_frame_cycles / f

    def on_frame_complete(self, rec: FrameRecord) -> None:
        if rec.index < self.skip_frames:
            return
        if self.phase is Phase.LEARNING:
            self._learn(rec)
            return
        self.frames_predicted += 1
        self._log_error(rec)
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
            return
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

    def _log_error(self, rec: FrameRecord) -> None:
        mid = self._mid_frame_prediction
        for idx in [i for i in mid if i < rec.index]:
            del mid[idx]
        pred = mid.pop(rec.index, None)
        if pred is None:
            return
        actual = rec.cycles - (rec.throttle_ticks
                               if self.correct_throttle else 0)
        if actual > 0:
            self.error_log.append((rec.index, pred, float(actual)))
            if self.telemetry is not None:
                self.telemetry.emit(
                    "frpu_error", tick=rec.end_time, frame=rec.index,
                    predicted_cycles=pred, actual_cycles=float(actual),
                    error_pct=100.0 * (pred - actual) / actual)

    def percent_errors(self) -> list[float]:
        return [100.0 * (p - a) / a for _, p, a in self.error_log]

    def mean_abs_percent_error(self) -> float:
        errs = self.percent_errors()
        return sum(abs(e) for e in errs) / len(errs) if errs else 0.0


# --------------------------------------------------------------------------
# Pre-refactor controller wiring (HEAD^ src/repro/core/qos.py).
# --------------------------------------------------------------------------


class LegacyQoSController(QoSController):
    def __init__(self, sim, cfg, pipeline, gpu_frame_cycles,
                 dram_schedulers=(), correct_throttle=True,
                 telemetry=None):
        super().__init__(sim, cfg, pipeline, gpu_frame_cycles,
                         dram_schedulers=dram_schedulers,
                         correct_throttle=correct_throttle,
                         telemetry=telemetry)
        # replace the seam-built predictor with the verbatim old one,
        # constructed exactly as the old controller did
        self.frpu = LegacyFrameRatePredictor(
            rtp_entries=cfg.rtp_table_entries,
            verify_threshold=cfg.verify_threshold,
            correct_throttle=correct_throttle,
            telemetry=telemetry)

    def _chain_frame_done(self, prev):
        def handler(rec: FrameRecord) -> None:
            self.frpu.on_frame_complete(rec)
            if self.frpu.phase is Phase.LEARNING:
                self._disable()
            if prev is not None:
                prev(rec)
        return handler

    def recompute(self) -> None:
        self._c_recompute.inc()
        c_p = self.frpu.predict_frame_cycles(self.pipeline)
        if c_p is None:
            self._disable()
            return
        c_t = self.target_cycles_per_frame
        a = self.frpu.learned.llc_accesses if self.frpu.learned else 0
        if c_p >= c_t or a <= 0:
            self.atu.compute(c_p, c_t, max(a, 1))
            self._emit_atu(c_p, c_t, a, active=False)
            self._disable()
            return
        self.atu.compute(c_p, c_t, a)
        self._emit_atu(c_p, c_t, a, active=True)
        self._enable()

    def storage_overhead_bits(self) -> int:
        return self.frpu.table.storage_bits() + 12 * 32


class LegacyThrottlePolicy(ThrottlePolicy):
    def attach(self, system) -> None:
        self._system = system
        if system.gpu is None:
            return
        qos_cfg = system.cfg.qos
        if self.target_fps is not None:
            qos_cfg = replace(qos_cfg, target_fps=self.target_fps)
        self.qos = LegacyQoSController(
            system.sim, qos_cfg, system.gpu,
            system.cfg.scale.gpu_frame_cycles,
            dram_schedulers=self._schedulers if self.cpu_priority else (),
            correct_throttle=self.correct_throttle,
            telemetry=system.telemetry)
        self.qos.start()


# --------------------------------------------------------------------------
# The golden comparison.
# --------------------------------------------------------------------------


def run_once(mix_name: str, seed: int, policy):
    m = mix(mix_name)
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=seed)
    tel = Telemetry()
    res = run_system(cfg, m, policy, telemetry=tel)
    tel.close()
    stream = json.dumps(tel.records, sort_keys=True).encode()
    return asdict(res), hashlib.sha256(stream).hexdigest()


@pytest.mark.parametrize("mix_name", ["M1", "M7"])
@pytest.mark.parametrize("seed", [1, 2])
def test_rtp_seam_is_bit_identical_to_preseam_frpu(mix_name, seed):
    new_res, new_sha = run_once(mix_name, seed,
                                ThrottlePolicy(cpu_priority=True))
    old_res, old_sha = run_once(mix_name, seed,
                                LegacyThrottlePolicy(cpu_priority=True))
    diff = [k for k in new_res if new_res[k] != old_res[k]]
    assert not diff, f"RunResult drift in field(s): {diff}"
    assert new_sha == old_sha, "telemetry byte stream drift"


def test_default_config_routes_to_the_reference_extrapolator():
    """The seam's default must BE the paper's extrapolator."""
    from repro.predict import RtpExtrapolator
    assert default_config(scale="smoke").qos.predictor == "rtp"
    m = mix("M1")
    cfg = default_config(scale="smoke", n_cpus=m.n_cpus, seed=1)
    pol = ThrottlePolicy(cpu_priority=True)
    run_system(cfg, m, pol)
    assert isinstance(pol.qos.frpu, RtpExtrapolator)
