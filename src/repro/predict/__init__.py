"""repro.predict — pluggable frame-time predictors behind the FRPU.

The throttling policy's quality hinges on one estimate: how many GPU
cycles the in-flight frame will take (Section III-A).  This package
turns that estimator into a seam:

* :class:`~repro.predict.base.Predictor` — the interface contract
  (observe completed frames, predict the current frame's cycles and
  the learned per-frame LLC access count ``A``).
* :class:`~repro.predict.rtp.RtpExtrapolator` — the paper's Eqs. 1-3
  extrapolator, the reference implementation and the default
  (bit-identical to the pre-seam FRPU under the golden tests).
* :class:`~repro.predict.rls.RlsPredictor` — online recursive least
  squares over per-frame work features (Gupta et al., PAPERS.md).
* :class:`~repro.predict.blend.EwmaBlendPredictor` — exponentially-
  weighted multi-horizon blender with hedge mixing (Raghavan et al.,
  PAPERS.md motivates the drift-tracking behaviour).
* :class:`~repro.predict.blend.LastFramePredictor` — the naive
  persistence baseline every learned model must beat.

Selection is wired through ``SystemConfig.qos.predictor`` /
``--predictor`` on the CLI; the head-to-head evaluation suite lives in
:mod:`repro.analysis.predictors` (``python -m repro
compare-predictors``).  See docs/predictors.md.
"""

from __future__ import annotations

from repro.predict.base import Predictor
from repro.predict.blend import EwmaBlendPredictor, LastFramePredictor
from repro.predict.features import FEATURE_NAMES, frame_features
from repro.predict.rls import RlsPredictor
from repro.predict.rtp import (LearnedFrame, Phase, PredictionSample,
                               RtpExtrapolator)

#: registry, in documentation order.  Must stay in sync with
#: ``repro.config.PREDICTORS`` (enforced by tests/predict).
_REGISTRY: dict[str, type[Predictor]] = {
    "rtp": RtpExtrapolator,
    "rls": RlsPredictor,
    "ewma-blend": EwmaBlendPredictor,
    "last-frame": LastFramePredictor,
}

PREDICTOR_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def make_predictor(name: str, *, rtp_entries: int = 64,
                   verify_threshold: float = 0.25,
                   correct_throttle: bool = True, skip_frames: int = 1,
                   telemetry=None, **kwargs) -> Predictor:
    """Build a predictor by registry name.

    ``rtp_entries`` and ``verify_threshold`` only apply to the
    reference extrapolator (they parameterise the RTP information
    table and the Fig. 4 cross-verification); the shared knobs
    (``correct_throttle``, ``skip_frames``, ``telemetry``)
    reach every implementation, and ``kwargs`` passes
    implementation-specific knobs through (e.g. ``forgetting=`` for
    ``rls``).
    """
    cls = _REGISTRY.get(name.lower())
    if cls is None:
        raise KeyError(f"unknown predictor {name!r}; "
                       f"known: {', '.join(PREDICTOR_NAMES)}")
    common = dict(correct_throttle=correct_throttle,
                  skip_frames=skip_frames, telemetry=telemetry)
    if cls is RtpExtrapolator:
        return cls(rtp_entries=rtp_entries,
                   verify_threshold=verify_threshold, **common, **kwargs)
    return cls(**common, **kwargs)


__all__ = ["Predictor", "RtpExtrapolator", "RlsPredictor",
           "EwmaBlendPredictor", "LastFramePredictor", "Phase",
           "LearnedFrame", "PredictionSample", "FEATURE_NAMES",
           "frame_features", "make_predictor", "PREDICTOR_NAMES"]
