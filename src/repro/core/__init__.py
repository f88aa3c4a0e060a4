"""The paper's contribution: frame-rate prediction + GPU access throttling.

* :mod:`repro.core.rtp_table` — the 64-entry RTP information table
* :class:`FrameRatePredictor` — dynamic frame-rate estimation (Section
  III-A): the paper's name for :class:`repro.predict.rtp.RtpExtrapolator`
* :mod:`repro.core.atu` — the (N_G, W_G) throttle of Fig. 6 (III-B)
* :mod:`repro.core.qos` — the controller wiring FRPU -> ATU -> DRAM
  priority (Section III-C)
"""

from repro.core.rtp_table import RtpInfoTable, RtpEntry
from repro.predict.rtp import (LearnedFrame, Phase,
                               RtpExtrapolator as FrameRatePredictor)
from repro.core.atu import AccessThrottlingUnit
from repro.core.qos import QoSController

__all__ = ["RtpInfoTable", "RtpEntry", "FrameRatePredictor", "Phase",
           "LearnedFrame", "AccessThrottlingUnit", "QoSController"]
