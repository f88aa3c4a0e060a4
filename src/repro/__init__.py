"""repro — reproduction of Rai & Chaudhuri, "Improving CPU Performance
through Dynamic GPU Access Throttling in CPU-GPU Heterogeneous
Processors" (IPDPSW 2017).

Public API
----------
``default_config`` / ``SystemConfig`` — the Table I machine.
``mix`` / ``MIXES_M`` / ``MIXES_W`` — the Table III workload mixes.
``run_mix`` / ``run_system`` / ``standalone_cpu`` / ``standalone_gpu`` —
experiment runners returning :class:`RunResult`.
``make_policy`` / ``POLICY_NAMES`` — the 13 registry policies, e.g.
"baseline", "sms-0.9", "dynprio", "helm", "throtcpuprio" (the proposal).
``QoSController`` / ``FrameRatePredictor`` / ``AccessThrottlingUnit`` —
the paper's mechanism, usable standalone.
``Predictor`` / ``make_predictor`` / ``PREDICTOR_NAMES`` — the
pluggable frame-time predictor seam behind the FRPU
(docs/predictors.md); ``compare_predictors`` runs the head-to-head
evaluation suite.
``SpanTracer`` / ``Telemetry`` — request-path span tracing with
latency percentiles (docs/latency.md) and control-loop recording
(docs/telemetry.md); attach them through ``run_system``.
"""

from repro.config import (SystemConfig, Scale, SCALES, default_config,
                          CPU_CLOCK_HZ, GPU_CLOCK_HZ)
from repro.mixes import Mix, MIXES_M, MIXES_W, HIGH_FPS_MIXES, \
    LOW_FPS_MIXES, mix
from repro.core import (QoSController, FrameRatePredictor,
                        AccessThrottlingUnit, RtpInfoTable)
from repro.predict import (Predictor, make_predictor, PREDICTOR_NAMES,
                           RtpExtrapolator)
from repro.analysis.predictors import compare_predictors
from repro.policies import make_policy, POLICY_NAMES
from repro.sim.metrics import RunResult, weighted_speedup, geomean, \
    combined_performance
from repro.sim.runner import (run_mix, run_system, standalone_cpu,
                              standalone_gpu, alone_ipcs,
                              weighted_speedup_for)
from repro.sim.system import HeterogeneousSystem
from repro.analysis.diagnostics import Probe
from repro.analysis.energy import EnergyParams, EnergyReport, price_run
from repro.analysis.stats import Replicated, replicate, summarize
from repro.spans import SpanTracer
from repro.telemetry import Telemetry
from repro.tracing import LlcTrace, TraceRecorder, TraceReplayer

__version__ = "1.0.0"

__all__ = [
    "SystemConfig", "Scale", "SCALES", "default_config",
    "CPU_CLOCK_HZ", "GPU_CLOCK_HZ",
    "Mix", "MIXES_M", "MIXES_W", "HIGH_FPS_MIXES", "LOW_FPS_MIXES", "mix",
    "QoSController", "FrameRatePredictor", "AccessThrottlingUnit",
    "RtpInfoTable",
    "Predictor", "make_predictor", "PREDICTOR_NAMES", "RtpExtrapolator",
    "compare_predictors",
    "make_policy", "POLICY_NAMES",
    "RunResult", "weighted_speedup", "geomean", "combined_performance",
    "run_mix", "run_system", "standalone_cpu", "standalone_gpu",
    "alone_ipcs", "weighted_speedup_for", "HeterogeneousSystem",
    "Probe", "EnergyParams", "EnergyReport", "price_run",
    "Replicated", "replicate", "summarize",
    "SpanTracer", "Telemetry",
    "LlcTrace", "TraceRecorder", "TraceReplayer",
    "__version__",
]
