"""Head-to-head evaluation of frame-time predictors.

The FRPU seam (:mod:`repro.predict`, docs/predictors.md) makes the
frame-time estimator a pluggable component; this module answers the
question that creates: *which predictor should you run?*  For each mix
it runs the throttling policy once per predictor (plus the unthrottled
baseline policy for normalisation) and produces two tables:

* **accuracy** — per-prediction mean absolute percent error and signed
  bias, overall and split into the *early* window (the first
  ``EARLY_FRAMES`` frames, where history is thin and the reference
  extrapolator is still learning) and the *steady* remainder;
* **end-to-end** — what the predictor choice does to the paper's
  headline numbers: GPU FPS and CPU weighted speedup, each relative to
  the unthrottled baseline policy.

Runs route through :mod:`repro.exec`, so everything is cached
persistently and fans out across cores under ``REPRO_JOBS``.

    from repro.analysis.predictors import compare_predictors
    cmp = compare_predictors(mixes=("M7",), scale="smoke")
    print(cmp.format())

CLI: ``python -m repro compare-predictors --mixes M1,M7 --scale test``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.config import PREDICTORS, default_config
from repro.exec import RunSpec, run_many
from repro.exec.specs import mix_spec
from repro.sim.metrics import RunResult
from repro.sim.runner import weighted_speedup_for

#: frame-index boundary between the "early" accuracy window (cold
#: history: the reference extrapolator's first learning pass, the
#: learned predictors' min_history ramp) and "steady" state
EARLY_FRAMES = 4

#: the unthrottled policy every end-to-end delta normalises against
BASELINE_POLICY = "baseline"


@dataclass(frozen=True)
class Accuracy:
    """MAE/bias summary of one slice of a prediction log."""

    n: int
    mae_pct: float            # mean |100 * (pred - actual) / actual|
    bias_pct: float           # mean signed percent error

    def format(self) -> str:
        if self.n == 0:
            return "      -      -"
        return f"{self.mae_pct:6.2f} {self.bias_pct:+6.2f}"


def accuracy(log: Sequence[tuple[int, float, float]],
             lo: int = 0, hi: Optional[int] = None) -> Accuracy:
    """Summarise ``(frame, predicted, actual)`` samples with
    ``lo <= frame < hi`` (``hi=None`` = unbounded)."""
    errs = [100.0 * (p - a) / a for f, p, a in log
            if a > 0 and f >= lo and (hi is None or f < hi)]
    if not errs:
        return Accuracy(0, 0.0, 0.0)
    return Accuracy(len(errs),
                    sum(abs(e) for e in errs) / len(errs),
                    sum(errs) / len(errs))


@dataclass(frozen=True)
class PredictorRow:
    """One (mix, predictor) cell of the comparison."""

    mix: str
    predictor: str
    result: RunResult
    overall: Accuracy
    early: Accuracy
    steady: Accuracy
    cpu_ws: float             # weighted speedup vs standalone IPCs
    #: end-to-end deltas vs the unthrottled baseline policy
    fps_vs_baseline: float
    ws_vs_baseline: float

    @property
    def fps(self) -> float:
        return self.result.fps


@dataclass
class Comparison:
    """Everything ``compare-predictors`` produced, ready to render."""

    scale: str
    seed: int
    policy: str
    mixes: tuple[str, ...]
    predictors: tuple[str, ...]
    #: mix -> (baseline-policy FPS, baseline-policy CPU WS)
    baselines: dict[str, tuple[float, float]]
    rows: list[PredictorRow]

    def rows_for(self, mix_name: str) -> list[PredictorRow]:
        return [r for r in self.rows if r.mix == mix_name]

    def row(self, mix_name: str, predictor: str) -> PredictorRow:
        for r in self.rows:
            if r.mix == mix_name and r.predictor == predictor:
                return r
        raise KeyError((mix_name, predictor))

    # -- rendering ---------------------------------------------------------

    def format_accuracy(self) -> str:
        """Per-phase prediction accuracy, one block per mix."""
        lines = [f"prediction accuracy @ {self.scale} "
                 f"(MAE% / bias%; early = frames < {EARLY_FRAMES})"]
        header = (f"  {'predictor':12s} {'n':>4s} "
                  f"{'overall':>13s} {'early':>13s} {'steady':>13s}")
        for m in self.mixes:
            lines.append(f"{m}:")
            lines.append(header)
            for r in self.rows_for(m):
                lines.append(
                    f"  {r.predictor:12s} {r.overall.n:4d} "
                    f"{r.overall.format():>13s} {r.early.format():>13s} "
                    f"{r.steady.format():>13s}")
        return "\n".join(lines)

    def format_end_to_end(self) -> str:
        """FPS / CPU weighted-speedup deltas vs the baseline policy."""
        lines = [f"end-to-end impact @ {self.scale} "
                 f"({self.policy} vs {BASELINE_POLICY})"]
        for m in self.mixes:
            base_fps, base_ws = self.baselines[m]
            lines.append(f"{m}: baseline {base_fps:.1f} FPS, "
                         f"CPU WS {base_ws:.3f}")
            lines.append(f"  {'predictor':12s} {'GPU FPS':>8s} "
                         f"{'dFPS%':>7s} {'CPU WS':>7s} {'dWS%':>7s}")
            for r in self.rows_for(m):
                lines.append(
                    f"  {r.predictor:12s} {r.fps:8.1f} "
                    f"{100 * (r.fps_vs_baseline - 1):+7.1f} "
                    f"{r.cpu_ws:7.3f} "
                    f"{100 * (r.ws_vs_baseline - 1):+7.1f}")
        return "\n".join(lines)

    def format(self) -> str:
        return self.format_accuracy() + "\n\n" + self.format_end_to_end()


def predictor_spec(mix_name: str, predictor: str, scale: str = "test",
                   seed: int = 1,
                   policy: str = "throtcpuprio") -> RunSpec:
    """The RunSpec for one (mix, predictor) cell.

    The predictor rides in an explicit :class:`SystemConfig`, so the
    content-addressed cache keys each predictor's runs separately.
    """
    return mix_spec(mix_name, policy, scale, seed, predictor=predictor)


def compare_predictors(mixes: Sequence[str] = ("M1", "M7"),
                       predictors: Sequence[str] = PREDICTORS,
                       scale: str = "smoke", seed: int = 1,
                       policy: str = "throtcpuprio",
                       jobs: Optional[int] = None,
                       progress: Optional[Callable] = None
                       ) -> Comparison:
    """Run the head-to-head: every mix x every predictor, plus one
    baseline-policy run per mix for the end-to-end deltas, through
    :func:`repro.exec.run_many` (cached, fanned out by ``jobs``).
    """
    mixes = tuple(mixes)
    predictors = tuple(predictors)
    for p in predictors:
        if p not in PREDICTORS:
            raise ValueError(f"unknown predictor {p!r}; "
                             f"choose from {'/'.join(PREDICTORS)}")
    specs = [mix_spec(m, BASELINE_POLICY, scale, seed) for m in mixes]
    specs += [predictor_spec(m, p, scale, seed, policy)
              for m in mixes for p in predictors]
    outcomes = run_many(specs, jobs=jobs, strict=True, progress=progress)
    results = [o.result for o in outcomes]
    baselines: dict[str, tuple[float, float]] = {}
    for m, r in zip(mixes, results[:len(mixes)]):
        ws = weighted_speedup_for(r, scale, seed) if r.cpu_apps else 0.0
        baselines[m] = (r.fps, ws)
    rows: list[PredictorRow] = []
    it = iter(results[len(mixes):])
    for m in mixes:
        base_fps, base_ws = baselines[m]
        for p in predictors:
            r = next(it)
            ws = weighted_speedup_for(r, scale, seed) \
                if r.cpu_apps else 0.0
            log = r.prediction_log
            rows.append(PredictorRow(
                mix=m, predictor=p, result=r,
                overall=accuracy(log),
                early=accuracy(log, hi=EARLY_FRAMES),
                steady=accuracy(log, lo=EARLY_FRAMES),
                cpu_ws=ws,
                fps_vs_baseline=r.fps / base_fps if base_fps else
                math.inf,
                ws_vs_baseline=ws / base_ws if base_ws else math.inf))
    return Comparison(scale=scale, seed=seed, policy=policy,
                      mixes=mixes, predictors=predictors,
                      baselines=baselines, rows=rows)
