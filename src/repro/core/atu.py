"""The access throttling unit (Section III-B, Fig. 6).

The ATU holds two registers:

* ``N_G`` — accesses the GPU may issue before the GTT ports are gated,
* ``W_G`` — how long the ports stay disabled once ``N_G`` reaches 0.

The Fig. 6 computation, run at every recompute interval with the
predicted cycles/frame ``C_P``, the target cycles/frame ``C_T`` and the
per-frame LLC access count ``A``:

* ``C_P > C_T`` (GPU slower than target) -> ``N_G = 1, W_G = 0``
  (no throttling);
* else ``N_G = 1`` and ``W_G`` grows in steps until it covers
  ``(C_T - C_P) / A`` — the per-access stall that stretches the frame
  from ``C_P`` towards ``C_T``.

Two implementation choices (documented deviations, both benchmarked by
the ablation benches):

* ``W_G`` is kept at *tick* granularity (1/4 GPU cycle) because at our
  scaled frame sizes a one-GPU-cycle quantum is a ~25% FPS step;
  the growth step is still 2 units, as in Fig. 6.
* the loop result is quantised *downwards* (largest multiple of the
  step that does not exceed the Fig. 6 bound), so the delivered frame
  rate settles just *above* the QoS target rather than just below it —
  the conservative side of the paper's 10 FPS cushion.

The gate is *additive*: after each granted access the ports close for
``W_G``, so every GPU LLC access pays the full stall and the frame
stretches by ``A * W_G`` exactly as the Fig. 6 arithmetic assumes.
Gated requests pile up in GPU-internal buffers; that backpressure is
modelled by the pipeline's MSHR limit.
"""

from __future__ import annotations

from repro.config import GPU_CYCLE_TICKS


class AccessThrottlingUnit:
    def __init__(self, wg_step: int = 2):
        if wg_step < 1:
            raise ValueError("wg_step must be >= 1 tick")
        self.wg_step = wg_step            # in ticks
        self.ng = 1
        self.wg_ticks = 0
        self._tokens = self.ng
        self._gate_until = 0
        self.recomputes = 0
        self.throttled_recomputes = 0
        #: inputs of the most recent :meth:`compute` — ``(C_P, C_T, A)``
        #: — kept for observability (telemetry emitters, debugging);
        #: None until the first recompute
        self.last_inputs: tuple[float, float, float] | None = None

    # -- Fig. 6 ----------------------------------------------------------------

    @property
    def wg(self) -> float:
        """W_G in GPU cycles (the paper's unit), for reporting."""
        return self.wg_ticks / GPU_CYCLE_TICKS

    def compute(self, c_p: float, c_t: float,
                a: float) -> tuple[int, float]:
        """Run the Fig. 6 flow; returns the new ``(N_G, W_G cycles)``."""
        self.recomputes += 1
        self.last_inputs = (c_p, c_t, a)
        self.ng = 1
        if c_p > c_t or a <= 0:
            self.wg_ticks = 0
            return self.ng, self.wg
        target_ticks = (c_t - c_p) / a * GPU_CYCLE_TICKS
        # the Fig. 6 growth loop, closed-form: largest multiple of the
        # step at or below the bound
        self.wg_ticks = int(target_ticks // self.wg_step) * self.wg_step
        if self.wg_ticks > 0:
            self.throttled_recomputes += 1
        return self.ng, self.wg

    def reset_gate(self) -> None:
        self.wg_ticks = 0
        self._tokens = self.ng
        self._gate_until = 0

    # -- the port gate ----------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.wg_ticks > 0

    def next_issue_time(self, t: int, kind: str = "") -> int:
        """Earliest tick at which the next GPU LLC access may issue.

        The ATU gates the *collective* GPU LLC access rate — ``kind`` is
        ignored (unlike shader-core-centric schemes such as CM-BAL).
        """
        if self.wg_ticks <= 0:
            return t
        self._tokens -= 1
        if self._tokens > 0:
            return t                   # within the N_G burst allowance
        self._tokens = self.ng
        # Ports disabled for W_G once the burst allowance is used.  A
        # real GPU always has further requests queued behind the port
        # (deep request buffers), so every access pays the full W_G and
        # the frame stretches by A*W_G — the Fig. 6 operating regime.
        return t + self.wg_ticks

    def __repr__(self) -> str:
        return (f"ATU(N_G={self.ng}, W_G={self.wg:.2f}cyc, "
                f"active={self.active})")
