"""The invariant monitor: conservation, occupancy, liveness watchdogs.

Checks run at a configurable cycle interval from inside the event loop
(one read-only event per interval) plus one cheap accounting hook on the
request-issue boundary.  Every check models a hardware-level conservation
law; the mapping is documented in ``docs/robustness.md``:

====================== ====================================================
check                  invariant
====================== ====================================================
request_conservation   issued - retired == requests in flight; a request
                       never retires twice and never vanishes
inflight_age           every issued request retires within a bounded time
                       (a dropped fill wedges its issuer forever)
mshr                   LLC MSHR occupancy <= capacity; no entry outlives
                       the age bound; input-queue waiters exist only
                       while the file is full
dram                   per-bank queued accounting matches the queues;
                       SMS's live read count matches its batches;
                       read-queue population <= LLC MSHR capacity (every
                       DRAM read is an LLC fill); no transaction ages out
gpu_occupancy          0 <= outstanding <= mshr_entries; an "mshr" stall
                       always holds a deferred access to retry
cpu_occupancy          per-core MLP / write-buffer / prefetcher bounds
frpu_phase             learning<->prediction transitions alternate;
                       prediction phase implies learned data exists
atu                    N_G >= 1, W_G >= 0 and step-aligned, token count
                       in [1, N_G]; an open gate implies tokens remain
event_queue            kernel bookkeeping is sane and the head is never
                       in the past
liveness               with work pending, *something* (instructions,
                       frames, retires, DRAM service) advances across
                       ``stall_checks`` consecutive intervals
deadlock               the event queue never drains while the system
                       still has unfinished work
====================== ====================================================

A failed check raises :class:`InvariantViolation` carrying a
:class:`DiagnosticDump`; the exception aborts the run loudly rather than
letting a corrupted simulation produce plausible-looking numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: default ticks between monitor checks (2k GPU cycles)
DEFAULT_INTERVAL = 8192
#: default bound on how long one request may stay in flight, in ticks.
#: The worst legitimate round trip (deep DRAM queues, gated GPU, queued
#: LLC MSHR) is a few tens of thousands of ticks at every preset; one
#: million ticks of silence means the request is gone.
DEFAULT_MAX_AGE = 1_000_000
#: consecutive zero-progress checks before the starvation watchdog trips
DEFAULT_STALL_CHECKS = 8


@dataclass
class DiagnosticDump:
    """Snapshot of the machine taken at the moment of a violation."""

    tick: int
    #: (next event tick, bucket length) or None when the queue is empty
    event_head: Optional[tuple[int, int]]
    kernel: dict[str, int]
    counters: dict[str, int]
    occupancies: dict[str, Any]
    #: up to ``KEEP_OLDEST`` oldest in-flight requests: (repr, age ticks)
    oldest_inflight: list[tuple[str, int]]
    control: dict[str, Any] = field(default_factory=dict)
    telemetry_tail: list[dict] = field(default_factory=list)

    KEEP_OLDEST = 5

    def format(self) -> str:
        lines = [f"tick {self.tick:,}"]
        if self.event_head is not None:
            t, n = self.event_head
            lines.append(f"event queue head: tick {t:,} ({n} event(s))")
        else:
            lines.append("event queue head: <empty>")
        lines.append("kernel: " + ", ".join(
            f"{k}={v}" for k, v in self.kernel.items()))
        lines.append("counters: " + ", ".join(
            f"{k}={v}" for k, v in self.counters.items()))
        for name, occ in self.occupancies.items():
            lines.append(f"{name}: {occ}")
        if self.control:
            lines.append("control: " + ", ".join(
                f"{k}={v}" for k, v in self.control.items()))
        if self.oldest_inflight:
            lines.append("oldest in-flight requests:")
            for rep, age in self.oldest_inflight:
                lines.append(f"  {rep}  (age {age:,} ticks)")
        if self.telemetry_tail:
            lines.append(f"last {len(self.telemetry_tail)} telemetry "
                         "records:")
            for rec in self.telemetry_tail:
                lines.append(f"  {rec}")
        return "\n".join(lines)


class InvariantViolation(RuntimeError):
    """A simulation invariant was broken; the run is not trustworthy."""

    def __init__(self, check: str, message: str,
                 dump: Optional[DiagnosticDump] = None):
        self.check = check
        self.message = message
        self.dump = dump
        text = f"[{check}] {message}"
        if dump is not None:
            text += "\n--- diagnostic dump ---\n" + dump.format()
        super().__init__(text)


@dataclass
class GuardReport:
    """What the monitor observed over a (completed) run."""

    checks_run: int
    issued: int
    retired: int
    issued_writes: int
    in_flight_at_end: int
    max_in_flight: int

    def format(self) -> str:
        return (f"guard: {self.checks_run} checks, "
                f"{self.issued:,} issued / {self.retired:,} retired "
                f"(+{self.issued_writes:,} fire-and-forget writes), "
                f"peak in-flight {self.max_in_flight}, "
                f"{self.in_flight_at_end} in flight at stop")


class InvariantMonitor:
    """Watchdog over one :class:`~repro.sim.system.HeterogeneousSystem`.

    Construct it, pass it as ``HeterogeneousSystem(..., monitor=...)``
    (or ``run_system(..., monitor=...)``), and run.  The system wires
    the issue-accounting hook and schedules the periodic check event;
    a system built without a monitor is untouched.
    """

    def __init__(self, interval_ticks: int = DEFAULT_INTERVAL,
                 max_inflight_age: int = DEFAULT_MAX_AGE,
                 stall_checks: int = DEFAULT_STALL_CHECKS,
                 telemetry_tail: int = 16):
        if interval_ticks < 1:
            raise ValueError("monitor interval must be >= 1 tick")
        if max_inflight_age < 1:
            raise ValueError("max_inflight_age must be >= 1 tick")
        if stall_checks < 1:
            raise ValueError("stall_checks must be >= 1")
        self.interval_ticks = int(interval_ticks)
        self.max_inflight_age = int(max_inflight_age)
        self.stall_checks = int(stall_checks)
        self.telemetry_tail = int(telemetry_tail)

        self.system = None
        self.sim = None
        self.issued = 0
        self.retired = 0
        self.issued_writes = 0
        self.checks_run = 0
        self.max_in_flight = 0
        #: id(req) -> (req, issued_tick) for every retiring request in
        #: flight between the send hook and its on_done callback
        self._live: dict[int, tuple[Any, int]] = {}
        self._stall_count = 0
        self._last_progress: Optional[tuple] = None
        self._phase_idx = 0

    # -- wiring (called by HeterogeneousSystem at construction) ----------

    def wrap_issue(self, send: Callable, sim) -> Callable:
        """Wrap a send hook with issue/retire conservation accounting.

        Only requests that carry a completion callback participate in
        conservation (reads and read-for-ownership stores); writebacks
        are fire-and-forget by design and are counted separately.
        """
        live = self._live

        def guarded_send(req, _send=send, _live=live, _sim=sim):
            done = req.on_done
            if done is not None and not req.is_write:
                self.issued += 1
                _live[id(req)] = (req, _sim.now)
                if len(_live) > self.max_in_flight:
                    self.max_in_flight = len(_live)
                req.on_done = self._make_retire(done)
            else:
                self.issued_writes += 1
            _send(req)

        return guarded_send

    def _make_retire(self, done: Callable) -> Callable:
        def retired(req, _done=done):
            if self._live.pop(id(req), None) is None:
                raise InvariantViolation(
                    "request_conservation",
                    f"request retired that was never issued (or retired "
                    f"twice): {req!r}", self.dump())
            self.retired += 1
            _done(req)

        return retired

    def bind(self, system) -> None:
        """Attach to a fully-constructed system and start checking."""
        self.system = system
        self.sim = system.sim
        self.sim.after(self.interval_ticks, self._check)

    # -- the periodic check ----------------------------------------------

    def _fail(self, check: str, message: str) -> None:
        raise InvariantViolation(check, message, self.dump())

    def _check(self) -> None:
        self.checks_run += 1
        system = self.system
        sim = self.sim

        self._check_kernel(sim)
        self._check_conservation()
        self._check_inflight_age(sim.now)
        self._check_mshr(system, sim.now)
        self._check_dram(system, sim.now)
        self._check_gpu(system)
        self._check_cpu(system)
        self._check_control(system)
        self._check_liveness(system)

        if system._stopped:
            return                     # run complete: stop rescheduling
        if sim.pending() == 0:
            self._fail("deadlock",
                       "event queue drained with unfinished work: "
                       f"{system._cores_remaining} core(s) unfinished, "
                       f"{len(self._live)} request(s) in flight")
        sim.after(self.interval_ticks, self._check)

    # -- individual invariants -------------------------------------------

    def _check_kernel(self, sim) -> None:
        live = getattr(sim, "_live", None)
        if live is None:
            return                     # non-calendar kernel: skip
        if live < 0 or sim._size < 0 or sim._cancelled < 0:
            self._fail("event_queue",
                       f"negative kernel bookkeeping: live={live} "
                       f"size={sim._size} cancelled={sim._cancelled}")
        if sim._size < live:
            self._fail("event_queue",
                       f"enqueued total {sim._size} < live {live}")
        head = sim.head()
        if head is not None and head[0] < sim.now:
            self._fail("event_queue",
                       f"queue head at tick {head[0]} is in the past "
                       f"(now {sim.now})")

    def _check_conservation(self) -> None:
        in_flight = self.issued - self.retired
        if in_flight != len(self._live):
            self._fail("request_conservation",
                       f"issued {self.issued} - retired {self.retired} "
                       f"= {in_flight}, but {len(self._live)} request(s) "
                       "tracked in flight")
        if in_flight < 0:
            self._fail("request_conservation",
                       f"more requests retired ({self.retired}) than "
                       f"issued ({self.issued})")

    def _check_inflight_age(self, now: int) -> None:
        limit = self.max_inflight_age
        for req, t0 in self._live.values():
            if now - t0 > limit:
                self._fail("inflight_age",
                           f"request in flight for {now - t0:,} ticks "
                           f"(limit {limit:,}), never retired: {req!r}")

    def _check_mshr(self, system, now: int) -> None:
        mshr = system.llc.mshr
        if len(mshr) > mshr.capacity:
            self._fail("mshr", f"LLC MSHR occupancy {len(mshr)} exceeds "
                               f"capacity {mshr.capacity}")
        if system.llc._wait and not mshr.full:
            self._fail("mshr", f"{len(system.llc._wait)} request(s) "
                               "queued behind the MSHR file while it has "
                               "free entries")
        oldest = mshr.oldest(now)
        if oldest is not None and oldest[1] > self.max_inflight_age:
            self._fail("mshr",
                       f"MSHR entry for line 0x{oldest[0]:x} outstanding "
                       f"for {oldest[1]:,} ticks — its fill never "
                       "returned")

    def _check_dram(self, system, now: int) -> None:
        cap = system.llc.mshr.capacity
        for mc in system.dram.controllers:
            state = mc.guard_state()
            if state["reads"] > cap:
                self._fail("dram",
                           f"mc{mc.channel_id} read queue holds "
                           f"{state['reads']} entries but only {cap} LLC "
                           "MSHR fills can exist")
            if state["bank_queued"] != state["reads"] + state["writes"]:
                self._fail("dram",
                           f"mc{mc.channel_id} per-bank accounting "
                           f"({state['bank_queued']}) disagrees with its "
                           f"queues ({state['reads']}r+"
                           f"{state['writes']}w)")
            if state["sms_held"] != state["sms_walked"]:
                self._fail("dram",
                           f"mc{mc.channel_id} SMS live read count "
                           f"({state['sms_held']}) disagrees with its "
                           f"batches ({state['sms_walked']} entries)")
            age = state["oldest_age"]
            if age is not None and age > self.max_inflight_age:
                self._fail("dram",
                           f"mc{mc.channel_id} transaction queued for "
                           f"{age:,} ticks without service")

    def _check_gpu(self, system) -> None:
        gpu = system.gpu
        if gpu is None:
            return
        if not 0 <= gpu.outstanding <= gpu.cfg.mshr_entries:
            self._fail("gpu_occupancy",
                       f"GPU outstanding fills {gpu.outstanding} outside "
                       f"[0, {gpu.cfg.mshr_entries}]")
        if gpu._stall == "mshr" and gpu._pending_send is None:
            self._fail("gpu_occupancy",
                       "GPU stalled on MSHR backpressure with no "
                       "deferred access to retry")

    def _check_cpu(self, system) -> None:
        for core in system.cores:
            if not 0 <= core.outstanding <= core.mlp:
                self._fail("cpu_occupancy",
                           f"{core.name} outstanding loads "
                           f"{core.outstanding} outside [0, {core.mlp}]")
            if not 0 <= core.wb_used <= core.cfg.write_buffer + 1:
                self._fail("cpu_occupancy",
                           f"{core.name} write buffer {core.wb_used} "
                           f"outside [0, {core.cfg.write_buffer + 1}]")
            if core._pf_outstanding > core._pf_max_outstanding:
                self._fail("cpu_occupancy",
                           f"{core.name} prefetcher has "
                           f"{core._pf_outstanding} in flight (max "
                           f"{core._pf_max_outstanding})")

    def _qos(self):
        return getattr(self.system.policy, "qos", None)

    def _check_control(self, system) -> None:
        qos = self._qos()
        if qos is None:
            return
        frpu = qos.frpu
        # phase machinery belongs to the reference RTP extrapolator;
        # learned predictors behind the seam (rls, ewma-blend, ...)
        # have no phases to police
        if hasattr(frpu, "phase_transitions"):
            transitions = frpu.phase_transitions
            while self._phase_idx < len(transitions):
                i = self._phase_idx
                if i > 0 and transitions[i][1] is transitions[i - 1][1]:
                    self._fail("frpu_phase",
                               f"illegal self-transition to "
                               f"{transitions[i][1].value} at frame "
                               f"{transitions[i][0]} — learning and "
                               "prediction must alternate")
                self._phase_idx += 1
            from repro.predict.rtp import Phase
            if frpu.phase is Phase.PREDICTION and frpu.learned is None:
                self._fail("frpu_phase",
                           "FRPU in prediction phase with no learned "
                           "frame")

        atu = qos.atu
        if atu.ng < 1:
            self._fail("atu", f"N_G = {atu.ng} < 1")
        if atu.wg_ticks < 0:
            self._fail("atu", f"W_G = {atu.wg_ticks} ticks is negative")
        if atu.wg_ticks % atu.wg_step:
            self._fail("atu",
                       f"W_G = {atu.wg_ticks} not aligned to the "
                       f"{atu.wg_step}-tick growth step")
        if not 1 <= atu._tokens <= atu.ng:
            self._fail("atu",
                       f"token count {atu._tokens} outside [1, {atu.ng}]")
        gate_open = system.gpu is not None and system.gpu.gate is atu
        if gate_open and atu.active and atu._tokens < 1:
            self._fail("atu", "gate open with no tokens remaining")

    def _progress_signature(self, system) -> tuple:
        return (self.retired,
                sum(c.instructions for c in system.cores),
                system.gpu.frames_completed if system.gpu else 0,
                sum(sum(c._served[k].value for k in c._served)
                    for c in system.dram.controllers))

    def _check_liveness(self, system) -> None:
        sig = self._progress_signature(system)
        if sig == self._last_progress and not system._stopped:
            self._stall_count += 1
            if self._stall_count >= self.stall_checks:
                self._fail("liveness",
                           f"no forward progress (instructions, frames, "
                           f"retires, DRAM service all frozen) for "
                           f"{self._stall_count} consecutive checks "
                           f"({self._stall_count * self.interval_ticks:,}"
                           " ticks) with work pending")
        else:
            self._stall_count = 0
            self._last_progress = sig

    # -- end-of-run verification (called by HeterogeneousSystem.run) -----

    def verify_final(self) -> None:
        """Post-run check: a drained queue must mean a finished system.

        A run that stopped via :meth:`Simulator.stop` may legitimately
        leave requests in flight (the stop cuts pending completions);
        a run that *drained* with work unfinished leaked something.
        """
        system = self.system
        if system is None or system._stopped:
            return
        if self.sim.pending() == 0 and (
                system._cores_remaining > 0 or
                (system.gpu is not None and not system.gpu.stopped)):
            self._fail("deadlock",
                       "run ended by event-queue drain with unfinished "
                       f"work: {system._cores_remaining} core(s) and "
                       f"{len(self._live)} request(s) left")

    # -- reporting ---------------------------------------------------------

    def report(self) -> GuardReport:
        return GuardReport(
            checks_run=self.checks_run, issued=self.issued,
            retired=self.retired, issued_writes=self.issued_writes,
            in_flight_at_end=len(self._live),
            max_in_flight=self.max_in_flight)

    def dump(self) -> DiagnosticDump:
        """Assemble the diagnostic snapshot attached to violations."""
        system = self.system
        sim = self.sim
        now = sim.now if sim is not None else 0
        kernel: dict[str, int] = {}
        head = None
        if sim is not None:
            head = sim.head() if hasattr(sim, "head") else None
            for attr in ("_live", "_size", "_cancelled", "_seq"):
                if hasattr(sim, attr):
                    kernel[attr.lstrip("_")] = getattr(sim, attr)
        counters = {"issued": self.issued, "retired": self.retired,
                    "issued_writes": self.issued_writes,
                    "in_flight": len(self._live),
                    "checks_run": self.checks_run}
        occupancies: dict[str, Any] = {}
        control: dict[str, Any] = {}
        tail: list[dict] = []
        if system is not None:
            occupancies["llc"] = system.llc.guard_state()
            for mc in system.dram.controllers:
                occupancies[f"mc{mc.channel_id}"] = mc.guard_state()
            if system.gpu is not None:
                occupancies["gpu"] = system.gpu.guard_state()
            for core in system.cores:
                occupancies[core.name] = core.guard_state()
            qos = self._qos()
            if qos is not None:
                phase = getattr(qos.frpu, "phase", None)
                control = {
                    "predictor": qos.frpu.name,
                    "frpu_phase": phase.value if phase is not None
                    else "n/a",
                    "frpu_learned": getattr(qos.frpu, "learned", None)
                    is not None,
                    "atu": repr(qos.atu),
                    "throttling": qos.throttling,
                }
            tel = system.telemetry
            if tel is not None and getattr(tel, "records", None):
                tail = list(tel.records[-self.telemetry_tail:])
        oldest = sorted(
            ((repr(req), now - t0) for req, t0 in self._live.values()),
            key=lambda x: -x[1])[:DiagnosticDump.KEEP_OLDEST]
        return DiagnosticDump(
            tick=now, event_head=head, kernel=kernel, counters=counters,
            occupancies=occupancies, oldest_inflight=oldest,
            control=control, telemetry_tail=tail)
