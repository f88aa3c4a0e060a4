"""Golden equivalence tests: calendar-queue kernel vs the old heap kernel.

The calendar-queue :class:`Simulator` must execute callbacks in exactly
the ``(time, seq)`` order of the pre-existing single-heap kernel (kept
verbatim as :class:`ReferenceSimulator`).  Three layers of proof:

* a randomized "chaos" scenario driving every scheduling entry point
  (``at``/``after``/``at_call``/``after_call``), cancellations included,
  hashed and compared across kernels and seeds;
* full-system bit-equality — two mixes x three seeds at a tiny scale,
  every metric of the run identical under either kernel;
* closure vs closure-free scheduling and profiled vs fast-path runs
  produce identical orderings.

The chaos scenario also runs with *tickers*: per-tick pollers that park
on :meth:`Simulator.rearm_next` until a wake tick, the way the DRAM
controller does, against the reference kernel's literal per-tick
re-push.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.config import Scale, SystemConfig
from repro.mixes import mix
from repro.sim.engine import Event, ReferenceSimulator, Simulator
from repro.sim.metrics import collect
from repro.sim.system import HeterogeneousSystem

#: just enough work for every subsystem (frames, DRAM refresh, policy
#: sampling, warm-up reset) to fire, while keeping each run sub-second
TINY = Scale("tiny", gpu_frame_cycles=1200, cpu_instructions=2000,
             min_frames=2, max_frames=2, warmup_instructions=400,
             llc_bytes=64 * 1024, mem_scale=16)


# -- layer 1: randomized kernel-level scenario ---------------------------

class _Ticker:
    """A per-tick poller in miniature, shaped like the DRAM controller's
    parked poll: until ``wake`` each firing only re-arms (no log, no rng
    draw — unobservable, as on the unvisited ticks the kernel skips); at
    the wake, or once a kick marks it dirty, it runs for real."""

    __slots__ = ("ident", "ev", "wake", "dirty")

    def __init__(self, ident: int):
        self.ident = ident
        self.ev = None
        self.wake = None
        self.dirty = False


def _chaos(sim, seed: int, n_events: int = 4000, *, tickers: int = 0,
           slice_ticks: int = 10_000, paths: dict | None = None) -> str:
    """Drive one kernel through a seeded storm of schedules/cancels.

    Each callback logs ``(now, ident)`` and schedules follow-on work
    through a scheduling entry point chosen by the (seeded) rng — so the
    log hash pins down the exact execution order, including same-tick
    tie-breaking and cancellation semantics.

    With ``tickers``, that many :class:`_Ticker` pollers park every few
    ticks, and the storm and the outer loop (between ``run(until=)``
    slices of ``slice_ticks``) kick them as an enqueue kicks the DRAM
    controller: dirty while the ticker's firing for this tick is still
    pending, else cancel and re-arm at ``now``.  ``paths`` counts how
    often each ticker path was taken.  Without tickers the rng stream is
    the plain storm's.
    """
    rng = random.Random(seed)
    log: list[tuple[int, int]] = []
    cancellable: list = []
    polls = [_Ticker(-1 - i) for i in range(tickers)]
    if paths is None:
        paths = {"parks": 0, "dirty": 0, "cancel": 0}

    def tick(tk: _Ticker) -> None:
        if tk.wake is not None:
            if sim.now < tk.wake and not tk.dirty:
                sim.rearm_next(tk.ev)
                return
            tk.wake = None
            tk.dirty = False
        tk.ev = None
        log.append((sim.now, tk.ident))
        if len(log) >= n_events:
            return
        action = rng.randrange(4)
        if action < 2:              # park: re-poll every tick until a wake
            paths["parks"] += 1
            tk.wake = sim.now + rng.choice((1, 2, 3, 5, 9, 30, 200))
            sim.ensure_tick(tk.wake)
            tk.ev = Event(sim.now + 1, 0, tick, tk, None)
            sim.rearm_next(tk.ev)
        elif action == 2:           # a plain timed retry
            tk.ev = sim.after_call(rng.choice((0, 1, 4, 11)), tick, tk)
        # else: idle until kicked

    def kick(tk: _Ticker) -> None:
        ev = tk.ev
        if ev is not None and not ev.cancelled:
            if ev.time <= sim.now:
                if tk.wake is not None:
                    tk.dirty = True
                    paths["dirty"] += 1
                return
            ev.cancel()
            tk.wake = None
            paths["cancel"] += 1
        tk.ev = sim.at_call(sim.now, tick, tk)

    def fire(ident: int) -> None:
        log.append((sim.now, ident))
        if len(log) >= n_events:
            return
        for _ in range(rng.randrange(3)):
            nxt = rng.randrange(1 << 30)
            delay = rng.choice((0, 0, 1, 1, 2, 3, 7, 40, 1000))
            style = rng.randrange(4)
            if style == 0:
                ev = sim.after_call(delay, fire, nxt)
            elif style == 1:
                ev = sim.at_call(sim.now + delay, fire, nxt)
            elif style == 2:
                ev = sim.after(delay, lambda n=nxt: fire(n))
            else:
                ev = sim.at(sim.now + delay, lambda n=nxt: fire(n))
            if rng.random() < 0.25:
                cancellable.append(ev)
        if polls and rng.random() < 0.3:
            kick(polls[rng.randrange(len(polls))])
        # cancel ~half of the remembered events, sometimes twice
        while cancellable and rng.random() < 0.5:
            ev = cancellable.pop(rng.randrange(len(cancellable)))
            ev.cancel()
            if rng.random() < 0.1:
                ev.cancel()       # double-cancel must be harmless

    for ident in range(40):       # seed the queue wide
        sim.after_call(rng.randrange(50), fire, ident)
    for tk in polls:
        tk.ev = sim.after_call(rng.randrange(50), tick, tk)
    while sim.pending() and len(log) < n_events:
        sim.run(until=sim.now + slice_ticks)
        if polls:
            # between slices: schedule at the settled horizon and kick
            if rng.random() < 0.5:
                sim.after_call(rng.choice((0, 1, 2)), fire,
                               rng.randrange(99))
            if rng.random() < 0.5:
                kick(polls[rng.randrange(len(polls))])
    return hashlib.sha256(repr(log).encode()).hexdigest()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaos_order_matches_reference(seed):
    assert _chaos(Simulator(), seed) == _chaos(ReferenceSimulator(), seed)


def test_chaos_order_is_seed_sensitive():
    # the scenario actually exercises distinct orders per seed —
    # otherwise the cross-kernel comparison above would prove nothing
    assert _chaos(Simulator(), 1) != _chaos(Simulator(), 2)


class _LandingCounter(Simulator):
    """Counts which branch of the run loop's landing each float took."""

    def __init__(self) -> None:
        super().__init__()
        self.landed = {"first": 0, "after": 0}

    def _land(self, bucket, t):
        self.landed["first" if t == self.now + 1 else "after"] += 1
        super()._land(bucket, t)


@pytest.mark.parametrize("slice_ticks", [3, 50, 10_000])
def test_ticker_rearm_matches_literal_per_tick_chain(slice_ticks):
    landed = {"first": 0, "after": 0}
    paths = {"parks": 0, "dirty": 0, "cancel": 0}
    for seed in range(20):
        sim = _LandingCounter()
        new = _chaos(sim, seed, tickers=3, slice_ticks=slice_ticks,
                     paths=paths)
        ref = _chaos(ReferenceSimulator(), seed, tickers=3,
                     slice_ticks=slice_ticks)
        assert new == ref, f"seed {seed}: order diverged"
        for k in landed:
            landed[k] += sim.landed[k]
    # both landing branches and both kick outcomes were exercised
    assert min(landed.values()) > 0, landed
    assert min(paths.values()) > 0, paths


@pytest.mark.parametrize("slice_ticks", [3, 50, 10_000])
def test_profiled_ticker_run_matches_fast_path(slice_ticks):
    prof_sim = Simulator()
    prof_sim.enable_profiling()
    assert (_chaos(prof_sim, 5, tickers=3, slice_ticks=slice_ticks)
            == _chaos(Simulator(), 5, tickers=3, slice_ticks=slice_ticks))


def test_floating_events_are_counted_live():
    sim = Simulator()
    ev = Event(0, 0, lambda _: None, None, None)
    sim.rearm_next(ev)                 # tick 1 has no bucket: it floats
    assert (sim.pending(), sim._size) == (1, 1)
    assert sim.head() is None
    ev.cancel()
    assert (sim.pending(), sim._size, sim._cancelled) == (0, 1, 1)


# -- layer 2: full-system bit-equality -----------------------------------

def _run_system(mix_name: str, seed: int, sim) -> dict:
    m = mix(mix_name)
    cfg = SystemConfig(n_cpus=m.n_cpus, scale=TINY, seed=seed)
    system = HeterogeneousSystem(cfg, m, sim=sim)
    system.run()
    out = dataclasses.asdict(collect(system))
    out["final_tick"] = system.sim.now
    return out


@pytest.mark.parametrize("mix_name", ["W8", "M7"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_system_bit_equal_across_kernels(mix_name, seed):
    new = _run_system(mix_name, seed, Simulator())
    ref = _run_system(mix_name, seed, ReferenceSimulator())
    assert new == ref


# -- layer 3: scheduling-style and profiling equivalence -----------------

class _ClosureOnlySimulator(Simulator):
    """Routes at_call/after_call through closures, as pre-PR code did."""

    def at_call(self, time, fn, arg):
        return self.at(time, lambda: fn(arg))

    def after_call(self, delay, fn, arg):
        return self.after(delay, lambda: fn(arg))


def test_closure_free_matches_closure_scheduling():
    new = _run_system("W8", 1, Simulator())
    old_style = _run_system("W8", 1, _ClosureOnlySimulator())
    assert new == old_style


def test_profiled_run_matches_fast_path():
    fast = _chaos(Simulator(), 7)
    prof_sim = Simulator()
    prof = prof_sim.enable_profiling()
    assert _chaos(prof_sim, 7) == fast
    assert prof.events > 0
    assert prof.run_time > 0.0
    assert any(".fire" in k or "fire" in k for k in prof.by_owner)


def test_profiled_system_bit_equal():
    prof_sim = Simulator()
    prof_sim.enable_profiling()
    assert _run_system("W8", 2, prof_sim) == _run_system("W8", 2,
                                                         Simulator())
