"""Batch execution: fan independent runs across cores, cache everything.

:func:`run_many` is the substrate the figure benches, the sweep utility
and the CLI route through.  Independent ``RunSpec``s are deduplicated,
looked up in the shared :class:`~repro.exec.cache.ResultCache`, and the
misses executed — serially, or across worker processes when ``jobs > 1``.
Results come back in input order regardless of completion order, and a
failed run reports its spec and traceback in its :class:`RunOutcome`
instead of poisoning the rest of the batch.

Hardened execution semantics (see ``docs/robustness.md``):

* **Per-run timeouts** — ``timeout`` seconds of wall clock per attempt;
  a worker that exceeds it is terminated (then killed) and the slot
  reports a timeout error instead of wedging the batch.
* **Bounded retry with exponential backoff** — worker *death* (crash,
  OOM-kill, timeout) is retried up to ``retries`` times, waiting
  ``backoff * 2**(attempt-1)`` seconds between attempts.  Ordinary
  exceptions are deterministic and fail immediately.
* **Interrupt salvage** — SIGINT/SIGTERM mid-batch terminates the
  workers, keeps every completed (and cached) result, marks unfinished
  slots, and raises :class:`BatchInterrupted` carrying the partial
  outcome list; a re-run re-executes nothing that completed.

The serial path (``jobs <= 1`` with no timeout/retries) runs specs
in-process in input order, bit-identically to calling ``spec.run()``
yourself.

``REPRO_JOBS`` sets the default fan-out (``0`` means one worker per
core); unset it defaults to 1, keeping unit tests and casual callers on
the bit-identical serial path.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, TYPE_CHECKING

from repro.exec.cache import ResultCache
from repro.exec.specs import RunSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.metrics import RunResult

JOBS_ENV = "REPRO_JOBS"

#: simulations actually executed by this process (cache hits excluded);
#: tests assert on this to prove a batch was served entirely from cache
counters = {"executed": 0}


def reset_counters() -> None:
    counters["executed"] = 0


def default_jobs() -> int:
    """Fan-out from ``REPRO_JOBS``: unset -> 1 (serial), 0 -> one per core.

    A value that is not an integer raises ``ValueError``.
    """
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{JOBS_ENV} must be an integer worker count, "
                         f"got {raw!r}") from None
    if n <= 0:
        return os.cpu_count() or 1
    return n


# -- the shared cache singleton ----------------------------------------------

_shared_cache: Optional[ResultCache] = None


def shared_cache() -> ResultCache:
    global _shared_cache
    if _shared_cache is None:
        _shared_cache = ResultCache()
    return _shared_cache


def set_shared_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Swap the process-wide cache (tests, CLI ``--cache-dir``);
    returns the previous one."""
    global _shared_cache
    old = _shared_cache
    _shared_cache = cache
    return old


def clear_caches(disk: bool = False) -> None:
    """Drop the memory layer; ``disk=True`` also wipes persisted results."""
    c = shared_cache()
    c.clear_memory()
    if disk:
        c.clear_disk()


# -- outcomes ----------------------------------------------------------------

@dataclass
class RunOutcome:
    """One batch slot: either a result or the failure that replaced it."""

    spec: RunSpec
    result: Optional["RunResult"]
    error: Optional[str] = None        # formatted traceback on failure
    elapsed: float = 0.0               # wall seconds (0 for cache hits)
    source: str = "run"                # "run" | "memory" | "disk" | "error"
    attempts: int = 1                  # executions tried for this slot

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchError(RuntimeError):
    """Raised by ``run_many(strict=True)`` when any spec failed."""

    def __init__(self, outcomes: List[RunOutcome]):
        self.failures = [o for o in outcomes if not o.ok]
        labels = ", ".join(o.spec.label for o in self.failures)
        first = self.failures[0].error or ""
        super().__init__(
            f"{len(self.failures)} run(s) failed: {labels}\n{first}")


class BatchInterrupted(RuntimeError):
    """SIGINT/SIGTERM cut the batch short; completed work is salvaged.

    ``outcomes`` aligns with the input specs: finished slots carry their
    results (already persisted to the cache), unfinished slots carry an
    ``"interrupted"`` error.  Re-running the same batch re-executes only
    the unfinished slots — the finished ones come back as cache hits.
    """

    def __init__(self, outcomes: List[RunOutcome]):
        self.outcomes = outcomes
        self.completed = sum(1 for o in outcomes if o.ok)
        super().__init__(
            f"batch interrupted: {self.completed}/{len(outcomes)} "
            "run(s) completed and salvaged")


# -- worker-side entry points ------------------------------------------------

def _task_worker(conn, spec) -> None:
    """Child-process body: run one spec, ship the outcome over the pipe.

    Never raises: errors travel as data.  A crash (SIGKILL, segfault)
    closes the pipe without a message — the parent reads EOF and treats
    it as worker death.
    """
    t0 = time.perf_counter()
    try:
        result = spec.run()
        payload = (True, result, time.perf_counter() - t0)
    except BaseException:
        payload = (False, traceback.format_exc(),
                   time.perf_counter() - t0)
    try:
        conn.send(payload)
    except Exception:
        # result not picklable (or pipe gone): report, don't crash
        try:
            conn.send((False, traceback.format_exc(),
                       time.perf_counter() - t0))
        except Exception:
            pass
    finally:
        conn.close()


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def run_cached(spec: RunSpec,
               cache: Optional[ResultCache] = None) -> "RunResult":
    """One spec through the cache; executes (and stores) on a miss.

    Always returns a defensive copy — mutating it cannot corrupt what
    later callers receive.
    """
    cache = cache or shared_cache()
    hit, _source = cache.get(spec)
    if hit is not None:
        return hit
    counters["executed"] += 1
    result = spec.run()
    cache.put(spec, result)           # put() stores its own deep copy
    return result


Progress = Callable[[RunOutcome, int, int], None]


class _Task:
    """One unique spec moving through the process manager."""

    __slots__ = ("key", "spec", "attempts", "not_before", "proc",
                 "conn", "deadline")

    def __init__(self, key: str, spec):
        self.key = key
        self.spec = spec
        self.attempts = 0
        self.not_before = 0.0          # monotonic launch gate (backoff)
        self.proc = None
        self.conn = None
        self.deadline = None           # monotonic timeout for this attempt


def _sigterm_to_interrupt():
    """Install a SIGTERM->KeyboardInterrupt handler (main thread only).

    Returns a restore callable.  Off the main thread (or on platforms
    without SIGTERM) this is a no-op — the interrupt-salvage path then
    only covers SIGINT.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    try:
        prev = signal.getsignal(signal.SIGTERM)
        if prev is None:
            # a non-Python handler is installed (set by C code or an
            # embedding application): getsignal() cannot describe it, so
            # it cannot be restored — signal.signal(..., None) raises
            # TypeError, which would have fired from run_many's
            # ``finally`` and masked the batch outcome.  Leave the
            # foreign handler alone; salvage then only covers SIGINT.
            return lambda: None

        def handler(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, handler)
        return lambda: signal.signal(signal.SIGTERM, prev)
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        return lambda: None


def run_many(specs: Iterable[RunSpec], jobs: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             progress: Optional[Progress] = None,
             strict: bool = False,
             timeout: Optional[float] = None,
             retries: int = 0,
             backoff: float = 0.5) -> List[RunOutcome]:
    """Run a batch of independent specs; outcomes align with input order.

    Identical specs are executed once.  Cache hits (memory or disk) skip
    execution entirely.  ``jobs=None`` takes :func:`default_jobs`;
    ``jobs > 1`` fans misses across worker processes.  ``timeout`` caps
    each attempt's wall-clock seconds; worker death and timeouts are
    retried up to ``retries`` times with exponential backoff (base
    ``backoff`` seconds).  With ``strict=True`` a :class:`BatchError`
    is raised if any spec failed.  SIGINT/SIGTERM raises
    :class:`BatchInterrupted` after salvaging completed results.
    """
    specs = list(specs)
    cache = cache or shared_cache()
    jobs = default_jobs() if jobs is None else max(int(jobs), 1)
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive seconds (or None)")
    if retries < 0 or backoff < 0:
        raise ValueError("retries and backoff must be >= 0")
    total = len(specs)
    outcomes: List[Optional[RunOutcome]] = [None] * total
    todo: dict = {}                    # unique key -> input indices
    order: List[tuple] = []            # (key, spec) in first-seen order

    def report(out: RunOutcome, i: int) -> None:
        if progress is not None:
            progress(out, i, total)

    for i, spec in enumerate(specs):
        hit, source = cache.get(spec)
        if hit is not None:
            outcomes[i] = RunOutcome(spec, hit, source=source)
            report(outcomes[i], i)
            continue
        key = cache.key_for(spec)
        if key not in todo:
            todo[key] = []
            order.append((key, spec))
        todo[key].append(i)

    def finish(key: str, spec, ok: bool, payload,
               elapsed: float, attempts: int = 1) -> None:
        if ok:
            cache.put(spec, payload)
            indices = todo[key]
            for j, i in enumerate(indices):
                # first slot takes the freshly-computed object (already
                # independent of the cached copy); duplicates get copies
                res = payload if j == 0 else cache.get(spec)[0]
                outcomes[i] = RunOutcome(spec, res, elapsed=elapsed,
                                         source="run", attempts=attempts)
                report(outcomes[i], i)
        else:
            for i in todo[key]:
                outcomes[i] = RunOutcome(spec, None, error=payload,
                                         elapsed=elapsed, source="error",
                                         attempts=attempts)
                report(outcomes[i], i)

    def salvage() -> None:
        """Mark every unfinished slot; completed ones are already in."""
        for i, spec in enumerate(specs):
            if outcomes[i] is None:
                outcomes[i] = RunOutcome(spec, None, error="interrupted",
                                         source="error")

    def run_serial(key: str, spec) -> None:
        t0 = time.perf_counter()
        counters["executed"] += 1
        try:
            result = spec.run()
        except Exception:
            finish(key, spec, False, traceback.format_exc(),
                   time.perf_counter() - t0)
        else:
            finish(key, spec, True, result, time.perf_counter() - t0)

    restore = _sigterm_to_interrupt()
    try:
        if timeout is None and retries == 0 and \
                (jobs <= 1 or len(order) <= 1):
            for key, spec in order:
                run_serial(key, spec)
        else:
            # legacy resilience: with no explicit hardening options, a
            # worker that dies outright is retried in-process so one
            # crash doesn't sink the batch.  With timeout/retries set,
            # failures are reported as outcomes instead (an in-process
            # retry of a crashing or hanging spec would take the parent
            # down with it).
            fallback = run_serial \
                if timeout is None and retries == 0 else None
            _run_managed(order, finish, jobs, timeout, retries, backoff,
                         fallback)
    except KeyboardInterrupt:
        salvage()
        raise BatchInterrupted(
            [o for o in outcomes if o is not None]) from None
    finally:
        restore()

    done: List[RunOutcome] = [o for o in outcomes if o is not None]
    assert len(done) == total, "executor lost a batch slot"
    if strict and any(not o.ok for o in done):
        raise BatchError(done)
    return done


def _run_managed(order: List[tuple], finish, jobs: int,
                 timeout: Optional[float], retries: int,
                 backoff: float, fallback=None) -> None:
    """Process manager: one child per attempt, so a hung or crashed
    worker can be terminated without sinking its siblings.

    A ``ProcessPoolExecutor`` cannot kill one wedged worker (the pool
    breaks as a unit), so timeouts require owning the processes: each
    attempt gets a fresh ``mp.Process`` and a result pipe, and the
    parent multiplexes over the pipes with ``connection.wait``.
    """
    ctx = _mp_context()
    pending = [_Task(key, spec) for key, spec in order]
    running: List[_Task] = []

    def launch(task: _Task) -> None:
        task.attempts += 1
        counters["executed"] += 1
        parent, child = ctx.Pipe(duplex=False)
        task.conn = parent
        task.proc = ctx.Process(target=_task_worker,
                                args=(child, task.spec), daemon=True)
        task.proc.start()
        child.close()                  # parent keeps only its end
        task.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        running.append(task)

    def reap(task: _Task) -> None:
        if task.proc is not None:
            task.proc.join(timeout=5)
            if task.proc.is_alive():   # pragma: no cover
                task.proc.kill()
                task.proc.join()
        if task.conn is not None:
            task.conn.close()
        task.proc = task.conn = task.deadline = None

    def kill(task: _Task) -> None:
        if task.proc is not None and task.proc.is_alive():
            task.proc.terminate()
            task.proc.join(timeout=2)
            if task.proc.is_alive():
                task.proc.kill()
        reap(task)

    def retry_or_fail(task: _Task, why: str) -> None:
        if task.attempts <= retries:
            delay = backoff * (2 ** (task.attempts - 1))
            task.not_before = time.monotonic() + delay
            pending.append(task)
        elif fallback is not None and why == "worker died":
            counters["executed"] -= 1   # run_serial counts its own
            fallback(task.key, task.spec)
        else:
            finish(task.key, task.spec, False,
                   f"{why} (after {task.attempts} attempt(s))",
                   0.0, attempts=task.attempts)

    try:
        while pending or running:
            now = time.monotonic()
            # launch everything runnable up to the fan-out limit
            i = 0
            while i < len(pending) and len(running) < jobs:
                if pending[i].not_before <= now:
                    launch(pending.pop(i))
                else:
                    i += 1
            # pick the earliest wake-up: a result, a timeout, a backoff
            waits = [t.deadline for t in running
                     if t.deadline is not None]
            if pending and len(running) < jobs:
                waits.extend(t.not_before for t in pending)
            wait_for = max(min(min((w - now for w in waits),
                                   default=1.0), 1.0), 0.01)
            if running:
                ready = multiprocessing.connection.wait(
                    [t.conn for t in running], timeout=wait_for)
            else:
                time.sleep(wait_for)   # everything is backing off
                ready = []
            for conn in ready:
                task = next(t for t in running if t.conn is conn)
                running.remove(task)
                try:
                    ok, payload, elapsed = conn.recv()
                except (EOFError, OSError):
                    reap(task)
                    retry_or_fail(task, "worker died")
                    continue
                reap(task)
                finish(task.key, task.spec, ok, payload, elapsed,
                       attempts=task.attempts)
            if timeout is None:
                continue
            now = time.monotonic()
            for task in [t for t in running
                         if t.deadline is not None and t.deadline <= now]:
                running.remove(task)
                kill(task)
                retry_or_fail(
                    task, f"timed out after {timeout:g}s wall clock")
    except BaseException:
        # interrupt or internal error: reap every child before leaving
        for task in running:
            kill(task)
        raise
