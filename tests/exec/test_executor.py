"""Integration tests for the batch executor: parallel-vs-serial
equivalence, persistent caching, failure surfacing."""

import multiprocessing as mp

import pytest

from repro.exec import (BatchError, ResultCache, RunSpec, counters,
                        default_jobs, mix_spec, reset_counters, run_cached,
                        run_many, standalone_cpu_spec)
from repro.exec import executor as executor_mod

SPECS = [mix_spec("W8", "baseline", "smoke", 1),
         standalone_cpu_spec(403, "smoke", 1)]

HAVE_FORK = "fork" in mp.get_all_start_methods()


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=str(tmp_path), salt="test-salt")


@pytest.mark.parametrize("raw", ["two", "1.5", "-"])
def test_malformed_jobs_env_is_refused(raw, monkeypatch):
    """A ``REPRO_JOBS`` that is not an integer is an error naming the
    variable and its value, not a silent serial run."""
    monkeypatch.setenv("REPRO_JOBS", raw)
    with pytest.raises(ValueError, match=f"REPRO_JOBS.*{raw!r}"):
        default_jobs()


def test_serial_results_in_input_order(cache):
    outcomes = run_many(SPECS, jobs=1, cache=cache)
    assert [o.spec for o in outcomes] == SPECS
    assert all(o.ok and o.source == "run" for o in outcomes)
    assert outcomes[0].result.mix_name == "W8"
    assert outcomes[1].result.cpu_apps == (403,)
    assert all(o.elapsed > 0 for o in outcomes)


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_parallel_matches_serial_bit_for_bit(tmp_path):
    serial = run_many(SPECS, jobs=1,
                      cache=ResultCache(root=str(tmp_path / "a"),
                                        salt="s"))
    par = run_many(SPECS, jobs=2,
                   cache=ResultCache(root=str(tmp_path / "b"), salt="s"))
    for s, p in zip(serial, par):
        assert p.ok, p.error
        assert s.result == p.result


def test_duplicate_specs_run_once(cache):
    reset_counters()
    outcomes = run_many([SPECS[0], SPECS[0]], jobs=1, cache=cache)
    assert counters["executed"] == 1
    assert outcomes[0].result == outcomes[1].result
    assert outcomes[0].result is not outcomes[1].result


def test_second_pass_served_from_disk_with_zero_executions(tmp_path):
    """Acceptance: a repeated batch re-executes nothing — every result
    comes back from the persistent layer, numerically identical."""
    first = run_many(SPECS, jobs=1,
                     cache=ResultCache(root=str(tmp_path), salt="s"))
    reset_counters()
    # a fresh cache object over the same directory: memory layer empty
    again = run_many(SPECS, jobs=1,
                     cache=ResultCache(root=str(tmp_path), salt="s"))
    assert counters["executed"] == 0
    assert [o.source for o in again] == ["disk", "disk"]
    for a, b in zip(first, again):
        assert a.result == b.result


def test_salt_change_invalidates_disk(tmp_path):
    run_many(SPECS[:1], jobs=1,
             cache=ResultCache(root=str(tmp_path), salt="s"))
    reset_counters()
    run_many(SPECS[:1], jobs=1,
             cache=ResultCache(root=str(tmp_path), salt="s2"))
    assert counters["executed"] == 1     # stale entry not served


def test_failure_is_surfaced_not_poisoning(cache):
    bad = RunSpec(mix="W8", policy="no-such-policy", scale="smoke")
    outcomes = run_many([SPECS[0], bad], jobs=1, cache=cache)
    assert outcomes[0].ok
    assert not outcomes[1].ok
    assert outcomes[1].result is None
    assert "no-such-policy" in outcomes[1].error
    with pytest.raises(BatchError) as exc:
        run_many([bad], jobs=1, cache=cache, strict=True)
    assert "no-such-policy" in str(exc.value)


def _suicidal_worker(conn, spec):    # module-level so it pickles
    import os
    os._exit(17)                     # simulates a segfaulting worker


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_worker_crash_falls_back_to_in_process_retry(cache, monkeypatch):
    """A worker process dying outright must not sink the batch."""
    monkeypatch.setattr(executor_mod, "_task_worker", _suicidal_worker)
    outcomes = run_many(SPECS, jobs=2, cache=cache)
    assert all(o.ok for o in outcomes), \
        [o.error for o in outcomes if not o.ok]


def test_run_cached_copies_and_counts(cache):
    reset_counters()
    a = run_cached(SPECS[0], cache=cache)
    assert counters["executed"] == 1
    b = run_cached(SPECS[0], cache=cache)
    assert counters["executed"] == 1     # served from cache
    assert a == b and a is not b
    a.cpu_ipcs[0] = -1.0                 # corrupting a copy is harmless
    assert run_cached(SPECS[0], cache=cache).cpu_ipcs[0] != -1.0


def test_progress_callback_sees_every_slot(cache):
    seen = []
    run_many(SPECS, jobs=1, cache=cache,
             progress=lambda out, i, total: seen.append((i, total,
                                                         out.source)))
    assert sorted(i for i, _t, _s in seen) == [0, 1]
    assert all(t == 2 for _i, t, _s in seen)
    seen2 = []
    run_many(SPECS, jobs=1, cache=cache,
             progress=lambda out, i, total: seen2.append(out.source))
    assert seen2 == ["memory", "memory"]
