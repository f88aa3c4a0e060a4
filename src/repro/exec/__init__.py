"""Experiment execution: batch runner + persistent result cache.

Public surface::

    from repro.exec import RunSpec, mix_spec, run_cached, run_many

    outcomes = run_many([mix_spec("M7", p, "test") for p in policies],
                        jobs=8)
    for out in outcomes:
        assert out.ok, out.error

See :mod:`repro.exec.executor` and :mod:`repro.exec.cache` for the
execution and caching semantics, and ``docs/architecture.md`` for how
the analysis / benchmark layers route through this package.
"""

from repro.exec.cache import (CacheIntegrityWarning, CacheStats,
                              ResultCache, code_salt)
from repro.exec.executor import (BatchError, BatchInterrupted, RunOutcome,
                                 clear_caches, counters, default_jobs,
                                 reset_counters, run_cached, run_many,
                                 set_shared_cache, shared_cache)
from repro.exec.specs import (RunSpec, mix_spec, standalone_cpu_spec,
                              standalone_gpu_spec)

__all__ = [
    "BatchError", "BatchInterrupted", "CacheIntegrityWarning",
    "CacheStats", "ResultCache", "RunOutcome", "RunSpec",
    "clear_caches", "code_salt", "counters", "default_jobs",
    "mix_spec", "reset_counters",
    "run_cached", "run_many", "set_shared_cache", "shared_cache",
    "standalone_cpu_spec", "standalone_gpu_spec",
]
