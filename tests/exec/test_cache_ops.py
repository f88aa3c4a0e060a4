"""Cache maintenance: LRU-by-atime pruning and persisted counters."""

import json
import os

import pytest

from repro.__main__ import main
from repro.exec import ResultCache
from repro.exec.cache import STATS_FILE
from repro.exec.specs import standalone_cpu_spec

SPEC = standalone_cpu_spec(403, "smoke")


@pytest.fixture
def store(tmp_path):
    cache = ResultCache(root=str(tmp_path), salt="ops")
    result = SPEC.run()
    return cache, result


def _fill(cache, result, n):
    """Persist n distinct entries; returns their paths oldest-atime
    first (entry i is the least recently used)."""
    paths = []
    for seed in range(1, n + 1):
        spec = standalone_cpu_spec(403, "smoke", seed)
        cache.put(spec, result)
        path = cache.path_for(cache.key_for(spec))
        os.utime(path, (1_000_000_000 + seed, 1_000_000_000 + seed))
        paths.append(path)
    return paths


def test_entries_reports_size_and_atime(store):
    cache, result = store
    paths = _fill(cache, result, 3)
    entries = cache.entries()
    assert sorted(p for p, _, _ in entries) == sorted(paths)
    assert all(size > 0 for _, size, _ in entries)
    by_path = {p: at for p, _, at in entries}
    assert by_path[paths[0]] < by_path[paths[1]] < by_path[paths[2]]


def test_prune_evicts_least_recently_used_first(store):
    cache, result = store
    paths = _fill(cache, result, 4)
    per_entry = cache.entries()[0][1]
    # cap leaves room for roughly two entries
    removed, freed = cache.prune(max_bytes=2 * per_entry + 1)
    assert removed == 2
    assert freed >= 2 * per_entry
    assert not os.path.exists(paths[0])        # oldest atime: evicted
    assert not os.path.exists(paths[1])
    assert os.path.exists(paths[2])            # recently used: survive
    assert os.path.exists(paths[3])
    assert cache.stats.pruned == 2


def test_prune_noop_when_under_cap(store):
    cache, result = store
    paths = _fill(cache, result, 2)
    assert cache.prune(max_bytes=10**9) == (0, 0)
    assert all(os.path.exists(p) for p in paths)


def test_prune_removes_debris_first(store, tmp_path):
    cache, result = store
    _fill(cache, result, 1)
    (tmp_path / "half-write.tmp").write_bytes(b"x" * 64)
    (tmp_path / "bad-entry.pkl.corrupt").write_bytes(b"y" * 64)
    removed, _ = cache.prune(max_bytes=10**9)
    assert removed == 2                        # debris, not results
    assert not (tmp_path / "half-write.tmp").exists()
    assert not (tmp_path / "bad-entry.pkl.corrupt").exists()
    assert cache.entries()                     # the real entry survived


def test_persist_stats_accumulates_across_processes(store, tmp_path):
    cache, result = store
    cache.put(SPEC, result)
    cache.get(SPEC)                            # memory hit
    totals = cache.persist_stats()
    assert totals["stores"] == 1
    assert totals["memory_hits"] == 1

    # a second "process" (fresh object, same store) folds its deltas in
    other = ResultCache(root=str(tmp_path), salt="ops")
    other.get(SPEC)                            # disk hit
    other.get(standalone_cpu_spec(429, "smoke"))   # miss
    totals = other.persist_stats()
    assert totals["disk_hits"] == 1
    assert totals["misses"] == 1
    assert totals["stores"] == 1               # first process's, kept

    # persisting twice must not double-count the same deltas
    assert other.persist_stats()["disk_hits"] == 1
    assert cache.persisted_stats() == totals


def test_persisted_stats_tolerates_missing_or_corrupt_file(store,
                                                           tmp_path):
    cache, _ = store
    assert cache.persisted_stats()["stores"] == 0
    (tmp_path / STATS_FILE).write_text("{not json")
    assert cache.persisted_stats()["stores"] == 0


def test_cli_cache_stats_and_prune(store, tmp_path, capsys):
    from repro.exec import set_shared_cache

    cache, result = store
    prev = set_shared_cache(cache)      # the CLI's process-wide cache
    try:
        _fill(cache, result, 3)
        cache.get(SPEC)
        cache.persist_stats()

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "stores:" in out and "hit rate" in out

        per_entry = cache.entries()[0][1]
        cap_mb = (2 * per_entry + 1) / 1e6
        assert main(["cache", "prune", "--max-size", str(cap_mb)]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 file(s)" in out
        assert len(ResultCache(root=str(tmp_path),
                               salt="ops").entries()) == 2
    finally:
        set_shared_cache(prev)


def test_cli_cache_prune_requires_max_size(store, capsys):
    from repro.exec import set_shared_cache

    cache, _ = store
    prev = set_shared_cache(cache)
    try:
        assert main(["cache", "prune"]) == 2
    finally:
        set_shared_cache(prev)


def test_cli_commands_feed_cache_stats(tmp_path, monkeypatch, capsys):
    """Every CLI command folds its counters into the store when it
    returns, so ``cache stats`` sees a repeated ``compare`` as hits."""
    from repro.exec import set_shared_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["compare", "--mix", "W8", "--policies", "baseline",
            "--scale", "smoke"]
    store = ResultCache(root=str(tmp_path))
    prev = set_shared_cache(None)       # rebuilt from REPRO_CACHE_DIR
    try:
        assert main(argv) == 0
        first = store.persisted_stats()
        set_shared_cache(None)          # the next command's own process
        assert main(argv) == 0
        second = store.persisted_stats()
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
    finally:
        set_shared_cache(prev)
    assert first["misses"] > 0 and first["stores"] == first["misses"]
    assert first["disk_hits"] == 0
    # the repeat simulated nothing: every miss of the first call is a
    # disk hit now
    assert second["misses"] == first["misses"]
    assert second["stores"] == first["stores"]
    assert second["disk_hits"] == first["misses"]
    hits = second["memory_hits"] + second["disk_hits"]
    out = capsys.readouterr().out
    assert f"hits:       {hits} (memory {second['memory_hits']}, " \
           f"disk {second['disk_hits']})" in out
