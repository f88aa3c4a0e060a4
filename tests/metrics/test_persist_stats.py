"""The persist_stats read-merge-write is race-free: two writers on one
store never lose each other's deltas (the pre-fix behaviour was
last-writer-wins)."""

import threading

import pytest

from repro.exec.cache import ResultCache

try:
    import fcntl                                    # noqa: F401
    HAVE_FLOCK = True
except ImportError:                                 # pragma: no cover
    HAVE_FLOCK = False

pytestmark = pytest.mark.skipif(
    not HAVE_FLOCK, reason="persist_stats locking needs fcntl")


def test_single_writer_accumulates(tmp_path):
    root = str(tmp_path / "store")
    cache = ResultCache(root=root, salt="t")
    cache.stats.misses = 3
    merged = cache.persist_stats()
    assert merged["misses"] == 3
    # second call with no new activity is a no-op
    assert cache.persist_stats()["misses"] == 3
    cache.stats.misses = 5
    assert cache.persist_stats()["misses"] == 5
    assert ResultCache(root=root, salt="t").persisted_stats()["misses"] == 5


def test_nothing_written_without_new_counts_or_disk_layer(tmp_path,
                                                          monkeypatch):
    """The CLI persists after every command, so a command that used no
    cache, or ran with ``REPRO_CACHE=0``, must not create the store."""
    root = tmp_path / "store"
    cache = ResultCache(root=str(root), salt="t")
    assert cache.persist_stats()["misses"] == 0
    cache.stats.misses = 1
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert cache.persist_stats()["misses"] == 0
    assert not root.exists()
    monkeypatch.delenv("REPRO_CACHE")
    assert cache.persist_stats()["misses"] == 1


def test_two_writer_race_loses_nothing(tmp_path):
    """Many concurrent writers, each folding its own delta in
    repeatedly; the store total must equal the sum of every delta."""
    root = str(tmp_path / "store")
    writers, rounds, per_round = 4, 25, 2
    barrier = threading.Barrier(writers)
    errors = []

    def writer():
        cache = ResultCache(root=root, salt="t")
        try:
            barrier.wait(timeout=30)
            for _ in range(rounds):
                cache.stats.misses += per_round
                cache.stats.stores += 1
                cache.persist_stats()
        except Exception as exc:       # pragma: no cover - diagnostics
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    totals = ResultCache(root=root, salt="t").persisted_stats()
    assert totals["misses"] == writers * rounds * per_round
    assert totals["stores"] == writers * rounds
