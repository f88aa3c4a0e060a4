"""Persistent result cache for simulation runs.

Two layers back :func:`repro.exec.run_cached` / :func:`repro.exec.run_many`:

* an in-process **memory** layer (a dict of pristine ``RunResult``s), and
* an on-disk **pickle** layer under ``.repro_cache/`` that survives
  between invocations, so a bench session only pays for runs no previous
  session has done.

Keys are ``RunSpec.key(salt)`` where the salt folds in a digest of the
package's own source tree (:func:`code_salt`): editing any ``repro``
module silently invalidates every persisted result, so a stale cache can
never masquerade as fresh simulation output.  Both layers hand out
defensive deep copies — callers may mutate what they get back without
corrupting another figure's normalisation baseline.

Disk integrity: every cache file is ``magic + sha256(payload) +
payload`` and writes are atomic (``mkstemp`` + ``os.replace``), so a
reader never sees a partial write, and a torn or bit-rotted file fails
its content checksum instead of half-loading.  A file that fails the
check is *quarantined* (renamed to ``*.corrupt``), a
:class:`CacheIntegrityWarning` is issued, and the lookup reports a miss
— the result is recomputed and re-stored.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default ``.repro_cache``)
* ``REPRO_CACHE=0`` — disable the disk layer (memory layer stays)
* ``REPRO_CACHE_SALT`` — override the code-version salt (testing)
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

try:
    import fcntl
except ImportError:                    # pragma: no cover - non-POSIX
    fcntl = None

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.specs import RunSpec
    from repro.sim.metrics import RunResult

DEFAULT_DIR = ".repro_cache"
DIR_ENV = "REPRO_CACHE_DIR"
DISABLE_ENV = "REPRO_CACHE"
SALT_ENV = "REPRO_CACHE_SALT"

#: bump to invalidate every existing cache file regardless of source state
_FORMAT = 2

#: on-disk header: magic (format v2) + 32-byte SHA-256 of the payload
_MAGIC = b"RPRC\x02\n"
_DIGEST_LEN = 32

_OFF_VALUES = ("0", "off", "no", "false")


class CacheIntegrityWarning(UserWarning):
    """A persisted result failed its content checksum and was
    quarantined (renamed to ``*.corrupt``) instead of half-loaded."""


def _source_digest() -> str:
    """SHA-256 over the package's own source files (path + content)."""
    import repro
    root = os.path.dirname(os.path.abspath(repro.__file__))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            h.update(rel.encode("utf-8"))
            try:
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(fh.read())
            except OSError:
                continue
    return h.hexdigest()


_source_digest_memo: Optional[str] = None


def code_salt() -> str:
    """The code-version salt mixed into every cache key.

    ``REPRO_CACHE_SALT`` overrides it (used by tests to exercise
    invalidation); otherwise it is a digest of the installed source tree,
    computed once per process.
    """
    env = os.environ.get(SALT_ENV)
    if env:
        return env
    global _source_digest_memo
    if _source_digest_memo is None:
        _source_digest_memo = _source_digest()[:16]
    return f"v{_FORMAT}-{_source_digest_memo}"


@dataclass
class CacheStats:
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0                  # files quarantined on checksum fail
    pruned: int = 0                   # files evicted by prune()


#: file at the store root that accumulates counters across processes —
#: every client of a shared ``.repro_cache/`` folds its deltas in via
#: ``persist_stats()``, so ``cache stats`` reports store-wide totals
STATS_FILE = "stats.json"


class ResultCache:
    """Memory + disk result cache, keyed by ``RunSpec.key(salt)``."""

    def __init__(self, root: Optional[str] = None,
                 salt: Optional[str] = None):
        if root is None:
            root = os.environ.get(DIR_ENV) or DEFAULT_DIR
        self.root = root
        self._salt = salt
        self._memory: dict = {}
        self.stats = CacheStats()
        #: counters already folded into the store's stats.json by a
        #: previous persist_stats() call (so deltas aren't double-counted)
        self._persisted = CacheStats()

    @property
    def salt(self) -> str:
        return self._salt if self._salt is not None else code_salt()

    def disk_enabled(self) -> bool:
        return os.environ.get(DISABLE_ENV, "1").lower() not in _OFF_VALUES

    def key_for(self, spec: "RunSpec") -> str:
        return spec.key(self.salt)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    # -- lookup / store -----------------------------------------------------

    def _quarantine(self, path: str, why: str) -> None:
        """Move a damaged cache file aside and warn — loudly, never
        silently: a half-loaded result would poison every figure that
        normalises against it."""
        self.stats.corrupt += 1
        try:
            os.replace(path, path + ".corrupt")
            moved = True
        except OSError:
            moved = False
        warnings.warn(
            f"cache file failed integrity check ({why}): {path}"
            + (" [quarantined as .corrupt]" if moved else ""),
            CacheIntegrityWarning, stacklevel=3)

    def _read_disk(self, path: str):
        """Load one checksummed cache file.

        Returns the unpickled result, or ``None`` (a miss) for a
        missing, stale, or quarantined file.  Torn / bit-rotted files —
        bad magic, short header, digest mismatch — are quarantined with
        a :class:`CacheIntegrityWarning`; checksum-valid files that no
        longer unpickle (schema drift under a pinned salt) are a plain
        miss.
        """
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None               # missing: plain miss
        head = len(_MAGIC) + _DIGEST_LEN
        if len(blob) < head or not blob.startswith(_MAGIC):
            self._quarantine(path, "bad header")
            return None
        payload = blob[head:]
        if hashlib.sha256(payload).digest() != blob[len(_MAGIC):head]:
            self._quarantine(path, "checksum mismatch")
            return None
        try:
            return pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None               # stale schema: plain miss

    def get(self, spec: "RunSpec") -> Tuple[Optional["RunResult"], str]:
        """Return ``(copy_of_result, source)``; source is ``"memory"``,
        ``"disk"`` or ``"miss"`` (with a ``None`` result)."""
        key = self.key_for(spec)
        hit = self._memory.get(key)
        if hit is not None:
            self.stats.memory_hits += 1
            return deepcopy(hit), "memory"
        if self.disk_enabled():
            result = self._read_disk(self.path_for(key))
            if result is not None:
                self._memory[key] = result
                self.stats.disk_hits += 1
                return deepcopy(result), "disk"
        self.stats.misses += 1
        return None, "miss"

    def put(self, spec: "RunSpec", result: "RunResult") -> None:
        key = self.key_for(spec)
        self._memory[key] = deepcopy(result)
        self.stats.stores += 1
        if not self.disk_enabled():
            return
        path = self.path_for(key)
        try:
            payload = pickle.dumps(self._memory[key],
                                   protocol=pickle.HIGHEST_PROTOCOL)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
            os.replace(tmp, path)     # atomic: readers never see partials
        except OSError:
            pass                      # best-effort persistence

    # -- maintenance ---------------------------------------------------------

    def clear_memory(self) -> None:
        self._memory.clear()

    def clear_disk(self) -> int:
        """Delete every cached result file; returns how many were removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith((".pkl", ".tmp", ".corrupt")):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def disk_usage(self) -> Tuple[int, int]:
        """``(n_files, total_bytes)`` of the persisted layer."""
        files = size = 0
        if not os.path.isdir(self.root):
            return 0, 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".pkl"):
                    files += 1
                    try:
                        size += os.path.getsize(os.path.join(dirpath, name))
                    except OSError:
                        pass
        return files, size

    def entries(self) -> List[Tuple[str, int, float]]:
        """Every persisted result as ``(path, bytes, atime)``.

        ``atime`` is the last access (a disk hit re-reads the file, so
        recently-used entries have fresh atimes even on ``relatime``
        mounts once a day has passed; ``mtime`` is the fallback bound).
        """
        out: List[Tuple[str, int, float]] = []
        if not os.path.isdir(self.root):
            return out
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append((path, st.st_size,
                            max(st.st_atime, st.st_mtime)))
        return out

    def prune(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-by-atime eviction: delete least-recently-*used* results
        until the store fits in ``max_bytes``.

        Under many clients the shared store only grows — every distinct
        ``(spec, code-version)`` pair adds a file forever.  Pruning by
        access time keeps the hot set (what clients actually re-query)
        and drops results nobody has touched.  Returns
        ``(files_removed, bytes_removed)``.  Stale debris (``*.tmp``,
        ``*.corrupt``) is always removed first — it serves no lookup.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        removed = freed = 0
        if not os.path.isdir(self.root):
            return 0, 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith((".tmp", ".corrupt")):
                    path = os.path.join(dirpath, name)
                    try:
                        size = os.path.getsize(path)
                        os.unlink(path)
                    except OSError:
                        continue
                    removed += 1
                    freed += size
        entries = self.entries()
        total = sum(size for _p, size, _a in entries)
        entries.sort(key=lambda e: e[2])          # oldest access first
        for path, size, _atime in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
            self.stats.pruned += 1
        return removed, freed

    # -- store-wide persisted counters ---------------------------------------

    def _stats_path(self) -> str:
        return os.path.join(self.root, STATS_FILE)

    @contextmanager
    def _stats_lock(self):
        """Exclusive ``flock`` on ``stats.json.lock`` for the duration
        of a read-merge-write.

        ``flock`` serialises both across processes and across threads
        (each entry opens its own descriptor, and the lock binds to the
        open file description, not the pid).  Closing the descriptor
        releases the lock.  On platforms without :mod:`fcntl` this is a
        no-op and persist_stats degrades to the old last-writer-wins
        behaviour.
        """
        if fcntl is None:              # pragma: no cover - non-POSIX
            yield
            return
        fd = os.open(self._stats_path() + ".lock",
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def persisted_stats(self) -> dict:
        """Counters accumulated in the store's ``stats.json`` by every
        process that called :meth:`persist_stats` (zeroes if none)."""
        try:
            with open(self._stats_path(), encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {k: 0 for k in asdict(CacheStats())}
        return {k: int(data.get(k, 0)) for k in asdict(CacheStats())}

    def persist_stats(self) -> dict:
        """Fold this process's counter deltas into ``stats.json``.

        ``python -m repro`` calls it on the shared cache when a command
        returns, so ``cache stats`` counts every CLI run against the
        store.  The read-merge-write runs under :meth:`_stats_lock`, so
        concurrent writers serialise instead of losing each other's
        deltas (pinned by the two-writer race test in
        ``tests/exec/test_persist_stats.py``); the write itself stays
        atomic-replace, so a crashed writer can tear the lock window
        but never the file.  With no new counts, or with the disk layer
        off (``REPRO_CACHE=0``), nothing is written.  Returns the
        store-wide totals.
        """
        current = asdict(self.stats)
        last = asdict(self._persisted)
        delta = {k: current[k] - last[k] for k in current}
        if not any(delta.values()) or not self.disk_enabled():
            return self.persisted_stats()
        try:
            os.makedirs(self.root, exist_ok=True)
            with self._stats_lock():
                merged = self.persisted_stats()
                for k, v in delta.items():
                    merged[k] = merged.get(k, 0) + v
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(merged, fh, indent=0, sort_keys=True)
                os.replace(tmp, self._stats_path())
            self._persisted = CacheStats(**current)
        except OSError:               # best-effort, like put()
            merged = self.persisted_stats()
            for k, v in delta.items():
                merged[k] = merged.get(k, 0) + v
        return merged
