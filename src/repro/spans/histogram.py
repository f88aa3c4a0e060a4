"""Fixed-bucket log2 histograms for latency distributions.

A :class:`Histogram` is 64 power-of-two buckets plus a zero bucket:
value ``v`` lands in bucket ``v.bit_length()``, so bucket ``i`` (for
``i >= 1``) covers ``[2**(i-1), 2**i - 1]``.  Recording is two integer
operations — cheap enough to sit on the always-on LLC hot path (the
per-side round-trip aggregates in :class:`repro.mem.llc.SharedLLC`)
as well as behind the sampled span tracer.

Percentiles are *bucket upper bounds*: ``percentile(p)`` returns the
upper edge of the first bucket whose cumulative count reaches ``p`` %
of the samples (clamped to the observed max), so the reported
p50/p95/p99 are guaranteed upper bounds on the true order statistics
(never under-reports a tail).
Histograms merge by bucket-wise addition, which is associative and
commutative — shard per channel/worker, merge at harvest.
"""

from __future__ import annotations

#: bucket count: bucket 0 holds zeros, bucket i holds bit_length == i;
#: 64 buckets cover every int64 tick delta the simulator can produce
N_BUCKETS = 65


class Histogram:
    """Log2-bucketed distribution of non-negative integer samples."""

    __slots__ = ("counts", "n", "total", "min", "max")

    def __init__(self):
        self.counts = [0] * N_BUCKETS
        self.n = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    def record(self, value: int) -> None:
        if value < 0:
            value = 0
        self.counts[value.bit_length()] += 1
        self.n += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @staticmethod
    def bucket_upper(index: int) -> int:
        """Inclusive upper edge of bucket ``index``."""
        return 0 if index == 0 else (1 << index) - 1

    def percentile(self, p: float) -> int:
        """Upper bound on the ``p``-th percentile (``p`` in [0, 100]).

        The bucket upper edge, clamped to the observed min/max (still a
        valid upper bound, and the report never shows p95 > max).
        Edge cases are pinned by ``tests/spans/test_histogram.py``:
        ``percentile(0)`` is exactly the observed min (not the first
        bucket's upper edge, which can overshoot), ``percentile(100)``
        is exactly the observed max, an empty histogram returns 0 for
        every ``p`` (matching the 0 min/max that :meth:`summary`
        reports), and values outside [0, 100] raise ``ValueError``.
        Monotone in ``p``: ``percentile(a) <= percentile(b)`` whenever
        ``a <= b``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile p={p!r} outside [0, 100]")
        if self.n == 0:
            return 0
        if p == 0:
            # the 0th percentile is the minimum; the generic bucket walk
            # would return the first non-empty bucket's *upper* edge,
            # which overshoots whenever min is not a bucket boundary
            return self.min
        need = p / 100.0 * self.n
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            # need > 0 here (p > 0, n > 0), so cum >= need implies the
            # bucket walk has passed at least one sample
            if cum >= need:
                return min(self.bucket_upper(i), self.max)
        return self.max

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into ``self`` (bucket-wise add); returns self."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.n += other.n
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        return self

    def copy(self) -> "Histogram":
        out = Histogram()
        out.merge(self)
        return out

    def summary(self) -> dict[str, float]:
        """Scalar digest: n, mean, p50/p95/p99, min/max."""
        return {"n": self.n, "mean": self.mean,
                "p50": self.percentile(50), "p95": self.percentile(95),
                "p99": self.percentile(99),
                "min": self.min if self.min is not None else 0,
                "max": self.max if self.max is not None else 0}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.counts == other.counts and self.n == other.n
                and self.total == other.total and self.min == other.min
                and self.max == other.max)

    def __repr__(self) -> str:
        return (f"Histogram(n={self.n}, mean={self.mean:.1f}, "
                f"p95={self.percentile(95)})")


class Gauge:
    """An occupancy level: last sampled value plus its distribution.

    Components call :meth:`record` with the *current* level (MSHR fill,
    a bank's queue depth, ring injection backlog) whenever a sampled
    request touches them, so the distribution is request-weighted —
    what a request actually saw, the queueing-relevant view.
    """

    __slots__ = ("name", "last", "hist")

    def __init__(self, name: str = ""):
        self.name = name
        self.last = 0
        self.hist = Histogram()

    def record(self, value: int) -> None:
        self.last = value
        self.hist.record(value)

    def summary(self) -> dict[str, float]:
        out = self.hist.summary()
        out["last"] = self.last
        return out

    def __repr__(self) -> str:
        return f"Gauge({self.name}: last={self.last}, {self.hist!r})"
