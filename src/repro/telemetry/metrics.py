"""Counter / gauge / histogram primitives.

A :class:`MetricsRegistry` hands out named instruments that engine code
updates unconditionally; the cost of the disabled default is one no-op
method call per update site (the instruments returned by
:data:`NULL_METRICS` do nothing), and the engine additionally guards its
per-event update sites behind a cached boolean, so the null path adds
no per-event instrument calls.

Histograms use fixed power-of-two bucket boundaries, so aggregation is
O(1) per observation, merge-friendly, and deterministic — no reservoir
sampling, no randomness.
"""

from __future__ import annotations

import math

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed power-of-two bucket histogram of non-negative samples.

    Bucket *i* counts samples in ``(2^(i-1), 2^i]`` (bucket 0 holds
    ``[0, 1]``), covering the full float range without configuration.
    Tracks count/total/min/max exactly; quantiles are bucket-resolution
    approximations, which is all the run reports need.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name} takes non-negative samples")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = 0 if value <= 1.0 else math.frexp(value)[1]
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> dict[int, int]:
        """Bucket exponent -> sample count, ascending."""
        return dict(sorted(self._buckets.items()))

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for exponent, count in sorted(self._buckets.items()):
            seen += count
            if seen >= rank:
                return float(2**exponent) if exponent > 0 else 1.0
        return self.max


class MetricsRegistry:
    """Creates and caches named instruments; snapshot-able."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    #: real registries record; the null subclass overrides this to False
    enabled: bool = True

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """All instrument values, keyed by name (deterministic order)."""
        out: dict[str, float | dict[str, float]] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].value
        for name in sorted(self._histograms):
            h = self._histograms[name]
            out[name] = {
                "count": float(h.count),
                "total": h.total,
                "mean": h.mean,
                "min": h.min if h.count else 0.0,
                "max": h.max if h.count else 0.0,
            }
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullMetricsRegistry(MetricsRegistry):
    """Hands out shared no-op instruments; the engine default."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        return self._null_histogram


#: Shared disabled registry; safe to use from any number of engines.
NULL_METRICS = NullMetricsRegistry()
