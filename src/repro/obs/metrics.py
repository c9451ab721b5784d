"""Sim-time metrics: counters, gauges, log-scale histograms, registry.

Every metric is keyed by ``(name, labels)`` where labels always include
the owning site (``site=<int>``) for per-site breakdowns.  Timestamps and
histogram samples come from the simulation kernel (``Kernel.now``), never
from the wall clock, so a seeded run produces byte-identical snapshots --
the determinism tests depend on this.

The registry is cheap enough to leave always-on: counters and gauges are
attribute bumps, histograms a bisect into fixed buckets.  The expensive
part of observability (per-transaction span retention) lives in
:mod:`repro.obs.trace` and is opt-in.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(name: str, labels: Dict[str, Any]) -> Tuple[str, LabelKey]:
    return name, tuple(sorted(labels.items()))


def _format_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % (k, v) for k, v in labels))


class Counter:
    """A monotonically increasing count (aborts, commits, cache hits...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def set(self, value: int) -> None:
        """Direct assignment -- used by :class:`CounterView`, whose
        ``stats.x += 1`` idiom reads then writes the counter."""
        self.value = value


class Gauge:
    """A point-in-time value (replication lag, queue depth...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


def log_buckets(
    lo: float = 1e-4, hi: float = 256.0, factor: float = 2.0
) -> Tuple[float, ...]:
    """Fixed log-scale bucket upper bounds: lo, lo*factor, ... >= hi.

    The default spans 0.1 ms .. ~4.4 min in 22 buckets -- wide enough for
    every latency in the simulation (flushes are ~1 ms, WAN visibility
    ~hundreds of ms, recovery ~seconds).
    """
    bounds: List[float] = []
    bound = lo
    while bound < hi:
        bounds.append(bound)
        bound *= factor
    bounds.append(bound)
    return tuple(bounds)


DEFAULT_BUCKETS = log_buckets()


class Histogram:
    """Fixed-bucket log-scale histogram of simulated durations (seconds).

    Buckets are upper bounds; an implicit +inf bucket catches overflow.
    Percentiles are estimated by linear interpolation inside the bucket
    containing the requested rank -- coarse, but deterministic and O(1)
    memory, which is what a long benchmark needs.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: LabelKey, bounds: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated p-th percentile (p in [0, 100]); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = (p / 100.0) * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else (self.max or lo)
                frac = (rank - cumulative) / n
                value = lo + frac * (hi - lo)
                # Clamp the estimate to the observed range so single-sample
                # histograms report the sample, not a bucket midpoint edge.
                if self.max is not None:
                    value = min(value, self.max)
                if self.min is not None:
                    value = max(value, self.min)
                return value
            cumulative += n
        return self.max or 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
            "p50": round(self.percentile(50), 9),
            "p95": round(self.percentile(95), 9),
            "p99": round(self.percentile(99), 9),
            "p999": round(self.percentile(99.9), 9),
            "buckets": [
                (bound, n)
                for bound, n in zip(list(self.bounds) + [float("inf")], self.counts)
                if n
            ],
        }


class MetricsRegistry:
    """Get-or-create store of metrics keyed by ``(name, labels)``."""

    def __init__(self):
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = _label_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = _label_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None, **labels
    ) -> Histogram:
        key = _label_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(
                name, key[1], bounds=buckets or DEFAULT_BUCKETS
            )
        return metric

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def total(self, name: str) -> int:
        """Sum of one counter across all label sets (e.g. the deployment
        total of a per-site counter like ``tx.reaped``)."""
        return sum(
            metric.value
            for (metric_name, _labels), metric in self._counters.items()
            if metric_name == name
        )

    def counters(self) -> List[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic (sorted-key) dump of every metric's state."""
        return {
            "counters": {
                _format_key(c.name, c.labels): c.value for c in self.counters()
            },
            "gauges": {
                _format_key(g.name, g.labels): round(g.value, 9) for g in self.gauges()
            },
            "histograms": {
                _format_key(h.name, h.labels): h.to_dict() for h in self.histograms()
            },
        }


class CounterView:
    """Registry counters read and written as attributes: each name in
    ``FIELDS`` proxies (``stats.x += 1`` included) to the counter
    ``<PREFIX>.<field>`` carrying this view's labels, so the numbers
    tests and the harness read off a stats object are the ones
    ``snapshot()`` reports, without double bookkeeping.  Subclasses set
    ``PREFIX`` and ``FIELDS``; the view owns a private registry when
    none is given."""

    PREFIX = ""
    FIELDS: Tuple[str, ...] = ()

    __slots__ = ("_registry", "_labels", "_handles")

    def __init__(self, registry: Optional[MetricsRegistry] = None, **labels):
        object.__setattr__(self, "_registry", registry or MetricsRegistry())
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_handles", {})

    def _counter(self, name: str) -> Counter:
        handle = self._handles.get(name)
        if handle is None:
            handle = self._handles[name] = self._registry.counter(
                "%s.%s" % (self.PREFIX, name), **self._labels
            )
        return handle

    def inc(self, name: str, n: int = 1) -> None:
        """Fast-path increment: one handle lookup instead of the
        ``__getattr__`` read + ``__setattr__`` write that ``+= 1`` costs.
        Hot protocol paths (commit, propagation apply) use this."""
        self._counter(name).inc(n)

    def __getattr__(self, name: str) -> int:
        if name in self.FIELDS:
            return self._counter(name).value
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if name in self.FIELDS:
            self._counter(name).set(value)
        else:
            object.__setattr__(self, name, value)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%d" % (k, v) for k, v in self.as_dict().items()),
        )
