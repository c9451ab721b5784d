"""Unit tests for the repro.obs metrics registry and instruments."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    Observability,
    log_buckets,
)


class TestCounterGauge:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x", site=0)
        c2 = reg.counter("x", site=0)
        assert c1 is c2
        c1.inc()
        c1.inc(3)
        assert c2.value == 4

    def test_labels_distinguish(self):
        reg = MetricsRegistry()
        reg.counter("x", site=0).inc()
        reg.counter("x", site=1).inc(5)
        assert reg.counter("x", site=0).value == 1
        assert reg.counter("x", site=1).value == 5

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        assert reg.counter("x", b=2, a=1).value == 1

    def test_gauge_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("lag", site=2)
        g.set(0.25)
        assert g.value == 0.25


class TestHistogram:
    def test_log_buckets_span(self):
        bounds = log_buckets(1e-4, 256.0)
        assert bounds[0] == pytest.approx(1e-4)
        assert bounds[-1] >= 256.0
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi == pytest.approx(lo * 2.0)

    def test_observe_and_stats(self):
        h = Histogram("h", ())
        for v in (0.001, 0.002, 0.004, 0.1):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(0.107)
        assert h.min == 0.001
        assert h.max == 0.1
        assert h.mean == pytest.approx(0.107 / 4)

    def test_percentile_empty(self):
        assert Histogram("h", ()).percentile(50) == 0.0

    def test_percentile_single_sample_clamped(self):
        h = Histogram("h", ())
        h.observe(0.005)
        assert h.percentile(50) == pytest.approx(0.005)
        assert h.percentile(99) == pytest.approx(0.005)

    def test_percentile_monotone(self):
        h = Histogram("h", ())
        for i in range(1, 101):
            h.observe(i / 1000.0)
        last = 0.0
        for p in (10, 25, 50, 75, 90, 99):
            value = h.percentile(p)
            assert value >= last
            last = value
        # Coarse but in the right neighbourhood (log-2 buckets).
        assert 0.02 <= h.percentile(50) <= 0.08

    def test_overflow_bucket(self):
        h = Histogram("h", ())
        h.observe(10 * DEFAULT_BUCKETS[-1])
        assert h.counts[-1] == 1
        assert h.percentile(99) == pytest.approx(10 * DEFAULT_BUCKETS[-1])


class TestSnapshot:
    def test_snapshot_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b", site=1).inc()
        reg.counter("a", site=0).inc(2)
        reg.gauge("g", site=0).set(1.5)
        reg.histogram("h", site=0).observe(0.01)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a{site=0}", "b{site=1}"]
        assert snap["counters"]["a{site=0}"] == 2
        assert snap["gauges"]["g{site=0}"] == 1.5
        assert snap["histograms"]["h{site=0}"]["count"] == 1

    def test_observability_bundle(self):
        obs = Observability()
        assert obs.tracer is None and not obs.tracing
        obs = Observability(tracing=True, trace_capacity=16)
        assert obs.tracing and obs.tracer.capacity == 16
        assert obs.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
