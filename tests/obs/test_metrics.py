"""Metrics registry: histogram arithmetic, families, exposition round-trips."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricSample,
    MetricsRegistry,
    log_buckets,
    parse_prometheus,
)
from repro.utils.errors import ValidationError

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

values_strategy = st.lists(
    st.floats(min_value=1e-7, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


class TestHistogram:
    def test_log_buckets_shape(self):
        bounds = log_buckets(1e-5, 2.0, 26)
        assert len(bounds) == 26
        assert bounds[0] == pytest.approx(1e-5)
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)
        assert DEFAULT_LATENCY_BUCKETS == bounds

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValidationError):
            Histogram([])
        with pytest.raises(ValidationError):
            Histogram([1.0, 1.0])
        with pytest.raises(ValidationError):
            Histogram([2.0, 1.0])
        with pytest.raises(ValidationError):
            log_buckets(0.0)

    @SETTINGS
    @given(values=values_strategy)
    def test_bucket_counts_match_numpy(self, values):
        hist = Histogram()
        for v in values:
            hist.observe(v)
        arr = np.asarray(values)
        state = hist.to_dict()
        # Cumulative `le` semantics: bucket i counts values <= bound_i.
        for bucket in state["buckets"][:-1]:
            bound = float(bucket["le"])
            assert bucket["count"] == int(np.sum(arr <= bound))
        assert state["buckets"][-1] == {"le": "+Inf", "count": len(values)}
        assert state["count"] == len(values)
        assert state["sum"] == pytest.approx(float(arr.sum()), rel=1e-9)
        assert state["min"] == pytest.approx(float(arr.min()))
        assert state["max"] == pytest.approx(float(arr.max()))

    @SETTINGS
    @given(
        values=values_strategy,
        qs=st.lists(st.sampled_from([1.0, 25.0, 50.0, 90.0, 99.0]), min_size=1,
                    max_size=3, unique=True),
    )
    def test_percentiles_exact_below_reservoir(self, values, qs):
        # Every run here stays under the reservoir bound, so percentiles
        # must agree with numpy over the full sample set exactly.
        hist = Histogram()
        for v in values:
            hist.observe(v)
        assert hist.count <= 512
        for q in qs:
            assert hist.percentile(q) == pytest.approx(
                float(np.percentile(np.asarray(values), q)), rel=1e-12
            )

    def test_percentiles_scaled_dict(self):
        hist = Histogram()
        for v in (0.001, 0.002, 0.003):
            hist.observe(v)
        out = hist.percentiles((50.0,), scale=1e3)
        assert out == {"p50": pytest.approx(2.0)}
        assert Histogram().percentiles() == {}

    def test_reservoir_is_bounded_and_deterministic(self):
        a = Histogram(reservoir_size=64, seed=7)
        b = Histogram(reservoir_size=64, seed=7)
        for i in range(10_000):
            a.observe(i * 1e-4)
            b.observe(i * 1e-4)
        assert len(a._samples) == 64
        assert a._samples == b._samples
        assert a.count == 10_000

    @SETTINGS
    @given(left=values_strategy, right=values_strategy)
    def test_merge_matches_single_histogram(self, left, right):
        merged = Histogram()
        for v in left:
            merged.observe(v)
        other = Histogram()
        for v in right:
            other.observe(v)
        merged.merge(other)
        whole = Histogram()
        for v in left + right:
            whole.observe(v)
        assert merged.to_dict()["buckets"] == whole.to_dict()["buckets"]
        assert merged.count == whole.count
        assert merged.sum == pytest.approx(whole.sum)

    def test_merge_bucket_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Histogram([1.0, 2.0]).merge(Histogram([1.0, 3.0]))

    def test_copy_is_independent(self):
        hist = Histogram()
        hist.observe(1.0)
        snap = hist.copy()
        hist.observe(2.0)
        assert snap.count == 1
        assert hist.count == 2


def _gauge_and_histogram(value: float, observed: float):
    """A collector publishing one gauge and one histogram, the way the
    gateway's collector does."""
    hist = Histogram((0.1, 1.0))
    hist.observe(observed)

    def collect():
        return [
            MetricSample(name="depth", kind="gauge", help="queue depth", value=value),
            MetricSample(
                name="lat_seconds", kind="histogram", help="latency",
                histogram=hist.to_dict(),
            ),
        ]

    return collect


class TestRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests", labels=("model",)).labels(
            model="m"
        ).inc(3)
        registry.register_collector(_gauge_and_histogram(4.0, 0.05))
        payload = registry.to_json()
        assert payload["metrics"]["reqs_total"]["kind"] == "counter"
        sample = payload["metrics"]["reqs_total"]["samples"][0]
        assert sample["labels"] == {"model": "m"}
        assert sample["value"] == 3.0
        assert payload["metrics"]["depth"]["kind"] == "gauge"
        assert payload["metrics"]["depth"]["samples"][0]["value"] == 4.0
        assert payload["metrics"]["lat_seconds"]["kind"] == "histogram"
        hist = payload["metrics"]["lat_seconds"]["samples"][0]["histogram"]
        assert hist["count"] == 1
        json.dumps(payload)  # JSON-ready end to end

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValidationError):
            registry.counter("x_total", "x", labels=("other",))

    def test_counters_are_monotonic(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("c_total", "c").inc(-1)

    def test_collector_samples_and_failures(self):
        registry = MetricsRegistry()

        def good():
            return [MetricSample(name="up", kind="gauge", value=1.0)]

        def bad():
            raise RuntimeError("scrape bug")

        registry.register_collector(good)
        registry.register_collector(bad)
        names = {s.name for s in registry.samples()}
        assert "up" in names  # the broken collector is logged, not fatal
        registry.unregister_collector(good)
        assert "up" not in {s.name for s in registry.samples()}

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", 'say "hi"\nok', labels=("model",)).labels(
            model='a"b\\c'
        ).inc(2)
        registry.register_collector(_gauge_and_histogram(4.0, 0.5))
        text = registry.to_prometheus()
        series = parse_prometheus(text)
        assert series["reqs_total"]["samples"] == [({"model": 'a"b\\c'}, 2.0)]
        assert series["depth"]["type"] == "gauge"
        assert series["depth"]["samples"] == [({}, 4.0)]
        assert series["lat_seconds"]["type"] == "histogram"
        buckets = dict(
            (labels["le"], value)
            for labels, value in series["lat_seconds_bucket"]["samples"]
        )
        assert buckets == {"0.1": 0.0, "1": 1.0, "+Inf": 1.0}
        assert series["lat_seconds_count"]["samples"][0][1] == 1.0

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not exposition format\n")
        with pytest.raises(ValueError):
            parse_prometheus('metric{unterminated="x} 1\n')
