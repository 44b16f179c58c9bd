"""Metrics registry: counters/gauges/histograms and the text exposition."""

import sys
import threading

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, parse_prometheus


class TestFamilies:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("nautilus_jobs_total", "jobs")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("nautilus_x_total", "x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_remove(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("nautilus_depth", "d", labelnames=("q",))
        gauge.set(3, q="a")
        gauge.inc(2, q="a")
        gauge.set(7, q="b")
        assert gauge.value(q="a") == 5
        gauge.remove(q="a")
        assert gauge.value(q="a") == 0.0
        assert 'nautilus_depth{q="a"}' not in registry.render()
        assert gauge.value(q="b") == 7

    def test_label_mismatch_rejected(self):
        gauge = MetricsRegistry().gauge("nautilus_g", "g", labelnames=("a",))
        with pytest.raises(ValueError):
            gauge.set(1, b=2)
        with pytest.raises(ValueError):
            gauge.set(1)

    def test_histogram_buckets_are_cumulative(self):
        histogram = MetricsRegistry().histogram(
            "nautilus_lat_seconds", "lat", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)
        assert snap["counts"] == [1, 2]  # cumulative: <=0.1, <=1.0

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("nautilus_c_total", "c")
        assert registry.counter("nautilus_c_total", "c") is a

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("nautilus_thing_total", "t")
        with pytest.raises(ValueError):
            registry.gauge("nautilus_thing_total", "t")


class TestExposition:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("nautilus_reqs_total", "requests").inc(12)
        gauge = registry.gauge("nautilus_states", "states", labelnames=("state",))
        gauge.set(2, state="queued")
        gauge.set(1, state="running")
        registry.histogram(
            "nautilus_wait_seconds", "wait", buckets=(0.5,)
        ).observe(0.25)
        return registry

    def test_render_parse_round_trip(self):
        registry = self._populated()
        parsed = parse_prometheus(registry.render())
        assert parsed["nautilus_reqs_total"]["type"] == "counter"
        assert parsed["nautilus_states"]["type"] == "gauge"
        assert parsed["nautilus_wait_seconds"]["type"] == "histogram"
        samples = parsed["nautilus_states"]["samples"]
        assert samples[("nautilus_states", (("state", "queued"),))] == 2
        assert samples[("nautilus_states", (("state", "running"),))] == 1
        buckets = parsed["nautilus_wait_seconds"]["samples"]
        assert buckets[("nautilus_wait_seconds_count", ())] == 1

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("nautilus_g", "g", labelnames=("name",))
        gauge.set(1, name='we"ird\\')
        assert 'name="we\\"ird\\\\"' in registry.render()

    def test_histogram_exposition_shape(self):
        text = self._populated().render()
        assert 'nautilus_wait_seconds_bucket{le="0.5"} 1' in text
        assert 'nautilus_wait_seconds_bucket{le="+Inf"} 1' in text
        assert "nautilus_wait_seconds_sum 0.25" in text
        assert "nautilus_wait_seconds_count 1" in text

    def test_type_lines_precede_samples(self):
        lines = self._populated().render().splitlines()
        seen_type = set()
        for line in lines:
            if line.startswith("# TYPE "):
                seen_type.add(line.split()[2])
            elif line and not line.startswith("#"):
                family = line.split("{")[0].split(" ")[0]
                base = family
                for suffix in ("_bucket", "_sum", "_count"):
                    if family.endswith(suffix) and family[: -len(suffix)] in seen_type:
                        base = family[: -len(suffix)]
                assert base in seen_type

    def test_empty_registry_renders_empty(self):
        assert parse_prometheus(MetricsRegistry().render()) == {}

    @pytest.mark.parametrize(
        "value",
        [
            'quo"ted',
            "back\\slash",
            "comma,inside",
            "new\nline",
            'all\\of,it="together"\n',
            "",
        ],
    )
    def test_escaped_label_values_round_trip_all_families(self, value):
        # Satellite: values containing quotes, backslashes, commas and
        # newlines must survive render -> parse unchanged for counters,
        # gauges and histograms alike.
        registry = MetricsRegistry()
        registry.counter(
            "nautilus_c_total", "c", labelnames=("name",)
        ).inc(3, name=value)
        registry.gauge(
            "nautilus_g", "g", labelnames=("name",)
        ).set(7, name=value)
        registry.histogram(
            "nautilus_h_seconds", "h", labelnames=("name",), buckets=(1.0,)
        ).observe(0.5, name=value)
        parsed = parse_prometheus(registry.render())
        labels = (("name", value),)
        assert parsed["nautilus_c_total"]["samples"][
            ("nautilus_c_total", labels)
        ] == 3
        assert parsed["nautilus_g"]["samples"][("nautilus_g", labels)] == 7
        hist = parsed["nautilus_h_seconds"]["samples"]
        assert hist[("nautilus_h_seconds_count", labels)] == 1
        assert hist[("nautilus_h_seconds_sum", labels)] == 0.5
        bucket_labels = dict(labels)
        bucket_keys = [
            key
            for key in hist
            if key[0] == "nautilus_h_seconds_bucket"
            and dict(key[1]).get("name") == value
        ]
        assert len(bucket_keys) == 2  # le=1.0 and le=+Inf
        assert bucket_labels["name"] == value

    def test_two_escaped_values_stay_distinct(self):
        # 'a\\' + ',b' must not collide with 'a' + '\\,b' after escaping.
        registry = MetricsRegistry()
        gauge = registry.gauge("nautilus_g", "g", labelnames=("x", "y"))
        gauge.set(1, x="a\\", y=",b")
        gauge.set(2, x="a", y="\\,b")
        parsed = parse_prometheus(registry.render())["nautilus_g"]["samples"]
        assert parsed[("nautilus_g", (("x", "a\\"), ("y", ",b")))] == 1
        assert parsed[("nautilus_g", (("x", "a"), ("y", "\\,b")))] == 2


class TestFamilyRemove:
    def test_remove_prunes_counter_and_histogram_series(self):
        # Satellite: remove() lives on the family, so per-worker counter
        # and histogram series can be pruned on deregistration too.
        registry = MetricsRegistry()
        counter = registry.counter(
            "nautilus_done_total", "d", labelnames=("worker",)
        )
        counter.inc(5, worker="w1")
        counter.inc(2, worker="w2")
        histogram = registry.histogram(
            "nautilus_task_seconds", "t", labelnames=("worker",), buckets=(1.0,)
        )
        histogram.observe(0.5, worker="w1")
        counter.remove(worker="w1")
        histogram.remove(worker="w1")
        text = registry.render()
        assert 'worker="w1"' not in text
        assert counter.value(worker="w2") == 2

    def test_remove_unknown_series_is_a_no_op(self):
        gauge = MetricsRegistry().gauge("nautilus_g", "g", labelnames=("a",))
        gauge.remove(a="never-set")


def _torn_histograms(text: str) -> list[str]:
    """Series of ``nautilus_lat_seconds`` whose cumulative buckets
    decrease, or whose ``+Inf`` bucket is not its ``_count``."""
    samples = parse_prometheus(text)["nautilus_lat_seconds"]["samples"]
    buckets: dict[tuple, list[float]] = {}
    counts: dict[tuple, float] = {}
    for (name, labels), value in samples.items():
        if name.endswith("_bucket"):
            buckets.setdefault(labels[:-1], []).append(value)
        elif name.endswith("_count"):
            counts[labels] = value
    return [
        f"{labels}: {series} count={counts.get(labels)}"
        for labels, series in buckets.items()
        if series != sorted(series) or series[-1] != counts.get(labels)
    ]


class TestConcurrentRender:
    RENDERS = 1500

    def test_render_while_series_change_is_never_torn(self):
        """``render()`` formats under the registry lock, so a render that
        races ``observe()`` and ``remove()`` neither raises nor shows a
        half-updated histogram. A 1 µs switch interval makes the threads
        interleave inside a render."""
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "nautilus_lat_seconds", "lat", labelnames=("campaign",),
            buckets=(0.1, 0.5, 1.0, 5.0),
        )
        gauge = registry.gauge("nautilus_up", "up", labelnames=("worker",))
        histogram.observe(0.2, campaign="c0")
        stop = threading.Event()

        def observe():
            i = 0
            while not stop.is_set():
                histogram.observe((i % 70) / 10.0, campaign=f"c{i % 3}")
                i += 1

        def churn():
            i = 0
            while not stop.is_set():
                gauge.set(i, worker=f"w{i % 5}")
                gauge.remove(worker=f"w{(i + 2) % 5}")
                i += 1

        threads = [
            threading.Thread(target=target)
            for target in (observe, observe, churn)
        ]
        errors, torn = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for _ in range(self.RENDERS):
                try:
                    text = registry.render()
                except Exception as exc:  # a series removed mid-render
                    errors.append(repr(exc))
                    continue
                torn.extend(_torn_histograms(text))
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert torn == []
