"""The observability layer: metrics, tracing, exporters, and the
page-accounting invariant the instrumentation guarantees."""

import json
import logging
import math

import pytest

from repro.core import SignatureIndex
from repro.obs import (
    NULL_REGISTRY,
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    configure_logging,
    get_default_registry,
    metrics_summary_table,
    metrics_to_json_lines,
    metrics_to_prometheus,
    render_trace,
    span_of,
    trace_to_json_lines,
    use_registry,
)
from repro.storage.pager import PageAccessCounter
from repro.workloads import measure_batch_queries, measure_queries


class TestInstruments:
    def test_counter_accumulates_and_resets(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_gauge_last_value_wins(self):
        g = Gauge("x")
        g.set(2.5)
        g.set(7)
        assert g.value == 7.0
        g.inc(3)
        assert g.value == 10.0

    def test_histogram_quantiles_within_bucket_error(self):
        h = Histogram("x")
        for value in range(1, 1001):
            h.observe(value)
        assert h.count == 1000
        assert h.min == 1.0
        assert h.max == 1000.0
        assert h.mean == pytest.approx(500.5)
        # Log buckets promise ~9 % relative error on quantiles.
        assert h.p50 == pytest.approx(500, rel=0.10)
        assert h.p95 == pytest.approx(950, rel=0.10)
        assert h.p99 == pytest.approx(990, rel=0.10)

    def test_histogram_zero_bucket_is_exact(self):
        h = Histogram("x")
        for _ in range(60):
            h.observe(0.0)
        for _ in range(40):
            h.observe(10.0)
        assert h.p50 == 0.0
        assert h.quantile(1.0) == pytest.approx(10.0, rel=0.10)

    def test_histogram_empty(self):
        h = Histogram("x")
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.mean)
        assert h.summary() == {"count": 0, "sum": 0.0}

    def test_histogram_quantile_rejects_out_of_range(self):
        h = Histogram("x")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_reset(self):
        h = Histogram("x")
        h.observe(3.0)
        h.reset()
        assert h.count == 0
        assert math.isnan(h.quantile(0.5))


class TestRegistry:
    def test_same_instrument_on_repeat_lookup(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")
        assert reg.gauge("c") is reg.gauge("c")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")
        with pytest.raises(ValueError):
            reg.histogram("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_snapshot_is_plain_sorted_data(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["b"] == 2
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1

    def test_reset_zeroes_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("g").set(9)
        reg.histogram("h").observe(1.0)
        reg.reset()
        assert reg.counter("a").value == 0
        assert reg.gauge("g").value == 0.0
        assert reg.histogram("h").count == 0

    def test_enabled_by_default(self):
        assert MetricsRegistry().enabled is True


class TestNullRegistry:
    def test_disabled_and_shared_noops(self):
        reg = NullRegistry()
        assert reg.enabled is False
        assert reg.counter("a") is reg.counter("b")
        assert reg.gauge("a") is reg.gauge("b")
        assert reg.histogram("a") is reg.histogram("b")

    def test_recording_is_a_noop(self):
        NULL_REGISTRY.counter("a").inc(100)
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.counter("a").value == 0
        assert NULL_REGISTRY.gauge("g").value == 0.0
        assert NULL_REGISTRY.histogram("h").count == 0
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestDefaultRegistry:
    def test_use_registry_swaps_and_restores(self):
        original = get_default_registry()
        temporary = MetricsRegistry()
        with use_registry(temporary) as active:
            assert active is temporary
            assert get_default_registry() is temporary
        assert get_default_registry() is original

    def test_use_registry_restores_on_error(self):
        original = get_default_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_default_registry() is original


@pytest.fixture()
def populated_registry():
    reg = MetricsRegistry()
    reg.counter("query.count").inc(7)
    reg.gauge("workers").set(4)
    for value in (1.0, 2.0, 3.0):
        reg.histogram("query.seconds").observe(value)
    return reg


class TestExporters:
    def test_json_lines_parse(self, populated_registry):
        lines = metrics_to_json_lines(populated_registry).splitlines()
        parsed = [json.loads(line) for line in lines]
        by_name = {item["name"]: item for item in parsed}
        assert by_name["query.count"] == {
            "type": "counter",
            "name": "query.count",
            "value": 7,
        }
        assert by_name["workers"]["type"] == "gauge"
        assert by_name["query.seconds"]["count"] == 3

    def test_json_lines_map_nonfinite_to_null(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.inf)
        (line,) = metrics_to_json_lines(reg).splitlines()
        assert json.loads(line)["value"] is None

    def test_prometheus_text_format(self, populated_registry):
        text = metrics_to_prometheus(populated_registry)
        assert "# TYPE repro_query_count counter" in text
        assert "repro_query_count_total 7" in text
        assert "# TYPE repro_workers gauge" in text
        assert "# TYPE repro_query_seconds summary" in text
        assert 'repro_query_seconds{quantile="0.5"}' in text
        assert "repro_query_seconds_count 3" in text
        assert text.endswith("\n")

    def test_summary_table(self, populated_registry):
        table = metrics_summary_table(populated_registry, title="t")
        assert table.startswith("t\n")
        assert "query.count" in table
        assert "histogram" in table

    def test_summary_table_empty(self):
        assert "(no instruments recorded)" in metrics_summary_table(
            MetricsRegistry()
        )

    def test_trace_exporters(self):
        tracer = Tracer()
        with tracer.span("outer", node=3):
            with tracer.span("inner"):
                pass
        rendered = render_trace(tracer)
        assert rendered.splitlines()[0].startswith("outer")
        assert rendered.splitlines()[1].startswith("  inner")
        assert "node=3" in rendered
        lines = [json.loads(l) for l in trace_to_json_lines(tracer).splitlines()]
        assert [(l["name"], l["depth"]) for l in lines] == [
            ("outer", 0),
            ("inner", 1),
        ]

    def test_empty_trace_renders_placeholder(self):
        assert render_trace(Tracer()) == "(empty trace)"
        assert trace_to_json_lines(Tracer()) == ""


class TestTracer:
    def test_spans_nest_into_a_tree(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            with tracer.span("c"):
                pass
        assert tracer.current is None
        assert [s.name for s in tracer.roots] == ["a"]
        assert [s.name for s in a.children] == ["b", "c"]
        assert [s.name for s in tracer.walk()] == ["a", "b", "c"]

    def test_spans_meter_nested_page_deltas(self):
        counter = PageAccessCounter()
        tracer = Tracer(counter)
        with tracer.span("outer"):
            counter.record_read(hit=False)
            with tracer.span("inner") as inner:
                counter.record_read(hit=True)
        (outer,) = tracer.roots
        assert (outer.pages_logical, outer.pages_physical) == (2, 1)
        assert (inner.pages_logical, inner.pages_physical) == (1, 0)
        assert tracer.total_pages() == (2, 1)

    def test_aggregate_is_inclusive_per_name(self):
        counter = PageAccessCounter()
        tracer = Tracer(counter)
        for _ in range(2):
            with tracer.span("query"):
                counter.record_read(hit=False)
                with tracer.span("refine"):
                    counter.record_read(hit=False)
        agg = tracer.aggregate()
        assert agg["query"]["count"] == 2
        assert agg["query"]["pages_logical"] == 4  # includes child touches
        assert agg["refine"]["count"] == 2
        assert agg["refine"]["pages_logical"] == 2

    def test_to_dicts_round_trips_through_json(self):
        tracer = Tracer()
        with tracer.span("a", k=1):
            with tracer.span("b"):
                pass
        (root,) = json.loads(json.dumps(tracer.to_dicts()))
        assert root["name"] == "a"
        assert root["attributes"] == {"k": 1}
        assert root["children"][0]["name"] == "b"

    def test_span_of_without_tracer_is_the_null_span(self):
        class Owner:
            pass

        bare = Owner()
        assert span_of(bare, "x") is NULL_SPAN
        bare.tracer = None
        assert span_of(bare, "x") is NULL_SPAN
        NULL_SPAN.set("k", 1)  # must be a silent no-op
        with span_of(bare, "x") as span:
            assert span is NULL_SPAN

    def test_span_of_with_tracer_records(self):
        class Owner:
            pass

        owner = Owner()
        owner.tracer = Tracer()
        with span_of(owner, "x", node=1) as span:
            span.set("extra", 2)
        (root,) = owner.tracer.roots
        assert root.name == "x"
        assert root.attributes == {"node": 1, "extra": 2}


@pytest.fixture(scope="module", params=("vectorized", "scalar"))
def engine_index(request, small_net, small_objs):
    """A fresh index per query engine (counters not shared with others)."""
    return SignatureIndex.build(
        small_net, small_objs, backend="scipy", query_engine=request.param
    )


class TestPageAccounting:
    """The acceptance invariant: root spans partition the counter exactly."""

    def test_trace_matches_counter_totals(self, engine_index):
        idx = engine_index
        idx.reset_counters()
        with idx.trace() as tracer:
            idx.range_query(5, 200.0)
            idx.knn(5, 3)
        assert idx.counter.logical_reads > 0
        assert tracer.total_pages() == (
            idx.counter.logical_reads,
            idx.counter.physical_reads,
        )
        assert [s.name for s in tracer.roots] == ["query.range", "query.knn"]

    def test_batch_trace_matches_counter_totals(self, engine_index):
        idx = engine_index
        nodes = [0, 5, 17, 42]
        idx.reset_counters()
        with idx.trace() as tracer:
            idx.range_query_batch(nodes, 150.0)
            idx.knn_batch(nodes, 2)
        assert idx.counter.logical_reads > 0
        assert tracer.total_pages() == (
            idx.counter.logical_reads,
            idx.counter.physical_reads,
        )
        if idx.query_engine == "vectorized":
            assert "decode" in {s.name for s in tracer.walk()}

    def test_tracer_detaches_after_block(self, engine_index):
        idx = engine_index
        with idx.trace() as tracer:
            idx.knn(3, 1)
        assert idx.tracer is None
        roots = len(tracer.roots)
        idx.knn(3, 1)  # untraced: must not grow the finished trace
        assert len(tracer.roots) == roots

    def test_query_metrics_recorded(self, engine_index):
        idx = engine_index
        count = idx.metrics.counter("query.range.count")
        seconds = idx.metrics.histogram("query.range.seconds")
        pages = idx.metrics.histogram("query.range.pages")
        before = (count.value, seconds.count, pages.count)
        idx.range_query(7, 100.0)
        assert count.value == before[0] + 1
        assert seconds.count == before[1] + 1
        assert pages.count == before[2] + 1

    def test_batch_metrics_count_per_query(self, engine_index):
        idx = engine_index
        count = idx.metrics.counter("query.range_batch.count")
        before = count.value
        idx.range_query_batch([1, 2, 3], 100.0)
        assert count.value == before + 3

    def test_null_registry_records_nothing(self, engine_index):
        idx = engine_index
        recording = idx.metrics
        idx.use_metrics(NULL_REGISTRY)
        try:
            idx.range_query(9, 100.0)
            assert NULL_REGISTRY.snapshot()["counters"] == {}
        finally:
            idx.use_metrics(recording)
        assert idx.metrics is recording


class TestHarnessTracing:
    def test_measure_queries_fills_breakdown(self, sig_index):
        nodes = [0, 3, 9]
        plain = measure_queries(
            "plain", sig_index, lambda n: sig_index.range_query(n, 150.0), nodes
        )
        assert plain.breakdown == {}
        traced = measure_queries(
            "traced",
            sig_index,
            lambda n: sig_index.range_query(n, 150.0),
            nodes,
            trace=True,
        )
        phases = traced.breakdown
        assert phases["query.range"]["count"] == len(nodes)
        assert phases["query.range"]["seconds"] > 0

    def test_measure_batch_queries_fills_breakdown(self, sig_index):
        nodes = [0, 3, 9]
        traced = measure_batch_queries(
            "traced",
            sig_index,
            lambda ns: sig_index.range_query_batch(ns, 150.0),
            nodes,
            trace=True,
        )
        assert traced.breakdown["query.range_batch"]["count"] == 1


class TestLogging:
    def test_configure_logging_levels_and_idempotence(self):
        logger = configure_logging(0)
        try:
            assert logger.name == "repro"
            assert logger.level == logging.WARNING
            handlers = list(logger.handlers)
            assert configure_logging(1).level == logging.INFO
            assert configure_logging(2).level == logging.DEBUG
            # Repeat calls adjust the level without stacking handlers.
            assert list(logger.handlers) == handlers
        finally:
            configure_logging(0)
