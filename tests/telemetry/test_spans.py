"""Tracer: nesting, exception safety, retention bound, JSONL dumps."""

import json
import threading

import pytest

from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    get_tracer,
    span,
    spans_disabled,
    spans_enabled,
    spans_to_jsonl,
)


@pytest.fixture
def tracer():
    return Tracer(registry=MetricsRegistry())


class TestNesting:
    def test_children_attach_to_parent(self, tracer):
        with tracer.span("outer", level=1):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                pass
        roots = tracer.drain()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner_a", "inner_b"]
        assert roots[0].tags == {"level": 1}
        assert roots[0].duration >= sum(
            c.duration for c in roots[0].children
        ) * 0.5  # sanity: parent wall covers children

    def test_current_tracks_innermost(self, tracer):
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is None

    def test_counter_deltas_recorded_per_span(self, tracer):
        registry = tracer.registry
        with tracer.span("outer"):
            registry.inc("work", 2)
            with tracer.span("inner"):
                registry.inc("work", 3)
        root = tracer.drain()[0]
        assert root.metrics == {"work": 5}
        assert root.children[0].metrics == {"work": 3}

    def test_threads_produce_separate_roots(self, tracer):
        def worker(name):
            with tracer.span(name):
                pass

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(r.name for r in tracer.drain()) == ["t0", "t1", "t2"]


class TestExceptionSafety:
    def test_raising_block_closes_span_and_reraises(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        roots = tracer.drain()
        assert len(roots) == 1
        outer = roots[0]
        inner = outer.children[0]
        assert outer.status == "error" and inner.status == "error"
        assert "boom" in inner.error
        assert tracer.current is None  # stack fully restored

    def test_spans_after_exception_are_clean(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError("x")
        with tracer.span("good"):
            pass
        names = [r.name for r in tracer.drain()]
        assert names == ["bad", "good"]


class TestEnablement:
    def test_disabled_tracer_records_nothing(self, tracer):
        tracer.enabled = False
        with tracer.span("invisible") as sp:
            assert sp is None
        assert tracer.drain() == []

    def test_global_spans_disabled_context(self):
        assert spans_enabled()
        with spans_disabled():
            assert not spans_enabled()
            with span("invisible"):
                pass
        assert spans_enabled()
        assert all(
            r.name != "invisible" for r in get_tracer().drain()
        )


class TestRetention:
    def test_root_retention_is_bounded(self):
        tracer = Tracer(registry=MetricsRegistry(), max_roots=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.roots] == ["s2", "s3", "s4"]
        assert tracer.dropped == 2
        tracer.reset()
        assert tracer.roots == [] and tracer.dropped == 0

    def test_dropped_counts_evictions_at_the_default_bound(self):
        tracer = Tracer(registry=MetricsRegistry())
        assert tracer.max_roots == Tracer.DEFAULT_MAX_ROOTS == 4096
        for i in range(tracer.max_roots):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 0
        for i in range(tracer.max_roots, tracer.max_roots + 3):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 3
        roots = tracer.drain()
        assert isinstance(roots, list) and len(roots) == tracer.max_roots
        assert roots[0].name == "s3" and roots[-1].name == "s4098"
        assert tracer.drain() == [] and tracer.dropped == 3

    def test_clear_stack_drops_inherited_open_spans(self, tracer):
        # Simulate a fork taken inside an open span: the child starts
        # with a non-empty stack it can never close.
        tracer._stack().append(object.__new__(type("Fake", (), {})))
        tracer.clear_stack()
        with tracer.span("fresh"):
            pass
        assert [r.name for r in tracer.drain()] == ["fresh"]


class TestSerialization:
    def test_to_dict_shape(self, tracer):
        with tracer.span("outer", n=2):
            with tracer.span("inner"):
                pass
        data = tracer.drain()[0].to_dict()
        assert data["name"] == "outer"
        assert data["status"] == "ok"
        assert data["tags"] == {"n": 2}
        assert [c["name"] for c in data["children"]] == ["inner"]

    def test_spans_to_jsonl_flattens_with_ids(self, tracer):
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
        text = spans_to_jsonl([r.to_dict() for r in tracer.drain()])
        records = [json.loads(line) for line in text.strip().splitlines()]
        assert [r["name"] for r in records] == ["outer", "mid", "leaf"]
        assert [r["depth"] for r in records] == [0, 1, 2]
        assert records[0]["parent"] is None
        assert records[1]["parent"] == records[0]["id"]
        assert records[2]["parent"] == records[1]["id"]
        assert all("children" not in r for r in records)

    def test_empty_jsonl(self):
        assert spans_to_jsonl([]) == ""
