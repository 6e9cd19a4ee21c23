"""Operational observability end-to-end: one request id everywhere.

The PR-8 acceptance test lives here: a single HTTP request must surface
the same request id in (a) the structured JSON access log, (b) the
``/debug/requests`` span tree and (c) the Perfetto trace export -- plus
the SLO monitor flipping ok -> page under fault injection.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ReproError, ServeError
from repro.serve import ExtractionService, start_server
from repro.serve.requestlog import RequestRecord
from repro.telemetry import (
    SLOConfig,
    SLOMonitor,
    chrome_trace,
    get_log_ring,
    get_registry,
    get_tracer,
)
from repro.telemetry.logs import configure_logging, log_to_stream


@pytest.fixture(autouse=True)
def clean_observability_state():
    get_registry().reset()
    get_tracer().reset()
    get_log_ring().clear()
    configure_logging(stream=None, path=None, level="info")
    yield
    get_registry().reset()
    get_tracer().reset()
    get_log_ring().clear()
    configure_logging(stream=None, path=None, level="info")


@pytest.fixture
def server(service):
    server = start_server(service)
    yield server
    server.shutdown()
    server.server_close()


def get(url: str, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return (response.status, response.read().decode("utf-8"),
                dict(response.headers))


def post(url: str, payload, headers=None):
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers=all_headers, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return (response.status,
                    json.loads(response.read().decode()),
                    dict(response.headers))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), dict(exc.headers)


def access_records(stream: io.StringIO):
    """Parse the captured stream back into access-log records."""
    records = [json.loads(line) for line in
               stream.getvalue().strip().splitlines() if line]
    return [r for r in records if r.get("logger") == "repro.serve.access"]


class TestRequestCorrelation:
    def test_one_id_in_log_debug_ring_and_trace(self, server, service):
        """THE acceptance path: access log, /debug/requests and the
        Perfetto export all carry the same request id."""
        get_tracer().reset()
        stream = io.StringIO()
        with log_to_stream(stream):
            status, envelope, headers = post(
                server.url + "/extract",
                {"root_length_um": 1500.0},
                headers={"X-Request-Id": "req-e2e-test-001"},
            )
        assert status == 200
        rid = "req-e2e-test-001"

        # (0) echoed on the wire and in the envelope
        assert headers["X-Request-Id"] == rid
        assert envelope["request_id"] == rid

        # (a) the JSON access log line
        records = access_records(stream)
        assert len(records) == 1
        line = records[0]
        assert line["request_id"] == rid
        assert line["event"] == "request"
        assert line["method"] == "POST"
        assert line["status"] == 200
        assert line["endpoint"] == "extract"
        assert line["latency_ms"] > 0
        assert line["cache_hit"] in (True, False)
        assert "inflight" in line

        # (b) the /debug/requests span tree
        status, body, _ = get(server.url + "/debug/requests")
        assert status == 200
        debug = json.loads(body)
        match = [r for r in debug["recent"] if r["request_id"] == rid]
        assert len(match) == 1
        record = match[0]
        assert record["endpoint"] == "extract"
        assert record["status"] == 200
        assert record["spans"]["name"] == "serve.extract"
        assert record["spans"]["tags"]["request_id"] == rid

        # (c) the Perfetto export of the server's spans
        spans = [root.to_dict() for root in get_tracer().drain()]
        trace = chrome_trace(spans)
        tagged = [
            e for e in trace["traceEvents"]
            if e.get("args", {}).get("request_id") == rid
        ]
        assert any(e["name"] == "serve.extract" for e in tagged)

    def test_request_id_minted_when_absent(self, server):
        status, envelope, headers = post(
            server.url + "/extract", {"root_length_um": 1500.0})
        assert status == 200
        rid = envelope["request_id"]
        assert rid.startswith("req-")
        assert headers["X-Request-Id"] == rid

    def test_oversized_client_id_truncated(self, server):
        status, envelope, _ = post(
            server.url + "/extract", {"root_length_um": 1500.0},
            headers={"X-Request-Id": "x" * 500})
        assert status == 200
        assert len(envelope["request_id"]) == 128

    def test_error_responses_carry_the_id(self, server):
        status, body, headers = post(
            server.url + "/extract", {},
            headers={"X-Request-Id": "req-err-1"})
        assert status == 400
        assert body["request_id"] == "req-err-1"
        assert headers["X-Request-Id"] == "req-err-1"
        status, body, _ = get(server.url + "/healthz",
                              headers={"X-Request-Id": "req-get-1"})
        assert status == 200

    def test_get_404_logs_and_carries_id(self, server):
        stream = io.StringIO()
        with log_to_stream(stream):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/nope")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read().decode())
        assert body["request_id"].startswith("req-")
        records = access_records(stream)
        assert records[-1]["status"] == 404
        assert records[-1]["level"] == "info"


class TestSpanGranularity:
    def test_extract_span_count_does_not_grow_with_segments(self, service):
        """Spans sit at coarse boundaries: a level-4 tree (60 segments)
        records exactly the spans of a level-1 tree (4 segments)."""

        def count(node):
            return 1 + sum(count(child) for child in node.children)

        counts = {}
        for levels in (1, 4):
            get_tracer().reset()
            service.handle("extract", {"root_length_um": 6000.0,
                                       "levels": levels})
            roots = [r for r in get_tracer().drain()
                     if r.name == "serve.extract"]
            assert len(roots) == 1
            counts[levels] = count(roots[0])
        assert counts[4] == counts[1], counts


class TestAccessLog:
    def test_every_request_leaves_exactly_one_json_line(self, server):
        stream = io.StringIO()
        with log_to_stream(stream):
            post(server.url + "/extract", {"root_length_um": 1500.0})
            post(server.url + "/extract", {"root_length_um": 1500.0})
            get(server.url + "/healthz")
        records = access_records(stream)
        assert len(records) == 3
        posts = [r for r in records if r["method"] == "POST"]
        assert [r["cache_hit"] for r in posts] == [False, True]

    def test_rejections_log_warning_with_reason(self, kit_root):
        service = ExtractionService(kit_root, max_inflight=1)
        held = service.limiter.admit()  # saturate the only slot
        assert held.admitted
        server = start_server(service)
        stream = io.StringIO()
        try:
            with log_to_stream(stream):
                status, body, _ = post(
                    server.url + "/extract", {"root_length_um": 1500.0})
            assert status == 429
        finally:
            held.limiter.release()
            server.shutdown()
            server.server_close()
        records = access_records(stream)
        rejection = [r for r in records if r["status"] == 429]
        assert len(rejection) == 1
        assert rejection[0]["level"] == "warning"
        assert rejection[0]["reason"] == "overloaded"
        # the admission layer logs its own warning too
        limit_logs = [json.loads(line) for line in
                      stream.getvalue().strip().splitlines()
                      if '"repro.serve.limits"' in line]
        assert any(r["event"] == "admission_rejected" for r in limit_logs)
        # and the rejection counted against the SLO
        windows = service.slo.windows("extract")
        assert windows["availability"][0].bad == 1

    def test_draining_logs_warning(self, server, service):
        service.limiter.start_draining()
        stream = io.StringIO()
        with log_to_stream(stream):
            status, body, _ = post(
                server.url + "/extract", {"root_length_um": 1500.0})
        assert status == 503
        records = access_records(stream)
        assert records[-1]["level"] == "warning"
        assert records[-1]["reason"] == "draining"


class TestDebugRequests:
    def test_ring_tracks_slowest_and_errors(self, server):
        post(server.url + "/extract", {"root_length_um": 1500.0})
        post(server.url + "/extract", {})  # 400
        status, body, _ = get(server.url + "/debug/requests")
        debug = json.loads(body)
        assert debug["total"] >= 2
        statuses = [r["status"] for r in debug["recent"]]
        assert 200 in statuses and 400 in statuses
        bad = [r for r in debug["recent"] if r["status"] == 400][0]
        assert "root_length_um" in bad["error"]
        assert debug["slowest"][0]["latency_ms"] >= (
            debug["slowest"][-1]["latency_ms"]
        )


class TestStatusz:
    def test_statusz_renders_html_with_slo_and_requests(self, server):
        post(server.url + "/extract", {"root_length_um": 1500.0},
             headers={"X-Request-Id": "req-statusz-1"})
        status, body, headers = get(server.url + "/statusz")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert "repro serve" in body
        assert "[slo: ok]" in body
        assert "extract" in body
        assert "availability" in body and "latency" in body
        assert "req-statusz-1" in body

    def test_statusz_escapes_untrusted_fields(self, service):
        service.requests.add(RequestRecord(
            request_id="<script>alert(1)</script>",
            endpoint="extract", status=200, latency=0.01,
        ))
        html = service.statusz_html()
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_healthz_and_metrics_surface_slo(self, server):
        post(server.url + "/extract", {"root_length_um": 1500.0})
        status, body, _ = get(server.url + "/healthz")
        health = json.loads(body)
        assert health["slo"]["status"] == "ok"
        assert "extract" in health["slo"]["endpoints"]
        status, body, _ = get(server.url + "/metrics")
        assert "repro_slo_status" in body
        assert "repro_slo_burn_rate" in body


class TestSLOFaultInjection:
    def test_slo_flips_ok_to_page_when_endpoint_starts_failing(
        self, service
    ):
        """Acceptance: healthy traffic reads ok, then injected faults
        drive the endpoint's availability SLI to page."""
        clock_now = [1_000_000.0]
        service.slo = SLOMonitor(SLOConfig(), clock=lambda: clock_now[0])
        service.register("ping", lambda payload: {"pong": True})
        failures = {"on": False}

        def flaky(payload: dict) -> dict:
            if failures["on"]:
                raise RuntimeError("injected fault")
            return {"ok": True}

        service.register("flaky", flaky, cacheable=False)

        for _ in range(20):
            service.handle("flaky", {})
            clock_now[0] += 1.0
        assert service.slo.overall_status() == "ok"

        failures["on"] = True
        for _ in range(20):
            with pytest.raises(RuntimeError):
                service.handle("flaky", {})
            clock_now[0] += 1.0
        assert service.slo.status("flaky")["availability"]["status"] == "page"
        assert service.slo.overall_status() == "page"
        assert service.health()["slo"]["status"] == "page"

    def test_client_errors_do_not_burn_availability(self, service):
        """A fast 400 is the caller's fault: it counts as served (and
        latency-compliant, since it finished quickly) -- only 5xx and
        rejections burn the error budget."""
        service.slo = SLOMonitor()
        with pytest.raises(ServeError):
            service.handle("extract", {})  # missing root_length_um: 400
        windows = service.slo.windows("extract")
        assert windows["availability"][0].total == 1
        assert windows["availability"][0].bad == 0
        assert windows["latency"][0].bad == 0
        # a rejection, by contrast, is bad on both SLIs
        service.observe_rejection("extract")
        windows = service.slo.windows("extract")
        assert windows["availability"][0].bad == 1
        assert windows["latency"][0].bad == 1

    def test_every_handled_request_feeds_slo_exactly_once(self, service):
        service.slo = SLOMonitor()
        service.handle("lookup", {
            "quantity": "loop_inductance",
            "point": {"width_um": 10.0, "length_um": 2000.0},
        })
        with pytest.raises(ReproError):
            service.handle("lookup", {"quantity": "loop_inductance"})
        windows = service.slo.windows("lookup")
        assert windows["availability"][0].total == 2
