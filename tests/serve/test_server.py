"""End-to-end HTTP: in-process daemon, concurrent clients, drain.

The acceptance test for the PR lives here: repeated identical
``/extract`` requests against a live server are served from the result
cache with **zero** field/loop-solver invocations, proven via
``metrics_meter``.
"""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.serve import ExtractionService, start_server
from repro.telemetry import metrics_meter


@pytest.fixture
def server(service):
    server = start_server(service)
    yield server
    server.shutdown()
    server.server_close()


def get(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        body = response.read().decode("utf-8")
        content_type = response.headers.get("Content-Type", "")
        return response.status, body, content_type


def post(url: str, payload, raw: bytes = None):
    data = raw if raw is not None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestRoutes:
    def test_healthz(self, server, service):
        status, body, content_type = get(server.url + "/healthz")
        assert status == 200
        assert content_type.startswith("application/json")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["kit"]["manifest_sha"] == service.kit_sha

    def test_metrics_is_prometheus_text(self, server):
        post(server.url + "/extract", {"root_length_um": 1500.0})
        status, body, content_type = get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_serve_request counter" in body
        assert "# HELP repro_serve_latency_seconds " in body

    def test_extract_roundtrip(self, server):
        status, envelope = post(
            server.url + "/extract", {"root_length_um": 3000.0, "levels": 2})
        assert status == 200
        assert envelope["endpoint"] == "extract"
        assert envelope["result"]["num_sinks"] == 4

    def test_lookup_roundtrip(self, server):
        status, envelope = post(server.url + "/lookup", {
            "quantity": "loop_inductance",
            "point": {"width_um": 10.0, "length_um": 2000.0},
        })
        assert status == 200
        assert envelope["result"]["value"] > 0.0

    def test_unknown_get_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_unknown_post_404(self, server):
        status, body = post(server.url + "/nope", {})
        assert status == 404
        assert "error" in body

    def test_invalid_json_400(self, server):
        status, body = post(server.url + "/extract", None, raw=b"{nope")
        assert status == 400
        assert "invalid JSON" in body["error"]

    def test_non_object_body_400(self, server):
        status, body = post(server.url + "/extract", [1, 2])
        assert status == 400

    def test_validation_error_400(self, server):
        status, body = post(server.url + "/extract", {})
        assert status == 400
        assert "root_length_um" in body["error"]


class TestCacheEconomics:
    def test_repeat_extract_is_cached_and_solver_free(self, server, service):
        request = {"root_length_um": 3000.0, "levels": 2}
        status, first = post(server.url + "/extract", request)
        assert status == 200
        assert first["cache"]["hit"] is False

        with metrics_meter() as meter:
            status, second = post(server.url + "/extract", request)
        assert status == 200
        assert second["cache"]["hit"] is True
        assert second["result"] == first["result"]
        # the acceptance criterion: zero solver work on the cached path
        assert meter.total == 0, meter.counts
        assert service.cache.hits >= 1

    def test_concurrent_identical_requests_compute_once(self, server,
                                                        service):
        request = {"root_length_um": 6000.0, "levels": 3}
        results = []

        def client():
            results.append(post(server.url + "/extract", request))

        pool = [threading.Thread(target=client) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30.0)

        assert len(results) == 8
        assert all(status == 200 for status, _ in results)
        reference = results[0][1]["result"]
        assert all(env["result"] == reference for _, env in results)
        # exactly one computation: everyone else hit the cache or
        # coalesced onto the leader
        computed = sum(
            1 for _, env in results if not env["cache"]["hit"]
        ) - service.coalescer.coalesced
        assert computed == 1


class TestKeepAlive:
    def test_persistent_connection_round_trips_do_not_stall(self, server):
        """Each response leaves in one send: with headers and body in
        two, Nagle holds the body for the client's delayed ACK and every
        keep-alive round trip costs ~40 ms."""
        url = urllib.parse.urlsplit(server.url)
        body = json.dumps({"root_length_um": 3000.0, "levels": 2})
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request("POST", "/extract", body)  # warm the result cache
            conn.getresponse().read()
            latencies = []
            for i in range(20):
                t0 = time.perf_counter()
                if i % 2:
                    conn.request("POST", "/extract", body)
                else:
                    conn.request("GET", "/healthz")
                response = conn.getresponse()
                payload = json.loads(response.read())
                latencies.append(time.perf_counter() - t0)
                assert response.status == 200
                if i % 2:
                    assert payload["cache"]["hit"] is True
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.010, latencies


class TestBackpressure:
    def test_drain_rejects_new_requests_with_503(self, server, service):
        service.limiter.start_draining()
        status, body = post(
            server.url + "/extract", {"root_length_um": 1500.0})
        assert status == 503
        assert body["error"] == "draining"
        assert body["retry"] is True
        # health stays reachable for the orchestrator
        _, health_body, _ = get(server.url + "/healthz")
        assert json.loads(health_body)["status"] == "draining"

    def test_overload_rejects_with_429(self, kit_root):
        service = ExtractionService(kit_root, max_inflight=1)
        held = service.limiter.admit()  # saturate the only slot
        assert held.admitted
        server = start_server(service)
        try:
            status, body = post(
                server.url + "/extract", {"root_length_um": 1500.0})
            assert status == 429
            assert body["error"] == "overloaded"
        finally:
            held.limiter.release()
            server.shutdown()
            server.server_close()
        assert service.limiter.rejected == 1

    def test_wait_idle_after_load(self, server, service):
        post(server.url + "/extract", {"root_length_um": 1500.0})
        assert service.limiter.wait_idle(timeout=5.0)
        assert service.limiter.inflight == 0
