"""HTTP transport for the extraction service (stdlib only).

A deliberately thin layer: :class:`ExtractionServer` is a
``ThreadingHTTPServer`` (one thread per connection, daemon threads) that
owns one :class:`~repro.serve.service.ExtractionService` and translates
HTTP to :meth:`~repro.serve.service.ExtractionService.handle` calls.
All policy lives below it -- admission in
:class:`~repro.serve.limits.ConcurrencyLimiter`, dedup in the
coalescer, result reuse in the cache -- so the handler here only parses,
dispatches, and serializes.

Routes::

    GET  /healthz         identity + load + cache + SLO (served draining)
    GET  /metrics         Prometheus text exposition of the live registry
    GET  /statusz         human-readable status page (HTML)
    GET  /debug/requests  recent + slowest requests with span trees
    POST /extract         geometry -> RLC netlist (``{"result": ...}``)
    POST /lookup          raw table lookup with coverage classification
    POST /skew            H-tree skew summary (RC vs RLC)

Request correlation: every request gets a request id -- an incoming
``X-Request-Id`` header is honored (truncated to a sane length),
otherwise one is minted -- which is returned on the response, bound as
the correlation scope around handling (so log records and tracer spans
carry it), stamped into the response envelope, and written to the
structured JSON access log (one line per request: request id, endpoint,
status, latency ms, cache hit/miss, inflight).  429/503 admission
rejections log at WARNING with the reason.

POST requests pass admission control first: 429 when the in-flight
ceiling is hit, 503 once draining.  :func:`run_server` is the blocking
entry point used by ``repro serve``; it installs SIGTERM/SIGINT handlers
implementing the graceful drain (stop admitting, wait for in-flight to
reach zero, then shut the listener down).  :func:`start_server` starts
the same server on a background thread -- the form the end-to-end tests
and the in-process load driver use.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.errors import ReproError, ServeError
from repro.serve.service import ExtractionService
from repro.telemetry.logs import correlation_scope, get_logger, new_request_id

__all__ = ["ExtractionServer", "start_server", "run_server"]

log = logging.getLogger(__name__)

#: Structured access log ("repro.serve.access" records, one per request).
access_log = get_logger("repro.serve.access")

#: Longest accepted client-supplied X-Request-Id.
MAX_REQUEST_ID = 128

#: Largest accepted request body; extraction requests are tiny.
MAX_BODY_BYTES = 1 << 20

#: Default seconds to wait for in-flight requests during drain.
DRAIN_TIMEOUT = 10.0


class _Handler(BaseHTTPRequestHandler):
    """Request handler: parse, admit, dispatch, serialize."""

    server: "ExtractionServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every connection: a response stdlib writes in
    # several sends (``send_error``) can never stall on Nagle either.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _begin_request(self) -> str:
        """Resolve this request's id and start its latency clock."""
        rid = (self.headers.get("X-Request-Id") or "").strip()
        rid = rid[:MAX_REQUEST_ID] if rid else new_request_id()
        self._request_id = rid
        self._t0 = time.perf_counter()
        self._access: dict = {}
        return rid

    def log_request(self, code: object = "-", size: object = "-") -> None:
        """One structured JSON access-log line per response sent.

        ``send_response`` invokes this, so every answered request --
        including 404s and handler crashes -- leaves exactly one line.
        Backpressure rejections (429/503) and server errors log at
        WARNING so an operator tailing the log sees them without
        filtering.
        """
        try:
            status = int(code)
        except (TypeError, ValueError):
            status = 0
        fields = dict(getattr(self, "_access", None) or {})
        rid = getattr(self, "_request_id", None)
        if rid:
            fields.setdefault("request_id", rid)
        t0 = getattr(self, "_t0", None)
        if t0 is not None:
            fields["latency_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
        level = "warning" if (status in (429, 503) or status >= 500) else "info"
        access_log.log(
            level, "request",
            method=self.command,
            path=self.path,
            status=status,
            client=self.address_string(),
            inflight=self.server.service.limiter.inflight,
            **fields,
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # http.server internals (log_error etc.) land here; keep them
        # structured too instead of the default stderr one-liners.
        get_logger("repro.serve.http").warning(
            "http", message=format % args, client=self.address_string(),
        )

    def _send(self, status: int, payload: Union[dict, str],
              content_type: str = "application/json") -> None:
        """Write one response -- status line, headers, body -- in one send.

        A dict *payload* is serialized as JSON, a string is sent as is.

        ``end_headers()`` would flush the headers as a send of their
        own; on a keep-alive socket Nagle's algorithm then holds the
        body until the client's delayed ACK (~40 ms) arrives.  The blank
        line and the body go into the header buffer instead, and
        ``flush_headers()`` writes it all with one ``wfile.write``.
        """
        if isinstance(payload, dict):
            payload = json.dumps(payload, sort_keys=True)
        body = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        rid = getattr(self, "_request_id", None)
        if rid:
            self.send_header("X-Request-Id", rid)
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
        else:
            self._headers_buffer.append(b"\r\n" + body)
            self.flush_headers()

    def _read_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            return {}
        try:
            length = int(length)
        except ValueError:
            raise ServeError("bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise ServeError("request body too large", status=413)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        service = self.server.service
        rid = self._begin_request()
        path = urlsplit(self.path).path
        with correlation_scope(request_id=rid):
            try:
                if path == "/healthz":
                    self._send(200, service.health())
                elif path == "/metrics":
                    self._send(200, service.metrics_text(),
                               "text/plain; charset=utf-8")
                elif path == "/statusz":
                    self._send(200, service.statusz_html(),
                               "text/html; charset=utf-8")
                elif path == "/debug/requests":
                    self._send(200, service.requests.to_dict())
                else:
                    self._send(
                        404,
                        {"error": f"no such path {self.path!r}",
                         "request_id": rid},
                    )
            except BrokenPipeError:  # client went away; nothing to answer
                pass
            except Exception as exc:  # pragma: no cover - defensive
                log.exception("GET %s failed", self.path)
                self._send(
                    500,
                    {"error": f"internal error: {exc}", "request_id": rid},
                )

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        endpoint = urlsplit(self.path).path.lstrip("/")
        rid = self._begin_request()
        self._access["endpoint"] = endpoint
        with correlation_scope(request_id=rid):
            try:
                admission = service.limiter.admit()
                if not admission.admitted:
                    self._access["reason"] = admission.reason
                    service.observe_rejection(endpoint)
                    self._send(
                        admission.status,
                        {"error": admission.reason, "retry": True,
                         "request_id": rid},
                    )
                    return
                with admission:
                    payload = self._read_body()
                    envelope = service.handle(endpoint, payload)
                cache = envelope.get("cache")
                if isinstance(cache, dict) and "hit" in cache:
                    self._access["cache_hit"] = bool(cache["hit"])
                self._send(200, envelope)
            except BrokenPipeError:
                pass
            except ServeError as exc:
                self._send(
                    exc.status, {"error": str(exc), "request_id": rid}
                )
            except ReproError as exc:
                self._send(400, {"error": str(exc), "request_id": rid})
            except Exception as exc:  # pragma: no cover - defensive
                log.exception("POST %s failed", self.path)
                self._send(
                    500,
                    {"error": f"internal error: {exc}", "request_id": rid},
                )


class ExtractionServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ExtractionService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: ExtractionService):
        super().__init__(address, _Handler)
        self.service = service

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def start_server(
    service: ExtractionService, host: str = "127.0.0.1", port: int = 0
) -> ExtractionServer:
    """Start an :class:`ExtractionServer` on a background thread.

    Returns the listening server; callers stop it with
    ``server.shutdown(); server.server_close()``.
    """
    server = ExtractionServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server


def run_server(
    service: ExtractionService,
    host: str = "127.0.0.1",
    port: int = 8080,
    drain_timeout: float = DRAIN_TIMEOUT,
    install_signals: bool = True,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully.  Blocking.

    On signal: admission flips to 503, in-flight requests get up to
    *drain_timeout* seconds to finish, then the listener shuts down
    (``shutdown()`` must run off the ``serve_forever`` thread --
    a ``ThreadingHTTPServer`` constraint).  Returns a process exit code.
    """
    server = ExtractionServer((host, port), service)

    def _drain_and_stop() -> None:
        drained = service.limiter.wait_idle(timeout=drain_timeout)
        if not drained:
            log.warning(
                "drain timed out after %.1fs with %d request(s) in flight",
                drain_timeout, service.limiter.inflight,
            )
        server.shutdown()

    def _on_signal(signum: int, frame: Optional[object]) -> None:
        log.info("signal %d: draining", signum)
        service.limiter.start_draining()
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    log.info(
        "serving kit %s (%d tables) on %s",
        service.kit_sha[:12], len(service.library), server.url,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0
