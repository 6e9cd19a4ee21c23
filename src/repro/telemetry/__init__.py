"""Zero-dependency observability for the extraction pipeline.

``repro.telemetry`` is the one metrics and tracing layer; every solver
counter, zero-solve assertion and run report reads it.  Four pieces:

* :mod:`~repro.telemetry.registry` -- a process-wide metrics registry
  (counters, gauges, fixed-bucket histograms) with atomic snapshots and
  the snapshot algebra (``minus`` / ``merged``) that powers
  cross-process aggregation.
* :mod:`~repro.telemetry.spans` -- hierarchical tracing spans
  (``with span("htree.extract", ...)``) recording wall time, counter
  deltas and tags into an in-memory trace tree, dumpable as JSONL.
* :mod:`~repro.telemetry.export` -- deterministic Prometheus-text and
  JSON exporters for snapshots.
* :mod:`~repro.telemetry.trace_export` -- Chrome trace-event (Perfetto)
  exporter turning span trees into loadable timelines
  (``repro report out.json --trace-json trace.json``).
* :mod:`~repro.telemetry.report` -- structured :class:`RunReport`
  artifacts (``--telemetry out.json`` on the CLI, rendered back by
  ``repro report``), captured by :func:`telemetry_session`.

Typical use::

    from repro.telemetry import get_registry, metrics_meter, span

    with metrics_meter() as meter:
        with span("htree.extract", segments=n):
            extractor.build_netlist(htree)
    assert meter.delta.counter("loop_solve") == 0      # warm path
    print(meter.delta.memo_hit_rate)                   # race-free
"""

from repro.telemetry.registry import (
    AUDIT_SOLVE,
    BUILD_CHUNK_SECONDS,
    DEFAULT_TIME_BUCKETS,
    FIELD_SOLVE_2D,
    LOG_RECORD,
    LOOKUP_LATENCY,
    LOOP_SOLVE,
    LP_DEDUP_BYPASS,
    LP_DISK_MEMO_CORRUPT,
    LP_DISK_MEMO_FLUSH,
    LP_DISK_MEMO_WARM,
    LP_MEMO_HIT,
    LP_MEMO_MISS,
    LP_PAIR_EVAL,
    LP_PAIR_TOTAL,
    LTE_SUBSAMPLED,
    SOLVER_FACTOR_DENSE,
    SOLVER_FACTOR_SPARSE,
    PARTIAL_SOLVE,
    PROFILER_SAMPLE,
    SERVE_CACHE_HIT,
    SERVE_CACHE_MISS,
    SERVE_COALESCED,
    SERVE_LATENCY,
    SERVE_REJECTED,
    SERVE_REQUEST,
    TABLE_BUILD_POINT,
    TABLE_LOOKUP,
    TABLE_LOOKUP_EDGE,
    TABLE_LOOKUP_EXTRAPOLATED,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    metrics_meter,
)
from repro.telemetry.spans import (
    Span,
    Tracer,
    get_tracer,
    set_spans_enabled,
    span,
    spans_disabled,
    spans_enabled,
    spans_to_jsonl,
)
from repro.telemetry.logs import (
    LogRing,
    StructuredLogger,
    bind_correlation,
    configure_logging,
    correlation_ids,
    correlation_scope,
    current_correlation,
    get_log_ring,
    get_logger,
    install_stdlib_bridge,
    new_request_id,
    recent_logs,
    uninstall_stdlib_bridge,
)
from repro.telemetry.slo import SLOConfig, SLOMonitor, WindowStats
from repro.telemetry.profiler import SamplingProfiler, profiling
from repro.telemetry.export import prometheus_text, snapshot_json
from repro.telemetry.trace_export import (
    chrome_trace,
    chrome_trace_events,
    profiler_trace_events,
    write_chrome_trace,
)
from repro.telemetry.report import (
    REPORT_SCHEMA_VERSION,
    RunReport,
    TelemetrySession,
    load_report,
    render_report,
    telemetry_session,
)

__all__ = [
    # metric names
    "LOOP_SOLVE", "PARTIAL_SOLVE", "FIELD_SOLVE_2D",
    "LP_PAIR_EVAL", "LP_PAIR_TOTAL", "LP_MEMO_HIT", "LP_MEMO_MISS",
    "LP_DEDUP_BYPASS", "LP_DISK_MEMO_WARM", "LP_DISK_MEMO_FLUSH",
    "LP_DISK_MEMO_CORRUPT",
    "LTE_SUBSAMPLED", "SOLVER_FACTOR_DENSE", "SOLVER_FACTOR_SPARSE",
    "LOOKUP_LATENCY", "TABLE_BUILD_POINT", "BUILD_CHUNK_SECONDS",
    "TABLE_LOOKUP", "TABLE_LOOKUP_EDGE", "TABLE_LOOKUP_EXTRAPOLATED",
    "AUDIT_SOLVE",
    "SERVE_REQUEST", "SERVE_CACHE_HIT", "SERVE_CACHE_MISS",
    "SERVE_COALESCED", "SERVE_REJECTED", "SERVE_LATENCY",
    "LOG_RECORD", "PROFILER_SAMPLE",
    "DEFAULT_TIME_BUCKETS",
    # registry
    "MetricsRegistry", "MetricsSnapshot", "HistogramSnapshot",
    "get_registry", "metrics_meter",
    # spans
    "Span", "Tracer", "get_tracer", "span",
    "spans_enabled", "set_spans_enabled", "spans_disabled",
    "spans_to_jsonl",
    # structured logs + correlation
    "LogRing", "StructuredLogger", "get_logger", "get_log_ring",
    "recent_logs", "configure_logging",
    "correlation_scope", "bind_correlation", "correlation_ids",
    "current_correlation", "new_request_id",
    "install_stdlib_bridge", "uninstall_stdlib_bridge",
    # slo + profiler
    "SLOConfig", "SLOMonitor", "WindowStats",
    "SamplingProfiler", "profiling",
    # exporters
    "prometheus_text", "snapshot_json",
    "chrome_trace", "chrome_trace_events", "profiler_trace_events",
    "write_chrome_trace",
    # reports
    "REPORT_SCHEMA_VERSION", "RunReport", "TelemetrySession",
    "telemetry_session", "render_report", "load_report",
]
