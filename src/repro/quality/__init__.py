"""Extraction-quality observability: coverage maps, audits, regression gates.

``repro.quality`` builds on :mod:`repro.telemetry` to make *numerical*
trustworthiness a first-class artifact, the way PR 3 did for
performance.  Three pieces:

* :mod:`~repro.quality.coverage` -- lookup-domain coverage: every table
  lookup classifies as interior / edge-cell / extrapolated per axis,
  ticking counters and feeding a process-wide per-table coverage map
  with extrapolation hot-spots (the offending geometry).
* :mod:`~repro.quality.audit` -- residual spot-checks:
  :class:`TableAuditor` re-solves a seeded off-grid sample with the
  real solvers, grades the spline against it and emits a
  schema-versioned :class:`TableHealthReport` (p95 relative error vs a
  configurable budget) embedded into library manifests at build time
  and re-checkable via ``repro library audit``.
* :mod:`~repro.quality.regress` -- the bench regression watchdog:
  ``repro diff bench`` compares bench/telemetry records over a
  median/MAD gate, so both speed and accuracy trajectories fail CI
  instead of drifting silently.

Typical use::

    from repro.quality import TableAuditor, get_coverage_tracker

    stats = BuildRunner(root, auditor=TableAuditor()).build(jobs)
    reports, problems = audit_library(TableLibrary(root, create=False))
    assert not problems
"""

from repro.quality.coverage import (
    AXIS_EDGE,
    AXIS_HIGH,
    AXIS_INTERIOR,
    AXIS_LOW,
    AxisCoverage,
    CoverageTracker,
    TableCoverage,
    classify_axis,
    classify_point,
    get_coverage_tracker,
    record_lookup,
    render_coverage,
)
from repro.quality.audit import (
    DEFAULT_ERROR_BUDGET,
    HEALTH_SCHEMA_VERSION,
    TableAuditor,
    TableHealthReport,
    audit_library,
    render_health,
)
from repro.quality.regress import (
    BENCH_SCHEMA_VERSION,
    BenchDiff,
    MetricDelta,
    diff_benches,
    flatten_metrics,
    git_sha,
    load_bench,
    metric_direction,
    record_bench,
    run_metadata,
)

__all__ = [
    # coverage
    "AXIS_INTERIOR", "AXIS_EDGE", "AXIS_LOW", "AXIS_HIGH",
    "classify_axis", "classify_point", "record_lookup",
    "AxisCoverage", "TableCoverage", "CoverageTracker",
    "get_coverage_tracker", "render_coverage",
    # audit
    "HEALTH_SCHEMA_VERSION", "DEFAULT_ERROR_BUDGET",
    "TableAuditor", "TableHealthReport", "audit_library", "render_health",
    # regress
    "BENCH_SCHEMA_VERSION", "run_metadata", "record_bench", "git_sha",
    "flatten_metrics", "metric_direction",
    "MetricDelta", "BenchDiff", "diff_benches", "load_bench",
]
