"""Metrics registry: counters, gauges and fixed-bucket histograms.

The paper's headline claim is economic -- characterize once, answer
every extraction by table lookup with *zero* solves on the hot path --
and the registry is what makes that claim (and the kernel-layer
economics behind it) continuously measurable.  One process-wide
:class:`MetricsRegistry` holds three metric kinds:

* **Counters** -- monotone event counts (``loop_solve``,
  ``lp_pair_eval``, ``lp_memo_hit`` ...).  The expensive entry points
  tick them; warm-path acceptance tests assert their deltas are zero.
* **Gauges** -- last-written values (``memo_cache_entries``).
* **Histograms** -- fixed-bucket latency distributions
  (``lookup_latency_seconds``, ``table_build_point_seconds``).  Bucket
  upper bounds are inclusive (Prometheus ``le`` semantics).

Everything is guarded by **one** registry lock, so
:meth:`MetricsRegistry.snapshot` is atomic across every metric: derived
quantities like the memo hit rate are computed from a single coherent
snapshot instead of two racy reads.

Snapshots are plain, picklable, JSON-able value objects
(:class:`MetricsSnapshot`) supporting difference (``minus``) and sum
(``merged``) -- the algebra the cross-process build aggregation in
:mod:`repro.library.runner` is built on: each pool worker returns the
snapshot *delta* of its chunk, and the parent merges the deltas into
true build totals.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import TelemetryError

__all__ = [
    "LOOP_SOLVE",
    "PARTIAL_SOLVE",
    "FIELD_SOLVE_2D",
    "LP_PAIR_EVAL",
    "LP_PAIR_TOTAL",
    "LP_MEMO_HIT",
    "LP_MEMO_MISS",
    "LP_DEDUP_BYPASS",
    "LP_DISK_MEMO_WARM",
    "LP_DISK_MEMO_FLUSH",
    "LP_DISK_MEMO_CORRUPT",
    "TABLE_LOOKUP",
    "TABLE_LOOKUP_EDGE",
    "TABLE_LOOKUP_EXTRAPOLATED",
    "AUDIT_SOLVE",
    "TRANSIENT_STEPS",
    "TRANSIENT_DT_SNAPPED",
    "DC_START_FALLBACK",
    "SINGULAR_SYSTEM",
    "LTE_SUBSAMPLED",
    "SOLVER_FACTOR_DENSE",
    "SOLVER_FACTOR_SPARSE",
    "NETLIST_LINT",
    "NETLIST_LINT_FINDING",
    "SERVE_REQUEST",
    "SERVE_CACHE_HIT",
    "SERVE_CACHE_MISS",
    "SERVE_COALESCED",
    "SERVE_REJECTED",
    "SERVE_LATENCY",
    "LOG_RECORD",
    "PROFILER_SAMPLE",
    "SWEEP_RUNNING",
    "SWEEP_POINTS_TOTAL",
    "SWEEP_POINTS_DONE",
    "SWEEP_POINTS_FAILED",
    "SWEEP_POINTS_SKIPPED",
    "SWEEP_POINTS_PER_SECOND",
    "SWEEP_ETA_SECONDS",
    "SWEEP_MEMO_HIT_RATE",
    "SWEEP_SOLVER_CALLS",
    "OBSERVATIONAL_PREFIXES",
    "is_solver_counter",
    "LOOKUP_LATENCY",
    "TABLE_BUILD_POINT",
    "BUILD_CHUNK_SECONDS",
    "FACTOR_SECONDS",
    "DEFAULT_TIME_BUCKETS",
    "HistogramSnapshot",
    "MetricsSnapshot",
    "MetricsRegistry",
    "get_registry",
    "metrics_meter",
]

# ----------------------------------------------------------------------
# canonical metric names
# ----------------------------------------------------------------------
#: Solver-invocation counters (the zero-solve warm-path assertions).
LOOP_SOLVE = "loop_solve"
PARTIAL_SOLVE = "partial_inductance_solve"
FIELD_SOLVE_2D = "field_solve_2d"

#: Kernel-layer counters: Hoer-Love pair evaluations actually performed,
#: the raw same-axis pair count they were deduplicated from, and the
#: memo-cache hit/miss counts.  ``lp_pair_total / lp_pair_eval`` is the
#: measured end-to-end evaluation-reduction (dedup x memo) factor.
LP_PAIR_EVAL = "lp_pair_eval"
LP_PAIR_TOTAL = "lp_pair_total"
LP_MEMO_HIT = "lp_memo_hit"
LP_MEMO_MISS = "lp_memo_miss"

#: Dedup-assembly economics (PR 7): tiny memo-less blocks skip the
#: signature machinery entirely (``lp_dedup_bypass``), and the
#: persistent on-disk memo shard counts entries warmed from / flushed
#: to disk plus files rejected by the integrity check.
LP_DEDUP_BYPASS = "lp_dedup_bypass"
LP_DISK_MEMO_WARM = "lp_disk_memo_warm"
LP_DISK_MEMO_FLUSH = "lp_disk_memo_flush"
LP_DISK_MEMO_CORRUPT = "lp_disk_memo_corrupt"

#: Lookup-domain coverage counters (ticked by every table lookup; see
#: :mod:`repro.quality.coverage`).  Every query classifies as interior,
#: edge-cell or extrapolated; extrapolated lookups additionally tick a
#: per-axis tagged counter ``table_lookup_extrapolated.<axis>.<side>``.
TABLE_LOOKUP = "table_lookup"
TABLE_LOOKUP_EDGE = "table_lookup_edge"
TABLE_LOOKUP_EXTRAPOLATED = "table_lookup_extrapolated"

#: Direct re-solves performed by the table auditor -- never ticked on a
#: plain extraction path (auditing is strictly opt-in).
AUDIT_SOLVE = "audit_direct_solve"

#: Simulation-observability counters (PR 5; see
#: :mod:`repro.circuit.diagnostics` and :mod:`repro.circuit.lint`).
#: These are *observational* -- :func:`is_solver_counter` excludes the
#: ``circuit_*`` / ``netlist_lint*`` families from the zero-solve
#: totals, the same way it excludes ``table_lookup*``.
TRANSIENT_STEPS = "circuit_transient_steps"
TRANSIENT_DT_SNAPPED = "circuit_dt_snapped"
DC_START_FALLBACK = "circuit_dc_start_fallback"
SINGULAR_SYSTEM = "circuit_singular_system"
#: Diagnostics capped the LTE probe count on a large system (PR 7).
LTE_SUBSAMPLED = "circuit_lte_subsampled"
#: MNA factorizations.  Every analysis factors sparse, so the dense
#: counter never ticks; its name stays because
#: ``benchmarks/pipeline/run.py`` still reads it.
SOLVER_FACTOR_DENSE = "circuit_solver_dense"
SOLVER_FACTOR_SPARSE = "circuit_solver_sparse"
NETLIST_LINT = "netlist_lint"
NETLIST_LINT_FINDING = "netlist_lint_finding"

#: Serving-layer counters (PR 6; see :mod:`repro.serve`).  Requests are
#: ticked per endpoint as ``serve_request.<endpoint>`` alongside the
#: totals; the cache/coalescing/rejection counters make the daemon's
#: economics (how much work the result cache absorbs) observable on
#: ``/metrics`` and in ``repro report``.
SERVE_REQUEST = "serve_request"
SERVE_CACHE_HIT = "serve_cache_hit"
SERVE_CACHE_MISS = "serve_cache_miss"
SERVE_COALESCED = "serve_coalesced"
SERVE_REJECTED = "serve_rejected"

#: Operational-observability counters (PR 8; see
#: :mod:`repro.telemetry.logs` and :mod:`repro.telemetry.profiler`).
#: Structured log records tick ``log_record`` (+ per-level tag) and the
#: sampling profiler ticks ``profiler_sample`` per captured stack.
LOG_RECORD = "log_record"
PROFILER_SAMPLE = "profiler_sample"

#: Sweep-campaign progress gauges (PR 10; see
#: :mod:`repro.scenarios.sweep`).  The :class:`SweepRunner` publishes
#: live aggregated progress onto these while a campaign runs -- points
#: done/failed/skipped, throughput, ETA and the merged memo-hit-rate /
#: solver-call counters -- so the Prometheus exporter surfaces them as
#: ``repro_sweep_*`` without any sweep-specific export code.
SWEEP_RUNNING = "sweep_running"
SWEEP_POINTS_TOTAL = "sweep_points_total"
SWEEP_POINTS_DONE = "sweep_points_done"
SWEEP_POINTS_FAILED = "sweep_points_failed"
SWEEP_POINTS_SKIPPED = "sweep_points_skipped"
SWEEP_POINTS_PER_SECOND = "sweep_points_per_second"
SWEEP_ETA_SECONDS = "sweep_eta_seconds"
SWEEP_MEMO_HIT_RATE = "sweep_memo_hit_rate"
SWEEP_SOLVER_CALLS = "sweep_solver_calls"

#: Counter-name prefixes that *observe* rather than record solver work:
#: the ``table_lookup*`` coverage family (PR 4), the ``circuit_*`` /
#: ``netlist_lint*`` simulation-observability families (PR 5), the
#: ``serve_*`` daemon families (PR 6) and the ``log_*`` / ``slo_*`` /
#: ``profiler_*`` operational families (PR 8).  Warm lookups, transient
#: step counts, netlist lints, served requests, log lines and profiler
#: samples legitimately tick these, so zero-solve totals must not count
#: them.  ``sweep_*`` (PR 10) is campaign-progress bookkeeping, never
#: solver work.
OBSERVATIONAL_PREFIXES: Tuple[str, ...] = (
    "table_lookup", "circuit_", "netlist_lint", "serve_",
    "log_", "slo_", "profiler_", "sweep_",
)


def is_solver_counter(name: str) -> bool:
    """True when counter *name* records solver work (not observation)."""
    return not name.startswith(OBSERVATIONAL_PREFIXES)

#: Latency histograms of the hot paths.
LOOKUP_LATENCY = "lookup_latency_seconds"
TABLE_BUILD_POINT = "table_build_point_seconds"
BUILD_CHUNK_SECONDS = "build_chunk_seconds"
FACTOR_SECONDS = "circuit_factor_seconds"
SERVE_LATENCY = "serve_latency_seconds"

#: Default histogram bucket upper bounds [s]: 1 us .. 1 min, log-spaced.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0,
)


def _validated_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if not bounds:
        raise TelemetryError("histogram needs at least one bucket bound")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise TelemetryError("histogram bucket bounds must be strictly increasing")
    return bounds


# ----------------------------------------------------------------------
# snapshots (immutable value objects)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state: per-bucket counts, sum and total count.

    ``counts`` has ``len(buckets) + 1`` entries; the last one is the
    overflow (``+Inf``) bucket.  Counts are *per-bucket*, not
    cumulative; exporters cumulate for the Prometheus text format.
    """

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]
    sum: float
    count: int

    def minus(self, older: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.buckets != older.buckets:
            raise TelemetryError("cannot difference histograms with different buckets")
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(a - b for a, b in zip(self.counts, older.counts)),
            sum=self.sum - older.sum,
            count=self.count - older.count,
        )

    def merged(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.buckets != other.buckets:
            raise TelemetryError("cannot merge histograms with different buckets")
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate *q*-quantile from the bucket histogram.

        Returns the upper bound of the first *non-empty* bucket whose
        cumulative count reaches the quantile target (so ``q=0`` is the
        bound of the smallest observed bucket, not the smallest bucket
        that exists), the last finite bound when the quantile falls in
        the overflow bucket, and 0.0 when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            if n and running >= target:
                return bound
        return self.buckets[-1]

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramSnapshot":
        return cls(
            buckets=tuple(float(b) for b in data["buckets"]),
            counts=tuple(int(c) for c in data["counts"]),
            sum=float(data["sum"]),
            count=int(data["count"]),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """An atomic, picklable copy of every metric in a registry.

    Supports the two operations cross-process aggregation needs:
    ``minus`` (delta between two snapshots of the same registry) and
    ``merged`` (sum of snapshots from different processes).  For gauges,
    ``minus`` keeps the newer value and ``merged`` keeps the other
    snapshot's value (last writer wins).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        """Value of counter *name* (0 when never ticked)."""
        return self.counters.get(name, 0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self.gauges.get(name, default)

    def histogram(self, name: str) -> Optional[HistogramSnapshot]:
        return self.histograms.get(name)

    @property
    def total_counter_events(self) -> int:
        return sum(self.counters.values())

    @property
    def memo_hit_rate(self) -> float:
        """Memo-cache hit fraction, race-free by construction.

        Hits and misses come from the *same* atomic snapshot, so the
        rate can never pair a fresh hit count with a stale miss count
        (the double-read race the legacy helper had).
        """
        hits = self.counter(LP_MEMO_HIT)
        total = hits + self.counter(LP_MEMO_MISS)
        return hits / total if total else 0.0

    @property
    def dedup_factor(self) -> float:
        """Raw same-axis pairs per Hoer-Love evaluation (1.0 when idle)."""
        evals = self.counter(LP_PAIR_EVAL)
        total = self.counter(LP_PAIR_TOTAL)
        return total / evals if evals else 1.0

    def minus(self, older: "MetricsSnapshot") -> "MetricsSnapshot":
        """The delta accumulated between *older* and this snapshot."""
        counters = {}
        for name in set(self.counters) | set(older.counters):
            delta = self.counters.get(name, 0) - older.counters.get(name, 0)
            if delta:
                counters[name] = delta
        histograms = {}
        for name, hist in self.histograms.items():
            old = older.histograms.get(name)
            delta_h = hist.minus(old) if old is not None else hist
            if delta_h.count:
                histograms[name] = delta_h
        return MetricsSnapshot(
            counters=counters, gauges=dict(self.gauges), histograms=histograms
        )

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Element-wise sum with *other* (cross-process aggregation)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        histograms = dict(self.histograms)
        for name, hist in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = hist if mine is None else mine.merged(hist)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        return cls(
            counters={str(k): int(v)
                      for k, v in data.get("counters", {}).items()},
            gauges={str(k): float(v)
                    for k, v in data.get("gauges", {}).items()},
            histograms={
                str(k): HistogramSnapshot.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
        )


# ----------------------------------------------------------------------
# live metrics (registry-internal, mutated under the registry lock)
# ----------------------------------------------------------------------
class _Histogram:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bucket upper bounds are inclusive: value == bound lands in
        # that bucket (Prometheus `le` semantics).
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(self.counts),
            sum=self.sum,
            count=self.count,
        )


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and histograms.

    Metrics are created on first use; a name is permanently bound to its
    first-seen kind (incrementing a name previously used as a gauge
    raises).  Every operation -- including :meth:`snapshot` -- holds one
    internal lock, so snapshots are atomic across all metrics.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    # -- writes --------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* (created at 0 on first use)."""
        with self._lock:
            self._check_kind(name, "counter")
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value*."""
        with self._lock:
            self._check_kind(name, "gauge")
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """Record *value* into histogram *name*.

        *buckets* fixes the bucket bounds on first use (default:
        :data:`DEFAULT_TIME_BUCKETS`); later calls must not disagree.
        """
        with self._lock:
            self._check_kind(name, "histogram")
            hist = self._histograms.get(name)
            if hist is None:
                bounds = _validated_buckets(
                    buckets if buckets is not None else DEFAULT_TIME_BUCKETS
                )
                hist = self._histograms[name] = _Histogram(bounds)
            elif buckets is not None and tuple(
                float(b) for b in buckets
            ) != hist.buckets:
                raise TelemetryError(
                    f"histogram {name!r} already registered with different buckets"
                )
            hist.observe(float(value))

    def _check_kind(self, name: str, kind: str) -> None:
        # caller holds the lock
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise TelemetryError(
                    f"metric {name!r} is a {other_kind}, not a {kind}"
                )

    # -- reads ---------------------------------------------------------
    def counter_value(self, name: Optional[str] = None) -> int:
        """Counter *name*'s value, or the sum of every counter when None."""
        with self._lock:
            if name is not None:
                return self._counters.get(name, 0)
            return sum(self._counters.values())

    def counters_snapshot(self) -> Dict[str, int]:
        """A copy of just the counters (one lock acquisition)."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> MetricsSnapshot:
        """An atomic copy of every metric (single lock acquisition)."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    name: hist.snapshot()
                    for name, hist in self._histograms.items()
                },
            )

    # -- maintenance ---------------------------------------------------
    def reset(self) -> None:
        """Drop every metric (tests call this before a measured region)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every instrumented layer writes to.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _GLOBAL_REGISTRY


class metrics_meter:
    """Context manager measuring registry deltas inside a ``with`` block.

    Differences snapshots instead of resetting the registry, so meters
    nest and co-exist::

        with metrics_meter() as meter:
            extractor.segment_rlc(length)
        assert meter.delta.counter("loop_solve") == 0
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else get_registry()
        self._start: Optional[MetricsSnapshot] = None
        self.delta: MetricsSnapshot = MetricsSnapshot()

    def __enter__(self) -> "metrics_meter":
        self._start = self.registry.snapshot()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.delta = self.registry.snapshot().minus(self._start)

    @property
    def counts(self) -> Dict[str, int]:
        """Nonzero counter deltas observed inside the block."""
        return dict(self.delta.counters)

    @property
    def total(self) -> int:
        """Solver-work counter deltas observed inside the block.

        Purely observational families (:data:`OBSERVATIONAL_PREFIXES`:
        ``table_lookup*``, ``circuit_*``, ``netlist_lint*``) are
        excluded: a warm lookup or a netlist lint is not solver work.
        """
        return sum(
            v for k, v in self.delta.counters.items()
            if is_solver_counter(k)
        )


def iter_counter_items(snapshot: MetricsSnapshot) -> Iterator[Tuple[str, int]]:
    """Counters of *snapshot* in sorted-name order (exporter helper)."""
    return iter(sorted(snapshot.counters.items()))
