"""Structured run reports: one JSON artifact per instrumented run.

A :class:`RunReport` freezes everything a run did into a reproducible
artifact: the command, wall duration, the parent process's metric
deltas, the aggregated worker-process metrics of a parallel build, the
span tree, and free-form metadata (build stats, library root, ...).
Every CLI entry point can emit one via ``--telemetry out.json``, and
``repro report out.json`` renders it back as a span tree + top-metrics
table -- performance claims become diffable files instead of scrollback.

:func:`telemetry_session` is the capture harness: it enables span
recording, wraps the body in a root span, and on exit (even a raising
one) assembles the report from the registry delta and the drained trace
tree.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import TelemetryError
from repro.ioutil import atomic_write_text
from repro.telemetry.registry import (
    MetricsSnapshot,
    get_registry,
)
from repro.telemetry.spans import get_tracer, spans_to_jsonl

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "RunReport",
    "telemetry_session",
    "render_report",
    "load_report",
]

#: Bump when the report JSON layout changes; only this version loads.
REPORT_SCHEMA_VERSION = 5


@dataclass
class RunReport:
    """A structured telemetry report for one run."""

    command: str
    started_at: float = 0.0
    duration: float = 0.0
    #: Parent-process metric deltas over the session.
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: Aggregated pool-worker metric deltas (parallel builds), if any.
    worker_metrics: Optional[MetricsSnapshot] = None
    #: Serialized span trees (see :meth:`repro.telemetry.Span.to_dict`).
    spans: List[dict] = field(default_factory=list)
    #: Free-form extras (build stats, argv, library root, ...).
    meta: Dict[str, object] = field(default_factory=dict)
    #: Per-table lookup-domain coverage maps touched during the session
    #: (see :meth:`repro.quality.coverage.TableCoverage.to_dict`); empty
    #: for sessions that never hit a named table.
    coverage: List[dict] = field(default_factory=list)
    #: Table-health reports attached by audited builds (see
    #: :meth:`repro.quality.audit.TableHealthReport.to_dict`).
    table_health: List[dict] = field(default_factory=list)
    #: Simulation-observability section: per-netlist transient
    #: diagnostics and netlist-health summaries keyed by a caller-chosen
    #: label (``"rc"`` / ``"rlc"`` for the skew and fig1 experiments).
    #: Empty for non-simulating runs.
    simulation: Dict[str, dict] = field(default_factory=dict)
    #: SLO section: the burn-rate summary a serving session ended
    #: with (see :meth:`repro.telemetry.slo.SLOMonitor.summary`); empty
    #: for non-serving runs.
    slo: Dict[str, object] = field(default_factory=dict)
    #: Profile section: sampling-profiler header + hottest stacks
    #: (see :meth:`repro.telemetry.profiler.SamplingProfiler.summary`);
    #: empty unless the run passed ``--profile``.
    profile: Dict[str, object] = field(default_factory=dict)
    #: Campaign section: the sweep-campaign summary
    #: (:meth:`repro.scenarios.campaign.CampaignReport.summary`) when
    #: the session drove a parameter sweep; empty otherwise.
    campaign: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def totals(self) -> MetricsSnapshot:
        """Parent + worker metrics combined: the *true* run totals."""
        if self.worker_metrics is None:
            return self.metrics
        return self.metrics.merged(self.worker_metrics)

    def spans_jsonl(self) -> str:
        """The span tree flattened to JSONL (one span per line)."""
        return spans_to_jsonl(self.spans)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": self.command,
            "started_at": self.started_at,
            "duration": self.duration,
            "metrics": self.metrics.to_dict(),
            "spans": self.spans,
            "meta": self.meta,
            "coverage": self.coverage,
            "table_health": self.table_health,
            "simulation": self.simulation,
            "slo": self.slo,
            "profile": self.profile,
            "campaign": self.campaign,
        }
        if self.worker_metrics is not None:
            data["worker_metrics"] = self.worker_metrics.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild a report saved at :data:`REPORT_SCHEMA_VERSION`."""
        version = data.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise TelemetryError(
                f"report schema {version!r} != supported {REPORT_SCHEMA_VERSION}"
            )
        worker = data.get("worker_metrics")
        return cls(
            command=str(data.get("command", "")),
            started_at=float(data.get("started_at", 0.0)),
            duration=float(data.get("duration", 0.0)),
            metrics=MetricsSnapshot.from_dict(data.get("metrics", {})),
            worker_metrics=(
                MetricsSnapshot.from_dict(worker) if worker is not None else None
            ),
            spans=list(data.get("spans", [])),
            meta=dict(data.get("meta", {})),
            coverage=list(data.get("coverage", [])),
            table_health=list(data.get("table_health", [])),
            simulation=dict(data.get("simulation", {})),
            slo=dict(data.get("slo", {})),
            profile=dict(data.get("profile", {})),
            campaign=dict(data.get("campaign", {})),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write the report JSON to *path*."""
        path = Path(path)
        atomic_write_text(path, json.dumps(self.to_dict(), indent=1))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TelemetryError(f"unreadable telemetry report {path}: {exc}")
        if not isinstance(data, dict):
            raise TelemetryError(f"telemetry report {path} is not a JSON object")
        return cls.from_dict(data)


def load_report(path: Union[str, Path]) -> RunReport:
    """Load a report previously written by :meth:`RunReport.save`."""
    return RunReport.load(path)


class TelemetrySession:
    """Mutable holder populated by :func:`telemetry_session`."""

    def __init__(self, command: str):
        self.command = command
        self.meta: Dict[str, object] = {}
        self.worker_metrics: Optional[MetricsSnapshot] = None
        self.worker_spans: List[dict] = []
        self.table_health: List[dict] = []
        self.simulation: Dict[str, dict] = {}
        self.slo: Dict[str, object] = {}
        self.profile: Dict[str, object] = {}
        self.campaign: Dict[str, object] = {}
        #: The finished report; available after the ``with`` block exits.
        self.report: Optional[RunReport] = None

    def add_meta(self, **items: object) -> None:
        """Attach free-form metadata to the final report."""
        self.meta.update(items)

    def add_worker_metrics(self, snapshot: MetricsSnapshot) -> None:
        """Merge a worker-process metrics snapshot into the run totals."""
        if self.worker_metrics is None:
            self.worker_metrics = snapshot
        else:
            self.worker_metrics = self.worker_metrics.merged(snapshot)

    def add_worker_spans(self, spans: List[dict]) -> None:
        """Append span trees shipped back from pool workers.

        They join the parent's own span trees as additional roots of the
        report, so ``repro report`` renders worker chunks alongside the
        parent timeline.
        """
        self.worker_spans.extend(spans)

    def add_table_health(self, reports) -> None:
        """Attach table-health reports (dicts or objects) to the report.

        Audited builds (``repro library build --audit``) call this so
        ``repro report`` can render the health verdicts next to the
        build's span tree and counters.
        """
        for report in reports:
            if hasattr(report, "to_dict"):
                report = report.to_dict()
            self.table_health.append(dict(report))

    def add_simulation(self, sections: Dict[str, dict]) -> None:
        """Attach simulation-observability sections.

        *sections* maps a netlist label (``"rc"``, ``"rlc"``, ...) to a
        dict with optional ``diagnostics``
        (:meth:`~repro.circuit.diagnostics.TransientDiagnostics.to_dict`)
        and ``netlist_health``
        (:meth:`~repro.circuit.lint.NetlistHealthReport.to_dict`)
        entries -- exactly what
        :meth:`repro.clocktree.skew.SkewComparison.simulation_reports`
        returns.  Repeated calls merge by label.
        """
        for label, section in sections.items():
            self.simulation[str(label)] = dict(section)

    def add_slo(self, summary: Dict[str, object]) -> None:
        """Attach an SLO summary.

        *summary* is :meth:`repro.telemetry.slo.SLOMonitor.summary`
        output; the serve daemon calls this at drain so the report
        records the burn-rate state the session ended with.
        """
        self.slo = dict(summary)

    def add_profile(self, summary: Dict[str, object]) -> None:
        """Attach a sampling-profiler summary.

        *summary* is
        :meth:`repro.telemetry.profiler.SamplingProfiler.summary`
        output (sample counts + hottest stacks); the full collapsed
        stacks live in the ``--profile`` output file, not the report.
        """
        self.profile = dict(summary)


@contextmanager
def telemetry_session(command: str) -> Iterator[TelemetrySession]:
    """Capture a :class:`RunReport` for the enclosed block.

    Enables span recording for the duration, opens a root span named
    after *command*, and on exit -- normal or raising -- assembles
    ``session.report`` from the registry delta and the drained span
    trees.  Metric deltas are measured against the session start, so a
    warm process can run several sessions without cross-talk.
    """
    # Lazy import: the quality layer instruments repro.tables, which
    # telemetry must not import at module scope.
    from repro.quality.coverage import get_coverage_tracker

    registry = get_registry()
    tracer = get_tracer()
    session = TelemetrySession(command)
    start_snapshot = registry.snapshot()
    coverage_start = get_coverage_tracker().lookup_counts()
    previous_enabled = tracer.enabled
    tracer.enabled = True
    started_at = time.time()
    t0 = time.perf_counter()
    try:
        with tracer.span(command):
            yield session
    finally:
        duration = time.perf_counter() - t0
        tracer.enabled = previous_enabled
        # Only tables whose lookup count moved during the session make
        # the report: a warm process can run several sessions without
        # re-reporting stale coverage.
        coverage = [
            entry for entry in get_coverage_tracker().report()
            if entry["lookups"] != coverage_start.get(entry["table"], 0)
        ]
        session.report = RunReport(
            command=command,
            started_at=started_at,
            duration=duration,
            metrics=registry.snapshot().minus(start_snapshot),
            worker_metrics=session.worker_metrics,
            spans=([sp.to_dict() for sp in tracer.drain()]
                   + list(session.worker_spans)),
            meta=dict(session.meta),
            coverage=coverage,
            table_health=list(session.table_health),
            simulation=dict(session.simulation),
            slo=dict(session.slo),
            profile=dict(session.profile),
            campaign=dict(session.campaign),
        )


# ----------------------------------------------------------------------
# rendering (the `repro report` subcommand)
# ----------------------------------------------------------------------
def _format_span_line(node: dict, depth: int, width: int) -> str:
    label = "  " * depth + str(node.get("name", "?"))
    duration = float(node.get("duration", 0.0))
    status = node.get("status", "ok")
    tags = node.get("tags") or {}
    metrics = node.get("metrics") or {}
    extras = []
    for key in sorted(tags):
        extras.append(f"{key}={tags[key]}")
    for key in sorted(metrics):
        extras.append(f"{key}={metrics[key]}")
    if status != "ok":
        extras.append(f"status={status}")
        if node.get("error"):
            extras.append(str(node["error"]))
    suffix = ("  " + " ".join(extras)) if extras else ""
    return f"  {label:<{width}} {duration * 1e3:10.2f} ms{suffix}"


def _walk_spans(nodes: List[dict], depth: int = 0):
    for node in nodes:
        yield node, depth
        yield from _walk_spans(node.get("children", []), depth + 1)


def render_report(report: RunReport, max_spans: int = 200) -> str:
    """Human-readable rendering: span tree + top metrics table."""
    lines: List[str] = []
    lines.append(f"telemetry report: {report.command}")
    when = time.strftime("%Y-%m-%d %H:%M:%S",
                         time.localtime(report.started_at))
    lines.append(f"  started {when}   wall {report.duration:.2f} s")
    if report.meta:
        for key in sorted(report.meta):
            lines.append(f"  {key}: {report.meta[key]}")

    flattened = list(_walk_spans(report.spans))
    if flattened:
        lines.append("")
        lines.append(f"span tree ({len(flattened)} span(s))")
        width = max(
            len("  " * depth + str(node.get("name", "?")))
            for node, depth in flattened[:max_spans]
        )
        for node, depth in flattened[:max_spans]:
            lines.append(_format_span_line(node, depth, width))
        if len(flattened) > max_spans:
            lines.append(f"  ... {len(flattened) - max_spans} more span(s)")

    totals = report.totals()
    if totals.counters:
        lines.append("")
        lines.append("counters (parent + workers)")
        width = max(len(name) for name in totals.counters)
        for name in sorted(totals.counters):
            parent = report.metrics.counter(name)
            workers = totals.counter(name) - parent
            detail = (f"  (parent {parent}, workers {workers})"
                      if report.worker_metrics is not None else "")
            lines.append(f"  {name:<{width}} {totals.counters[name]:>12}{detail}")
        rate = totals.memo_hit_rate
        if totals.counter("lp_memo_hit") or totals.counter("lp_memo_miss"):
            lines.append(f"  {'memo_hit_rate':<{width}} {rate:>11.1%}")
        if totals.counter("lp_pair_total"):
            lines.append(
                f"  {'dedup_factor':<{width}} {totals.dedup_factor:>11.2f}x"
            )

    if totals.histograms:
        lines.append("")
        lines.append("histograms")
        width = max(len(name) for name in totals.histograms)
        for name in sorted(totals.histograms):
            hist = totals.histograms[name]
            lines.append(
                f"  {name:<{width}}  n={hist.count:<8} "
                f"mean={hist.mean:.3e} s  p50<={hist.quantile(0.5):.0e} "
                f"p95<={hist.quantile(0.95):.0e}"
            )

    # Optional sections render only when the report carries them.  Lazy
    # imports keep the telemetry layer free of a hard quality dependency.
    if report.coverage:
        from repro.quality.coverage import render_coverage

        lines.append("")
        lines.append(render_coverage(report.coverage).rstrip("\n"))
    if report.table_health:
        from repro.quality.audit import render_health

        lines.append("")
        lines.append(render_health(report.table_health).rstrip("\n"))
    if report.simulation:
        lines.append("")
        lines.append(_render_simulation(report.simulation).rstrip("\n"))
    if report.slo:
        lines.append("")
        lines.append(_render_slo(report.slo).rstrip("\n"))
    if report.profile:
        lines.append("")
        lines.append(_render_profile(report.profile).rstrip("\n"))
    if report.campaign:
        lines.append("")
        lines.append(_render_campaign(report.campaign).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _render_campaign(campaign: Dict[str, object]) -> str:
    """Render the ``campaign`` section (sweep-campaign summary)."""
    lines = [
        f"campaign {campaign.get('campaign_id') or '?'}: "
        f"{campaign.get('scenario', '?')}  "
        f"{campaign.get('points', 0)} point(s): "
        f"{campaign.get('completed', 0)} completed, "
        f"{campaign.get('failed', 0)} failed, "
        f"{campaign.get('skipped', 0)} skipped"
    ]
    lines.append(
        f"  {float(campaign.get('points_per_second', 0.0)):.2f} pt/s  "
        f"solver calls {campaign.get('solver_call_count', 0)}  "
        f"memo hit {float(campaign.get('memo_hit_rate', 0.0)):.0%}"
    )
    return "\n".join(lines) + "\n"


def _render_slo(slo: Dict[str, object]) -> str:
    """Render the ``slo`` section (burn-rate state per endpoint)."""
    lines = [f"slo status: {slo.get('status', '?')}"]
    endpoints = slo.get("endpoints") or {}
    for endpoint in sorted(endpoints):
        slis = endpoints[endpoint].get("slis", {})
        parts = []
        for sli in sorted(slis):
            info = slis[sli]
            parts.append(
                f"{sli}={info.get('status', '?')}"
                f" (burn {info.get('burn_rate', 0.0)})"
            )
        lifetime = endpoints[endpoint].get("lifetime", {})
        total = lifetime.get("total", 0)
        lines.append(f"  {endpoint}: {'  '.join(parts)}  [{total} req]")
    return "\n".join(lines) + "\n"


def _render_profile(profile: Dict[str, object]) -> str:
    """Render the ``profile`` section (hottest sampled stacks)."""
    lines = [
        "profile: "
        f"{profile.get('samples', 0)} samples "
        f"@ {profile.get('interval_seconds', 0.0)} s interval, "
        f"{profile.get('distinct_stacks', 0)} distinct stack(s)"
    ]
    for entry in profile.get("hottest", [])[:10]:
        lines.append(f"  {entry.get('count', 0):>8}  {entry.get('leaf', '?')}")
    return "\n".join(lines) + "\n"


def _render_simulation(simulation: Dict[str, dict]) -> str:
    """Render the ``simulation`` section (diagnostics + health)."""
    lines = [f"simulation ({len(simulation)} netlist(s))"]
    for label in sorted(simulation):
        section = simulation[label]
        diag = section.get("diagnostics")
        if diag:
            adequacy = "ok" if diag.get("dt_adequate", True) else "UNDERSAMPLED"
            lines.append(
                f"  {label}: {diag.get('method', '?')} "
                f"steps={diag.get('steps', '?')} dt={diag.get('dt', 0.0):.3e} s "
                f"({adequacy})"
            )
            lte = diag.get("lte_p95")
            residual = diag.get("energy_residual")
            detail = []
            if lte is not None:
                detail.append(f"LTE p95={lte:.3e}")
            if residual is not None:
                detail.append(f"energy residual={residual:.3e}")
            if diag.get("dt_snapped"):
                detail.append(
                    f"dt snapped from {diag.get('requested_dt', 0.0):.3e} s"
                )
            if diag.get("dc_start_fallback"):
                detail.append("dc-start fallback")
            if detail:
                lines.append("      " + "  ".join(detail))
        health = section.get("netlist_health")
        if health:
            verdict = "clean" if health.get("clean") else (
                f"{health.get('num_errors', '?')} error(s)"
            )
            warn = health.get("num_warnings", 0)
            if warn:
                verdict += f", {warn} warning(s)"
            name = health.get("name") or label
            lines.append(f"      netlist health [{name}]: {verdict}")
    return "\n".join(lines) + "\n"
