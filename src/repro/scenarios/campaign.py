"""Campaign records: the sweep-level artifact of a parameter sweep.

A sweep campaign (``repro sweep run``, :mod:`repro.scenarios.sweep`)
executes one ledger run per grid point; this module defines the
*campaign-level* record that ties those runs together:

* :class:`CampaignReport` -- per-point outcome rows keyed by canonical
  params, the merged telemetry snapshot across all points, and derived
  aggregates (throughput, solver-call count, memo hit rate).
* :func:`render_campaign` -- the ``repro sweep report`` view: outcome
  roster, per-axis marginal summaries, best/worst points per directed
  metric, and the failure roster.
* :func:`campaign_view` -- one campaign flattened point-by-point onto
  the bench-record shape, which ``repro diff sweep`` gates.

Campaign records persist in the run ledger (``campaigns/<id>/``) next
to the per-point runs they reference, so a campaign is replayable and
auditable long after the sweep process exits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.telemetry.registry import MetricsSnapshot, is_solver_counter

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "CampaignReport",
    "render_campaign",
    "render_campaign_entries",
    "CAMPAIGN_VIEW_SYNTHETIC",
    "campaign_view",
]

CAMPAIGN_SCHEMA_VERSION = 1


def _fmt_value(value: object) -> str:
    """Compact display of one parameter value (``0.003``, ``4``)."""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:g}"
    return str(value)


def _point_label(params: Dict[str, object],
                 varying: List[str]) -> str:
    """A stable short label for one grid point (``L=0.003,ASYM=1.2``)."""
    names = varying or sorted(params)
    return ",".join(f"{n}={_fmt_value(params.get(n))}" for n in names)


def _numeric_metrics(row: dict) -> Dict[str, float]:
    """The flattenable scalar metrics of one point row."""
    from repro.quality.regress import flatten_metrics

    metrics = row.get("metrics") or {}
    if not isinstance(metrics, dict):
        return {}
    return flatten_metrics(metrics)


@dataclass
class CampaignReport:
    """Everything ``repro sweep`` knows about one finished campaign."""

    sweep_id: str
    scenario: str
    spec: Dict[str, object] = field(default_factory=dict)
    points: List[dict] = field(default_factory=list)
    telemetry: Dict[str, object] = field(default_factory=dict)
    workers: int = 1
    started_at: float = 0.0
    duration: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)
    campaign_id: str = ""

    # -- aggregates --------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def completed(self) -> int:
        return sum(1 for p in self.points
                   if p.get("status") == "completed")

    @property
    def failed_count(self) -> int:
        return sum(1 for p in self.points if p.get("status") == "failed")

    @property
    def skipped_count(self) -> int:
        return sum(1 for p in self.points if p.get("skipped"))

    @property
    def points_per_second(self) -> float:
        if self.duration <= 0.0:
            return 0.0
        return self.total / self.duration

    def merged_snapshot(self) -> MetricsSnapshot:
        """The telemetry merged across every point's worker delta."""
        return MetricsSnapshot.from_dict(self.telemetry)

    @property
    def solver_call_count(self) -> int:
        """Real solver work done by the whole campaign.

        Zero on a fully ledger-replayed re-run -- the resumability
        acceptance check asserts exactly this.
        """
        snap = self.merged_snapshot()
        return int(sum(v for name, v in snap.counters.items()
                       if is_solver_counter(name)))

    @property
    def memo_hit_rate(self) -> float:
        return self.merged_snapshot().memo_hit_rate

    # -- structure ---------------------------------------------------
    def varying_params(self) -> List[str]:
        """Parameter names that actually vary across points."""
        spec_varying = self.spec.get("varying") if self.spec else None
        if spec_varying:
            return [str(n) for n in spec_varying]
        seen: Dict[str, set] = {}
        for row in self.points:
            for name, value in (row.get("params") or {}).items():
                seen.setdefault(name, set()).add(repr(value))
        return sorted(n for n, vals in seen.items() if len(vals) > 1)

    def grid_axes(self) -> Dict[str, List[object]]:
        """Grid axes as recorded in the spec (name -> level values)."""
        grid = self.spec.get("grid") if self.spec else None
        if not isinstance(grid, dict):
            return {}
        return {str(k): list(v) for k, v in grid.items()}

    def mc_axes(self) -> Dict[str, str]:
        """Monte-Carlo axes as recorded in the spec (name -> dist)."""
        mc = self.spec.get("mc") if self.spec else None
        if not isinstance(mc, dict):
            return {}
        return {str(k): str(v) for k, v in mc.items()}

    def failures(self) -> List[dict]:
        return [p for p in self.points if p.get("status") == "failed"]

    # -- marginal summaries ------------------------------------------
    def axis_summaries(self) -> Dict[str, List[dict]]:
        """Per-axis marginals: metric mean/min/max at each grid level.

        Grid axes get one row per level, averaged over all completed
        points sharing that level (the marginal over the other axes).
        Monte-Carlo axes get a single sampled-range row instead, since
        every draw is distinct.
        """
        completed = [p for p in self.points
                     if p.get("status") == "completed"]
        out: Dict[str, List[dict]] = {}
        for axis, levels in sorted(self.grid_axes().items()):
            rows: List[dict] = []
            for level in levels:
                group = [p for p in completed
                         if (p.get("params") or {}).get(axis) == level]
                stats: Dict[str, Dict[str, float]] = {}
                names = sorted({n for p in group
                                for n in _numeric_metrics(p)})
                for name in names:
                    vals = [_numeric_metrics(p)[name] for p in group
                            if name in _numeric_metrics(p)]
                    if vals:
                        stats[name] = {
                            "mean": sum(vals) / len(vals),
                            "min": min(vals),
                            "max": max(vals),
                        }
                rows.append({"level": level, "count": len(group),
                             "metrics": stats})
            out[axis] = rows
        for axis, dist in sorted(self.mc_axes().items()):
            draws = [(p.get("params") or {}).get(axis)
                     for p in completed]
            draws = [d for d in draws if isinstance(d, (int, float))]
            row = {"level": dist, "count": len(draws), "metrics": {}}
            if draws:
                row["sampled_min"] = min(draws)
                row["sampled_max"] = max(draws)
            out[axis] = [row]
        return out

    def extremes(self) -> Dict[str, Dict[str, dict]]:
        """Best/worst point per *directed* metric.

        Only metrics with a known direction-of-goodness (``*_seconds``
        lower, ``*speedup`` higher, ...) participate -- "best" is
        meaningless for informational counters.
        """
        from repro.quality.regress import metric_direction

        completed = [p for p in self.points
                     if p.get("status") == "completed"]
        varying = self.varying_params()
        out: Dict[str, Dict[str, dict]] = {}
        names = sorted({n for p in completed for n in _numeric_metrics(p)})
        for name in names:
            direction = metric_direction(name)
            if direction is None:
                continue
            scored: List[Tuple[float, dict]] = [
                (_numeric_metrics(p)[name], p) for p in completed
                if name in _numeric_metrics(p)
            ]
            if len(scored) < 2:
                continue
            scored.sort(key=lambda sv: sv[0])
            lo, hi = scored[0], scored[-1]
            best, worst = (lo, hi) if direction == "lower" else (hi, lo)
            out[name] = {
                "best": {"value": best[0],
                         "label": _point_label(
                             best[1].get("params") or {}, varying),
                         "run_id": best[1].get("run_id", "")},
                "worst": {"value": worst[0],
                          "label": _point_label(
                              worst[1].get("params") or {}, varying),
                          "run_id": worst[1].get("run_id", "")},
            }
        return out

    # -- serialization -----------------------------------------------
    def summary(self) -> Dict[str, object]:
        """The compact dict embedded in RunReports and ``--json`` out."""
        return {
            "campaign_id": self.campaign_id,
            "sweep_id": self.sweep_id,
            "scenario": self.scenario,
            "points": self.total,
            "completed": self.completed,
            "failed": self.failed_count,
            "skipped": self.skipped_count,
            "workers": self.workers,
            "duration": self.duration,
            "points_per_second": self.points_per_second,
            "solver_call_count": self.solver_call_count,
            "memo_hit_rate": self.memo_hit_rate,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "campaign_id": self.campaign_id,
            "sweep_id": self.sweep_id,
            "scenario": self.scenario,
            "spec": dict(self.spec),
            "points": [dict(p) for p in self.points],
            "telemetry": dict(self.telemetry),
            "workers": self.workers,
            "started_at": self.started_at,
            "duration": self.duration,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        version = int(data.get("schema_version", 0))
        if version > CAMPAIGN_SCHEMA_VERSION:
            raise ValueError(
                f"campaign record schema v{version} is newer than this "
                f"code understands (v{CAMPAIGN_SCHEMA_VERSION})")
        return cls(
            sweep_id=str(data.get("sweep_id", "")),
            scenario=str(data.get("scenario", "")),
            spec=dict(data.get("spec") or {}),
            points=[dict(p) for p in (data.get("points") or [])],
            telemetry=dict(data.get("telemetry") or {}),
            workers=int(data.get("workers", 1)),
            started_at=float(data.get("started_at", 0.0)),
            duration=float(data.get("duration", 0.0)),
            meta=dict(data.get("meta") or {}),
            campaign_id=str(data.get("campaign_id", "")),
        )


# ----------------------------------------------------------------------
# rendering (the `repro sweep` subcommands)
# ----------------------------------------------------------------------
def render_campaign(report: CampaignReport) -> str:
    """The full ``repro sweep report`` text for one campaign."""
    varying = report.varying_params()
    head = report.campaign_id or report.sweep_id[:12]
    lines = [
        f"campaign {head}  scenario {report.scenario}",
        f"  {report.total} point(s): {report.completed} completed, "
        f"{report.failed_count} failed, {report.skipped_count} "
        f"replayed from ledger",
        f"  workers {report.workers}  wall {report.duration:.2f}s  "
        f"{report.points_per_second:.2f} pt/s",
        f"  solver calls {report.solver_call_count}  "
        f"memo hit rate {report.memo_hit_rate:.1%}",
    ]
    if varying:
        lines.append(f"  varying: {', '.join(varying)}")

    lines.append("")
    lines.append("  points:")
    for row in report.points:
        label = _point_label(row.get("params") or {}, varying)
        status = str(row.get("status", "?"))
        if row.get("skipped"):
            status += " (replayed)"
        lines.append(
            f"    {row.get('run_id', '?'):<16} {label:<40} {status}")

    summaries = report.axis_summaries()
    if summaries:
        lines.append("")
        lines.append("  per-axis marginals:")
        for axis, rows in summaries.items():
            lines.append(f"    axis {axis}:")
            for entry in rows:
                level = _fmt_value(entry["level"])
                if "sampled_min" in entry:
                    lines.append(
                        f"      {level}: {entry['count']} draw(s) in "
                        f"[{_fmt_value(entry['sampled_min'])}, "
                        f"{_fmt_value(entry['sampled_max'])}]")
                    continue
                lines.append(
                    f"      {axis}={level}  ({entry['count']} point(s))")
                for name, stats in sorted(entry["metrics"].items()):
                    lines.append(
                        f"        {name:<32} mean {stats['mean']:.6g}  "
                        f"[{stats['min']:.6g}, {stats['max']:.6g}]")

    extremes = report.extremes()
    if extremes:
        lines.append("")
        lines.append("  best/worst points (directed metrics):")
        for name, ends in sorted(extremes.items()):
            lines.append(
                f"    {name}: best {ends['best']['value']:.6g} at "
                f"{ends['best']['label']} ({ends['best']['run_id']}), "
                f"worst {ends['worst']['value']:.6g} at "
                f"{ends['worst']['label']} ({ends['worst']['run_id']})")

    failures = report.failures()
    if failures:
        lines.append("")
        lines.append("  failures:")
        for row in failures:
            label = _point_label(row.get("params") or {}, varying)
            lines.append(
                f"    {row.get('run_id') or '(no run)':<16} {label}: "
                f"{row.get('error', 'unknown error')}")
    return "\n".join(lines) + "\n"


def render_campaign_entries(rows: List[dict]) -> str:
    """An aligned campaign index table (``repro sweep status``)."""
    if not rows:
        return "no campaigns recorded\n"
    import time as _time

    lines = [f"  {'campaign id':<16} {'scenario':<20} {'points':>6} "
             f"{'failed':>6} {'replayed':>8} {'when':<19} {'wall':>8}"]
    for row in rows:
        when = _time.strftime(
            "%Y-%m-%d %H:%M:%S",
            _time.localtime(float(row.get("started_at", 0.0))))
        lines.append(
            f"  {str(row.get('campaign_id', '?')):<16} "
            f"{str(row.get('scenario', '?')):<20} "
            f"{int(row.get('points', 0)):>6} "
            f"{int(row.get('failed', 0)):>6} "
            f"{int(row.get('skipped', 0)):>8} {when:<19} "
            f"{float(row.get('duration', 0.0)):7.2f}s")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# campaign-vs-campaign diff (the `repro diff sweep` gate)
# ----------------------------------------------------------------------
#: The campaign-level metrics :func:`campaign_view` adds to every
#: campaign: sharing only these means the grids were disjoint.
CAMPAIGN_VIEW_SYNTHETIC = ("duration", "campaign.points_per_second")


def campaign_view(report: CampaignReport) -> dict:
    """Flatten one campaign to a bench-record-shaped metric dict.

    Per completed point, metrics flatten under the point's varying-
    param label (``TOTAL_LENGTH=0.003,ASYMMETRY=1.2.delay_seconds``);
    the campaign-level throughput rides along.  Points are matched
    across campaigns by label, so two campaigns over the same grid
    compare point-by-point regardless of execution order.
    """
    varying = report.varying_params()
    flat: Dict[str, object] = {
        "duration": report.duration,
        "campaign": {"points_per_second": report.points_per_second},
    }
    for row in report.points:
        if row.get("status") != "completed":
            continue
        label = _point_label(row.get("params") or {}, varying)
        metrics = _numeric_metrics(row)
        if metrics:
            flat[label] = dict(metrics)
    return flat
