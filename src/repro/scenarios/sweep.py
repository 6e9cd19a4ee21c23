"""Sweep campaigns: parameter grids executed through the run ledger.

A :class:`SweepSpec` declares *what* to explore over one registered
scenario -- cartesian grid axes, explicit point lists, and seeded
Monte-Carlo axes over its UPPERCASE parameters.  :class:`SweepRunner`
executes every grid point through :func:`repro.scenarios.run_scenario`,
so each point is an ordinary content-addressed ledger run: skip-if-done
gives campaigns free resumability (re-running an identical sweep
replays every point with **zero** solver calls), and every point keeps
full per-run provenance.

Observability is campaign-level:

* a ``sweep_id`` correlation scope stamps every log record and span
  emitted anywhere in the campaign (:func:`repro.telemetry.logs
  .sweep_scope`);
* live progress -- points done/failed/replayed, throughput, ETA, and
  the *merged* memo-hit-rate/solver-call counters across all workers --
  is published through ``sweep_*`` gauges on the global registry, so
  ``prometheus_text`` (and a running serve daemon's ``/metrics``)
  exposes the campaign while it runs;
* the finished campaign persists as a first-class
  :class:`~repro.scenarios.campaign.CampaignReport` in the ledger.

Points fan out through :func:`repro.fanout.fan_out`, the executor the
library BuildRunner uses too: each point task runs in a forked pool
process, measures its own registry *delta*, and ships it back for the
parent to fold via ``MetricsSnapshot.merged`` -- parent counters never
mix with worker counters.  A worker that dies raises
:class:`~repro.errors.WorkerLostError`; the points it did not take down
are already in the ledger, so re-issuing the sweep replays them.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.errors import ScenarioError, ScenarioRunError
from repro.fanout import fan_out
from repro.library.store import cache_key
from repro.scenarios.campaign import CampaignReport
from repro.scenarios.ledger import RunLedger
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import CODE_VERSION, default_ledger_root
from repro.scenarios.spec import Scenario, coerce_param
from repro.telemetry.registry import (
    SWEEP_ETA_SECONDS,
    SWEEP_MEMO_HIT_RATE,
    SWEEP_POINTS_DONE,
    SWEEP_POINTS_FAILED,
    SWEEP_POINTS_PER_SECOND,
    SWEEP_POINTS_SKIPPED,
    SWEEP_POINTS_TOTAL,
    SWEEP_RUNNING,
    SWEEP_SOLVER_CALLS,
    MetricsSnapshot,
    get_registry,
    is_solver_counter,
)

__all__ = ["MonteCarloAxis", "SweepSpec", "SweepProgress", "SweepRunner",
           "run_sweep"]

_DIST_RE = re.compile(
    r"^\s*(normal|uniform|lognormal)\s*\(\s*([^,)]+)\s*,\s*([^,)]+)\s*\)\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class MonteCarloAxis:
    """One seeded random axis: ``normal(mu,sigma)`` & friends.

    ``uniform(lo,hi)`` draws uniformly; ``lognormal(mu,sigma)`` draws
    ``exp(N(mu,sigma))`` -- the usual process-variation shapes.  Draws
    are fully determined by the sweep seed, so a campaign's Monte-Carlo
    points are as reproducible as its grid points.
    """

    dist: str
    a: float
    b: float

    @classmethod
    def parse(cls, text: str) -> "MonteCarloAxis":
        match = _DIST_RE.match(str(text))
        if not match:
            raise ScenarioError(
                f"bad Monte-Carlo axis {text!r} -- expected "
                "normal(mu,sigma), uniform(lo,hi) or "
                "lognormal(mu,sigma)")
        dist = match.group(1).lower()
        try:
            a = float(match.group(2))
            b = float(match.group(3))
        except ValueError:
            raise ScenarioError(
                f"bad Monte-Carlo axis {text!r} -- parameters must be "
                "numbers") from None
        if dist == "uniform" and b < a:
            raise ScenarioError(
                f"bad Monte-Carlo axis {text!r} -- uniform needs "
                "lo <= hi")
        if dist in ("normal", "lognormal") and b < 0:
            raise ScenarioError(
                f"bad Monte-Carlo axis {text!r} -- sigma must be >= 0")
        return cls(dist=dist, a=a, b=b)

    def sample(self, rng: random.Random) -> float:
        if self.dist == "normal":
            return rng.gauss(self.a, self.b)
        if self.dist == "uniform":
            return rng.uniform(self.a, self.b)
        return rng.lognormvariate(self.a, self.b)

    def describe(self) -> str:
        return f"{self.dist}({self.a:g},{self.b:g})"


@dataclass
class SweepSpec:
    """A declarative parameter sweep over one registered scenario."""

    scenario: str
    grid: Dict[str, List[object]] = field(default_factory=dict)
    explicit: List[Dict[str, object]] = field(default_factory=list)
    mc: Dict[str, MonteCarloAxis] = field(default_factory=dict)
    samples: int = 1
    seed: int = 0
    base: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ScenarioError("sweep samples must be >= 1")
        for name, levels in self.grid.items():
            if not levels:
                raise ScenarioError(f"grid axis {name} has no values")
        overlap = set(self.grid) & set(self.mc)
        if overlap:
            raise ScenarioError(
                f"parameter(s) {sorted(overlap)} appear as both grid "
                "and Monte-Carlo axes")

    # ------------------------------------------------------------------
    def resolved(self, scenario: Scenario) -> "SweepSpec":
        """This spec with every literal value canonically coerced.

        Coercion against the scenario's typed defaults makes the spec
        (and therefore :attr:`sweep_id`) independent of command-line
        spelling -- ``TOTAL_LENGTH=4e-3`` and ``=0.004`` produce the
        same campaign identity, exactly like run keys.
        """
        defaults = dict(scenario.defaults)

        def coerce(name: str, value: object) -> object:
            if name not in defaults:
                known = ", ".join(sorted(defaults)) or "(none)"
                raise ScenarioError(
                    f"scenario {scenario.name!r} has no parameter "
                    f"{name!r} (valid: {known})")
            return coerce_param(name, defaults[name], value)

        for name in self.mc:
            if name not in defaults:
                known = ", ".join(sorted(defaults)) or "(none)"
                raise ScenarioError(
                    f"scenario {scenario.name!r} has no parameter "
                    f"{name!r} (valid: {known})")
            if not isinstance(defaults[name], float):
                raise ScenarioError(
                    f"Monte-Carlo axis {name} needs a float parameter "
                    f"(default is {type(defaults[name]).__name__})")
        return SweepSpec(
            scenario=self.scenario,
            grid={name: [coerce(name, v) for v in levels]
                  for name, levels in self.grid.items()},
            explicit=[{name: coerce(name, v) for name, v in pt.items()}
                      for pt in self.explicit],
            mc=dict(self.mc),
            samples=self.samples,
            seed=self.seed,
            base={name: coerce(name, v) for name, v in self.base.items()},
        )

    # ------------------------------------------------------------------
    def points(self) -> List[Dict[str, object]]:
        """Every override dict the sweep will run, in a stable order.

        Order: explicit points x grid cartesian product (axes sorted by
        name) x Monte-Carlo samples.  Each MC sample ``s`` gets its own
        ``random.Random(seed * 1_000_003 + s)`` stream drawing the
        sorted MC axes in turn, so draws depend only on ``(seed, s)``
        -- not on grid shape or axis insertion order.
        """
        grid_names = sorted(self.grid)
        grid_assignments = [
            dict(zip(grid_names, combo))
            for combo in itertools.product(
                *(self.grid[name] for name in grid_names))
        ] if grid_names else [{}]
        explicit_pts = self.explicit or [{}]
        samples = self.samples if self.mc else 1
        out: List[Dict[str, object]] = []
        for explicit_pt in explicit_pts:
            for assignment in grid_assignments:
                for s in range(samples):
                    draw: Dict[str, object] = {}
                    if self.mc:
                        rng = random.Random(self.seed * 1_000_003 + s)
                        for name in sorted(self.mc):
                            draw[name] = self.mc[name].sample(rng)
                    out.append({**self.base, **explicit_pt,
                                **assignment, **draw})
        return out

    def varying_params(self) -> List[str]:
        """Parameter names that differ between at least two points."""
        names = set(self.grid) | set(self.mc)
        if self.explicit:
            for key in {k for pt in self.explicit for k in pt}:
                values = {repr(pt.get(key)) for pt in self.explicit}
                if len(values) > 1:
                    names.add(key)
        return sorted(names)

    @property
    def sweep_id(self) -> str:
        """Content address of the campaign request (spec + code)."""
        return cache_key({
            "kind": "sweep-campaign",
            "scenario": self.scenario,
            "code_version": CODE_VERSION,
            "grid": {n: list(v) for n, v in sorted(self.grid.items())},
            "explicit": self.explicit,
            "mc": {n: self.mc[n].describe() for n in sorted(self.mc)},
            "samples": self.samples if self.mc else 1,
            "seed": self.seed,
            "base": dict(sorted(self.base.items())),
        })

    def spec_dict(self) -> Dict[str, object]:
        """The JSON form stored inside the campaign record."""
        return {
            "scenario": self.scenario,
            "grid": {n: list(v) for n, v in sorted(self.grid.items())},
            "explicit": [dict(pt) for pt in self.explicit],
            "mc": {n: self.mc[n].describe() for n in sorted(self.mc)},
            "samples": self.samples if self.mc else 1,
            "seed": self.seed,
            "base": dict(sorted(self.base.items())),
            "varying": self.varying_params(),
        }


# ----------------------------------------------------------------------
# the per-point task (module-level: picklable for fan_out's pool)
# ----------------------------------------------------------------------
def _sweep_point_task(
    scenario_name: str,
    overrides: Dict[str, object],
    ledger_root: str,
    force: bool,
    sweep_id: str,
    index: int,
    in_worker: bool = True,
) -> dict:
    """Run one grid point; returns its outcome row + telemetry delta.

    Never raises on scenario failure -- the row records status
    ``failed`` (the ledger already holds the failed run's record), so
    one bad point cannot take down the campaign.  The worker registry's
    metric delta travels back in ``row["telemetry"]`` for the parent to
    merge, mirroring the library build chunk task.
    """
    from repro.scenarios.runner import run_scenario
    from repro.telemetry.logs import sweep_scope
    from repro.telemetry.spans import get_tracer

    registry = get_registry()
    if in_worker:
        # A forked worker inherits the parent's completed span roots
        # and open-span stack; drop both so this point's trace is
        # exactly this point's work.
        tracer = get_tracer()
        tracer.clear_stack()
        tracer.reset()
    start = registry.snapshot()
    t0 = time.perf_counter()
    row: Dict[str, object] = {
        "index": index,
        "params": dict(overrides),
        "run_id": "",
        "run_key": "",
        "status": "failed",
        "skipped": False,
        "duration": 0.0,
        "metrics": {},
        "error": "",
    }
    with sweep_scope(sweep_id[:12], point=str(index)):
        try:
            outcome = run_scenario(
                scenario_name, overrides,
                ledger=RunLedger(Path(ledger_root)),
                force=force,
                command=f"repro sweep {scenario_name}#{index}",
            )
            row.update(
                params=dict(outcome.params),
                run_id=outcome.run_id,
                run_key=outcome.run_key,
                status=outcome.entry.status,
                skipped=outcome.skipped,
                duration=outcome.entry.duration,
                metrics=dict(outcome.metrics),
            )
        except ScenarioRunError as exc:
            row["run_id"] = exc.run_id or ""
            row["error"] = str(exc)
        except ScenarioError as exc:
            row["error"] = str(exc)
    row["wall"] = time.perf_counter() - t0
    row["telemetry"] = registry.snapshot().minus(start).to_dict()
    return row


# ----------------------------------------------------------------------
# live progress
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepProgress:
    """One live-progress tick handed to the progress callback."""

    total: int
    done: int
    failed: int
    skipped: int
    elapsed: float
    telemetry: MetricsSnapshot

    @property
    def points_per_second(self) -> float:
        if self.elapsed <= 0.0 or self.done == 0:
            return 0.0
        return self.done / self.elapsed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Seconds until completion, or None before any point lands."""
        rate = self.points_per_second
        if rate <= 0.0:
            return None
        return (self.total - self.done) / rate

    @property
    def memo_hit_rate(self) -> float:
        return self.telemetry.memo_hit_rate

    @property
    def solver_calls(self) -> int:
        return int(sum(v for name, v in self.telemetry.counters.items()
                       if is_solver_counter(name)))


def _publish_gauges(progress: SweepProgress, running: bool) -> None:
    """Export the campaign's live state as ``sweep_*`` gauges."""
    registry = get_registry()
    registry.set_gauge(SWEEP_RUNNING, 1.0 if running else 0.0)
    registry.set_gauge(SWEEP_POINTS_TOTAL, float(progress.total))
    registry.set_gauge(SWEEP_POINTS_DONE, float(progress.done))
    registry.set_gauge(SWEEP_POINTS_FAILED, float(progress.failed))
    registry.set_gauge(SWEEP_POINTS_SKIPPED, float(progress.skipped))
    registry.set_gauge(SWEEP_POINTS_PER_SECOND,
                       progress.points_per_second)
    eta = progress.eta_seconds
    # Never publish inf/None: the Prometheus text formatter needs a
    # finite number, and "unknown" renders as 0 by convention.
    registry.set_gauge(SWEEP_ETA_SECONDS,
                       float(eta) if eta is not None else 0.0)
    registry.set_gauge(SWEEP_MEMO_HIT_RATE, progress.memo_hit_rate)
    registry.set_gauge(SWEEP_SOLVER_CALLS, float(progress.solver_calls))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class SweepRunner:
    """Execute a :class:`SweepSpec`; every point is one ledger run.

    Parameters
    ----------
    spec:
        What to sweep.  Validated and canonicalized up front -- a typo
        in an axis name fails before any point runs.
    ledger:
        Target :class:`RunLedger` (default: ``$REPRO_LEDGER`` /
        ``.repro/runs``).  Points and the campaign record land here.
    workers:
        Process count (>= 1); 1 (the default) runs points serially
        in-process.
    force:
        Re-execute points even when the ledger already has them.
    progress:
        Optional callback receiving a :class:`SweepProgress` after
        every finished point (the CLI renders it to stderr).
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        ledger: Optional[RunLedger] = None,
        workers: int = 1,
        force: bool = False,
        progress: Optional[Callable[[SweepProgress], None]] = None,
    ) -> None:
        scenario = get_scenario(spec.scenario)
        self.spec = spec.resolved(scenario)
        self.scenario = scenario
        self.ledger = ledger if ledger is not None else RunLedger(
            default_ledger_root())
        if workers < 1:
            raise ScenarioError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.force = force
        self.progress = progress
        if not (self.spec.grid or self.spec.explicit or self.spec.mc):
            raise ScenarioError(
                f"sweep over {spec.scenario!r} has no points -- give at "
                "least one --grid/--point/--mc axis (a single default "
                "point is just `repro run`)")
        self.points = self.spec.points()
        # Fail fast on any invalid point (bad value for the scenario's
        # parameter types) before spending a second of solve time.
        for overrides in self.points:
            scenario.params_with(overrides)

    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Execute every point; returns the persisted campaign report."""
        from repro.quality.regress import run_metadata
        from repro.telemetry.logs import get_logger, sweep_scope

        sweep_id = self.spec.sweep_id
        total = len(self.points)
        effective_workers = min(self.workers, total)
        started_at = time.time()
        t0 = time.perf_counter()
        merged = MetricsSnapshot()
        rows: List[dict] = []
        failed = skipped = 0
        logger = get_logger("repro.sweep")

        def tick() -> SweepProgress:
            return SweepProgress(
                total=total,
                done=len(rows),
                failed=failed,
                skipped=skipped,
                elapsed=time.perf_counter() - t0,
                telemetry=merged,
            )

        def fold(row: dict) -> None:
            nonlocal merged, failed, skipped
            delta = row.pop("telemetry", None)
            if delta:
                merged = merged.merged(MetricsSnapshot.from_dict(delta))
            if row.get("status") == "failed":
                failed += 1
            if row.get("skipped"):
                skipped += 1
            rows.append(row)
            progress = tick()
            _publish_gauges(progress, running=True)
            if self.progress is not None:
                self.progress(progress)

        with sweep_scope(sweep_id[:12], scenario=self.spec.scenario):
            logger.info(
                "sweep_start",
                scenario=self.spec.scenario,
                points=total,
                workers=effective_workers,
                force=self.force,
            )
            _publish_gauges(tick(), running=True)
            fan_out(
                _sweep_point_task,
                [(self.spec.scenario, overrides, str(self.ledger.root),
                  self.force, sweep_id, index)
                 for index, overrides in enumerate(self.points)],
                effective_workers,
                fold,
            )
            duration = time.perf_counter() - t0
            final = tick()
            _publish_gauges(final, running=False)
            logger.info(
                "sweep_done",
                scenario=self.spec.scenario,
                points=total,
                failed=failed,
                skipped=skipped,
                wall_seconds=round(duration, 4),
                solver_calls=final.solver_calls,
            )

        rows.sort(key=lambda r: r.get("index", 0))
        report = CampaignReport(
            sweep_id=sweep_id,
            scenario=self.spec.scenario,
            spec=self.spec.spec_dict(),
            points=rows,
            telemetry=merged.to_dict(),
            workers=effective_workers,
            started_at=started_at,
            duration=duration,
            meta=run_metadata(),
        )
        self.ledger.record_campaign(report)
        return report


def run_sweep(spec: SweepSpec, **kwargs) -> CampaignReport:
    """Convenience: ``SweepRunner(spec, **kwargs).run()``."""
    return SweepRunner(spec, **kwargs).run()
