"""Sweep campaigns: spec, runner, campaign records, observability."""

import json
import multiprocessing
import os
import random
import signal
import time

import pytest

from repro.errors import ScenarioError, WorkerLostError
from repro.quality import diff_benches
from repro.scenarios import (
    CAMPAIGN_VIEW_SYNTHETIC,
    CampaignReport,
    MonteCarloAxis,
    RunLedger,
    Scenario,
    SweepSpec,
    campaign_view,
    get_scenario,
    register,
    render_campaign,
    render_campaign_entries,
    run_sweep,
    unregister,
)
from repro.telemetry.registry import get_registry

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


def _diff(baseline, candidate):
    """The ``repro diff sweep`` gate on two campaigns."""
    return diff_benches([campaign_view(baseline)], campaign_view(candidate),
                        synthetic=CAMPAIGN_VIEW_SYNTHETIC)


def _toy_run(params, session):
    """Module-level (picklable) toy scenario body."""
    get_registry().inc("loop_solve")
    if params["EXPLODE"]:
        raise RuntimeError("injected point failure")
    return {
        "delay_seconds": params["X"] * 2.0 + params["N"],
        "count": params["N"],
    }


@pytest.fixture
def toy_scenario():
    scenario = Scenario(
        name="test-sweep-toy",
        figure="test",
        description="toy sweep scenario",
        defaults={"X": 1.0, "N": 3, "EXPLODE": False, "SIGMA": 0.5},
        run=_toy_run,
    )
    register(scenario)
    try:
        yield scenario
    finally:
        unregister("test-sweep-toy")


#: Set by the killer fixture; forked pool workers inherit it.
_KILL = {}


def _killer_run(params, session):
    """Toy body whose pool worker SIGKILLs itself at ``X == _KILL["x"]``.

    The killing point first waits until every other point is in the
    ledger, so exactly those points completed when the worker dies.
    """
    get_registry().inc("loop_solve")
    if params["X"] == _KILL["x"] and os.getpid() != _KILL["parent"]:
        ledger = RunLedger(_KILL["ledger"])
        deadline = time.monotonic() + 10.0
        while (len(ledger.entries()) < _KILL["others"]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        time.sleep(0.1)
        os.kill(os.getpid(), signal.SIGKILL)
    return {"delay_seconds": params["X"], "count": 1}


@pytest.fixture
def killer_scenario(ledger):
    register(Scenario(
        name="test-sweep-killer",
        figure="test",
        description="toy sweep scenario that kills its pool worker",
        defaults={"X": 1.0},
        run=_killer_run,
    ))
    _KILL.update(x=4.0, others=3, parent=os.getpid(),
                 ledger=str(ledger.root))
    try:
        yield
    finally:
        _KILL.clear()
        unregister("test-sweep-killer")


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "runs")


# ----------------------------------------------------------------------
# spec: axes, points, identity
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_grid_cartesian_product_in_stable_order(self):
        spec = SweepSpec("s", grid={"X": [1.0, 2.0], "N": [3, 4]})
        points = spec.points()
        # Axes iterate sorted by name: N is the outer loop.
        assert points == [
            {"N": 3, "X": 1.0}, {"N": 3, "X": 2.0},
            {"N": 4, "X": 1.0}, {"N": 4, "X": 2.0},
        ]

    def test_base_and_explicit_points_compose(self):
        spec = SweepSpec("s", explicit=[{"X": 1.0}, {"X": 9.0}],
                         grid={"N": [3, 4]}, base={"SIGMA": 0.25})
        points = spec.points()
        assert len(points) == 4
        assert all(p["SIGMA"] == 0.25 for p in points)
        assert {p["X"] for p in points} == {1.0, 9.0}

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ScenarioError, match="no values"):
            SweepSpec("s", grid={"X": []})

    def test_grid_mc_overlap_rejected(self):
        with pytest.raises(ScenarioError, match="both grid"):
            SweepSpec("s", grid={"X": [1.0]},
                      mc={"X": MonteCarloAxis("normal", 1.0, 0.1)})

    def test_mc_draws_are_seed_deterministic(self):
        axis = MonteCarloAxis("normal", 1.0, 0.1)
        a = SweepSpec("s", mc={"SIGMA": axis}, samples=5, seed=7).points()
        b = SweepSpec("s", mc={"SIGMA": axis}, samples=5, seed=7).points()
        c = SweepSpec("s", mc={"SIGMA": axis}, samples=5, seed=8).points()
        assert a == b
        assert a != c
        assert len({p["SIGMA"] for p in a}) == 5

    def test_mc_samples_multiply_grid_points(self):
        spec = SweepSpec("s", grid={"X": [1.0, 2.0]},
                         mc={"SIGMA": MonteCarloAxis("uniform", 0.0, 1.0)},
                         samples=3, seed=1)
        points = spec.points()
        assert len(points) == 6
        # Sample s draws the same value at every grid point -- the MC
        # stream depends only on (seed, sample index).
        sigmas = sorted({p["SIGMA"] for p in points})
        assert len(sigmas) == 3

    def test_samples_ignored_without_mc_axes(self):
        spec = SweepSpec("s", grid={"X": [1.0]}, samples=10)
        assert len(spec.points()) == 1

    def test_resolved_makes_sweep_id_spelling_independent(self, toy_scenario):
        scenario = get_scenario("test-sweep-toy")
        a = SweepSpec("test-sweep-toy",
                      grid={"X": ["4e-3", 2.0], "N": ["3", 4]})
        b = SweepSpec("test-sweep-toy",
                      grid={"X": [0.004, "2.0"], "N": [3, "4"]})
        assert a.resolved(scenario).sweep_id == b.resolved(scenario).sweep_id

    def test_resolved_rejects_unknown_and_non_float_mc(self, toy_scenario):
        scenario = get_scenario("test-sweep-toy")
        with pytest.raises(ScenarioError, match="no parameter"):
            SweepSpec("test-sweep-toy",
                      grid={"BOGUS": [1]}).resolved(scenario)
        with pytest.raises(ScenarioError, match="float"):
            SweepSpec("test-sweep-toy",
                      mc={"N": MonteCarloAxis("normal", 3.0, 1.0)}
                      ).resolved(scenario)

    def test_varying_params(self):
        spec = SweepSpec("s", grid={"X": [1.0, 2.0]},
                         mc={"SIGMA": MonteCarloAxis("normal", 0.5, 0.1)},
                         explicit=[{"N": 3, "EXPLODE": False},
                                   {"N": 4, "EXPLODE": False}])
        assert spec.varying_params() == ["N", "SIGMA", "X"]


class TestMonteCarloAxis:
    def test_parse_accepts_all_shapes(self):
        assert MonteCarloAxis.parse("normal(1.5, 0.1)").dist == "normal"
        assert MonteCarloAxis.parse(" Uniform(0, 2) ").dist == "uniform"
        axis = MonteCarloAxis.parse("lognormal(0.0,0.25)")
        assert axis.describe() == "lognormal(0,0.25)"

    def test_parse_rejects_garbage(self):
        for bad in ("normal(1.5)", "triangle(1,2)", "normal(a,b)",
                    "uniform(2,1)", "normal(1,-0.5)", "X=normal(1,2)"):
            with pytest.raises(ScenarioError):
                MonteCarloAxis.parse(bad)

    def test_sampling_matches_random_module(self):
        axis = MonteCarloAxis("normal", 1.0, 0.5)
        assert axis.sample(random.Random(3)) == \
            random.Random(3).gauss(1.0, 0.5)


# ----------------------------------------------------------------------
# runner: execution, resume, parallelism, failures
# ----------------------------------------------------------------------
class TestSweepRunner:
    GRID = {"X": [1.0, 2.0], "N": [3, 4]}

    def test_serial_sweep_records_one_run_per_point(self, toy_scenario,
                                                    ledger):
        spec = SweepSpec("test-sweep-toy", grid=self.GRID)
        report = run_sweep(spec, ledger=ledger)
        assert report.total == 4
        assert report.completed == 4
        assert report.failed_count == 0
        assert report.skipped_count == 0
        assert report.solver_call_count == 4  # one loop_solve per point
        assert len(ledger.entries()) == 4
        assert len({row["run_id"] for row in report.points}) == 4
        assert report.campaign_id  # persisted in the ledger
        assert ledger.load_campaign(report.campaign_id)["sweep_id"] == \
            report.sweep_id

    def test_identical_rerun_replays_with_zero_solver_calls(
            self, toy_scenario, ledger):
        spec = SweepSpec("test-sweep-toy", grid=self.GRID)
        run_sweep(spec, ledger=ledger)
        again = run_sweep(spec, ledger=ledger)
        assert again.skipped_count == 4
        assert again.solver_call_count == 0
        assert len(ledger.entries()) == 4  # no new runs
        # Both campaigns persist separately for diffing.
        assert len(ledger.campaign_entries()) == 2

    def test_force_reexecutes(self, toy_scenario, ledger):
        spec = SweepSpec("test-sweep-toy", grid={"X": [1.0]})
        run_sweep(spec, ledger=ledger)
        forced = run_sweep(spec, ledger=ledger, force=True)
        assert forced.skipped_count == 0
        assert forced.solver_call_count == 1
        assert len(ledger.entries()) == 2

    @pytest.mark.skipif(not _FORK, reason="needs fork start method for "
                        "runtime-registered scenarios in pool workers")
    def test_parallel_sweep_matches_serial(self, toy_scenario, ledger):
        spec = SweepSpec("test-sweep-toy", grid=self.GRID)
        before = get_registry().snapshot()
        report = run_sweep(spec, ledger=ledger, workers=2)
        assert report.workers == 2
        assert report.completed == 4
        assert report.solver_call_count == 4
        # Parent registry never absorbs worker solver counters.
        delta = get_registry().snapshot().minus(before)
        assert delta.counters.get("loop_solve", 0) == 0
        resumed = run_sweep(spec, ledger=ledger, workers=2)
        assert resumed.skipped_count == 4
        assert resumed.solver_call_count == 0

    @pytest.mark.skipif(not _FORK, reason="needs fork start method for "
                        "runtime-registered scenarios in pool workers")
    def test_killed_worker_is_typed_and_resumable(self, killer_scenario,
                                                  ledger):
        spec = SweepSpec("test-sweep-killer",
                         grid={"X": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(WorkerLostError, match="resumes"):
            run_sweep(spec, ledger=ledger, workers=2)
        completed = {e.run_key for e in ledger.entries()}
        assert len(completed) == 3
        assert ledger.campaign_entries() == []
        # in-process re-run: the killer only fires in pool workers
        again = run_sweep(spec, ledger=ledger)
        assert again.completed == 4
        replayed = {row["run_key"] for row in again.points if row["skipped"]}
        assert replayed == completed
        assert again.solver_call_count == 1  # only the lost point ran

    def test_workers_below_one_rejected(self, toy_scenario, ledger):
        with pytest.raises(ScenarioError, match="workers"):
            run_sweep(SweepSpec("test-sweep-toy", grid=self.GRID),
                      ledger=ledger, workers=0)

    def test_point_failure_rosters_without_killing_campaign(
            self, toy_scenario, ledger):
        spec = SweepSpec("test-sweep-toy",
                         grid={"EXPLODE": [False, True], "X": [1.0]})
        report = run_sweep(spec, ledger=ledger)
        assert report.completed == 1
        assert report.failed_count == 1
        failures = report.failures()
        assert len(failures) == 1
        assert "injected point failure" in failures[0]["error"]
        # The failed run is in the ledger too (provenance preserved).
        assert failures[0]["run_id"]
        statuses = {e.status for e in ledger.entries()}
        assert statuses == {"completed", "failed"}

    def test_invalid_point_fails_before_running_anything(
            self, toy_scenario, ledger):
        spec = SweepSpec("test-sweep-toy", grid={"N": ["2.5"]})
        with pytest.raises(ScenarioError):
            run_sweep(spec, ledger=ledger)
        assert len(ledger.entries()) == 0

    def test_empty_sweep_rejected(self, toy_scenario, ledger):
        with pytest.raises(ScenarioError, match="no points"):
            run_sweep(SweepSpec("test-sweep-toy"), ledger=ledger)

    def test_unknown_scenario_rejected(self, ledger):
        with pytest.raises(ScenarioError):
            run_sweep(SweepSpec("no-such-scenario", grid={"X": [1.0]}),
                      ledger=ledger)


# ----------------------------------------------------------------------
# observability: progress callback + gauges + correlation
# ----------------------------------------------------------------------
class TestSweepObservability:
    def test_progress_ticks_and_gauges(self, toy_scenario, ledger):
        from repro.telemetry.export import prometheus_text

        ticks = []
        spec = SweepSpec("test-sweep-toy", grid={"X": [1.0, 2.0]})
        run_sweep(spec, ledger=ledger, progress=ticks.append)
        assert [t.done for t in ticks] == [1, 2]
        last = ticks[-1]
        assert last.total == 2
        assert last.failed == 0
        assert last.points_per_second > 0
        assert last.solver_calls == 2
        assert last.eta_seconds == 0.0
        snap = get_registry().snapshot()
        assert snap.gauges["sweep_points_done"] == 2.0
        assert snap.gauges["sweep_running"] == 0.0
        assert snap.gauges["sweep_solver_calls"] == 2.0
        text = prometheus_text(snap)
        assert "repro_sweep_points_done 2" in text
        assert "repro_sweep_points_per_second" in text

    def test_sweep_counters_are_observational(self):
        from repro.telemetry.registry import is_solver_counter

        assert not is_solver_counter("sweep_points_done")
        assert is_solver_counter("loop_solve")

    def test_logs_carry_sweep_correlation(self, toy_scenario, ledger):
        from repro.telemetry.logs import get_log_ring

        spec = SweepSpec("test-sweep-toy", grid={"X": [7.0]})
        report = run_sweep(spec, ledger=ledger)
        records = [r for r in get_log_ring().records()
                   if r.get("event") in ("sweep_start", "sweep_done")]
        assert len(records) >= 2
        for record in records[-2:]:
            assert record["sweep_id"] == report.sweep_id[:12]


# ----------------------------------------------------------------------
# campaign records: persistence, rendering, diff
# ----------------------------------------------------------------------
class TestCampaignReport:
    def _report(self, toy, ledger, grid=None):
        spec = SweepSpec("test-sweep-toy",
                         grid=grid or {"X": [1.0, 2.0], "N": [3, 4]})
        return run_sweep(spec, ledger=ledger)

    def test_roundtrip(self, toy_scenario, ledger):
        report = self._report(toy_scenario, ledger)
        clone = CampaignReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert clone.sweep_id == report.sweep_id
        assert clone.completed == 4
        assert clone.solver_call_count == report.solver_call_count
        assert clone.summary() == report.summary()

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            CampaignReport.from_dict({"schema_version": 99})

    def test_axis_summaries_marginalize_grid(self, toy_scenario, ledger):
        report = self._report(toy_scenario, ledger)
        summaries = report.axis_summaries()
        assert set(summaries) == {"N", "X"}
        by_level = {row["level"]: row for row in summaries["X"]}
        assert by_level[1.0]["count"] == 2
        # delay = X*2 + N averaged over N in {3,4} -> X*2 + 3.5
        assert by_level[1.0]["metrics"]["delay_seconds"]["mean"] == \
            pytest.approx(5.5)
        assert by_level[2.0]["metrics"]["delay_seconds"]["mean"] == \
            pytest.approx(7.5)

    def test_extremes_follow_metric_direction(self, toy_scenario, ledger):
        report = self._report(toy_scenario, ledger)
        ends = report.extremes()["delay_seconds"]
        assert ends["best"]["value"] == pytest.approx(5.0)   # lower better
        assert ends["worst"]["value"] == pytest.approx(8.0)
        assert "X=2" in ends["worst"]["label"]

    def test_render_contains_per_axis_and_points(self, toy_scenario,
                                                 ledger):
        report = self._report(toy_scenario, ledger)
        text = render_campaign(report)
        assert "per-axis" in text
        assert "best/worst" in text
        assert report.campaign_id in text
        assert text.count("completed") >= 4

    def test_render_entries_table(self, toy_scenario, ledger):
        self._report(toy_scenario, ledger)
        rows = ledger.campaign_entries()
        text = render_campaign_entries(rows)
        assert rows[0]["campaign_id"] in text
        assert render_campaign_entries([]) == "no campaigns recorded\n"

    def test_diff_identical_campaigns_passes(self, toy_scenario, ledger):
        a = self._report(toy_scenario, ledger)
        b = self._report(toy_scenario, ledger)  # ledger replay
        diff = _diff(a, b)
        assert diff.passed
        assert not diff.nothing_compared

    def test_diff_disjoint_grids_is_nothing_compared(self, toy_scenario,
                                                     ledger):
        a = self._report(toy_scenario, ledger, grid={"X": [1.0]})
        b = self._report(toy_scenario, ledger, grid={"X": [9.0]})
        diff = _diff(a, b)
        assert diff.nothing_compared
        assert "NOTHING COMPARED" in diff.render()

    def test_resolve_campaign_selectors(self, toy_scenario, ledger):
        a = self._report(toy_scenario, ledger)
        b = self._report(toy_scenario, ledger)
        # By scenario name: latest campaign.
        assert ledger.resolve_campaign("test-sweep-toy")["campaign_id"] \
            == b.campaign_id
        # By full campaign id; prefixes shared by both are ambiguous.
        assert ledger.resolve_campaign(a.campaign_id)["campaign_id"] == \
            a.campaign_id
        with pytest.raises(ScenarioError, match="ambiguous"):
            ledger.resolve_campaign(a.sweep_id[:8])
        with pytest.raises(ScenarioError, match="no campaign"):
            ledger.resolve_campaign("zzzzzz")
