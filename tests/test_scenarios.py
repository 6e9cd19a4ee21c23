"""Scenario registry, parameter canonicalization, and the run ledger."""

import json
import time

import pytest

from repro.errors import ScenarioError, ScenarioRunError
from repro.quality import diff_benches
from repro.scenarios import (
    RUN_VIEW_SYNTHETIC,
    RunLedger,
    Scenario,
    all_scenarios,
    canonical_params,
    coerce_param,
    compute_run_key,
    get_scenario,
    register,
    render_entries,
    render_run,
    run_scenario,
    run_view,
    scenario_names,
    unregister,
)


def _diff(baseline, candidate):
    """The ``repro diff run`` gate on two run records."""
    return diff_benches([run_view(baseline)], run_view(candidate),
                        synthetic=RUN_VIEW_SYNTHETIC)


# ----------------------------------------------------------------------
# synthetic scenario harness
# ----------------------------------------------------------------------
@pytest.fixture
def counting_scenario():
    """A registered throwaway scenario that counts real executions."""
    calls = {"n": 0, "fail": False}

    def run(params, session):
        calls["n"] += 1
        if calls["fail"]:
            raise RuntimeError("injected failure")
        return {"answer": 42.0, "knob": params["KNOB"],
                "duration_seconds": 0.5}

    scenario = Scenario(
        name="test-counting",
        figure="test",
        description="test scenario",
        defaults={"KNOB": 1.0, "FLAG": False, "LABEL": "x"},
        run=run,
    )
    register(scenario)
    try:
        yield scenario, calls
    finally:
        unregister("test-counting")


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "runs")


# ----------------------------------------------------------------------
# spec: coercion + canonicalization
# ----------------------------------------------------------------------
class TestParamCanonicalization:
    def test_float_spellings_collapse(self):
        assert coerce_param("L", 1.0, "4e-3") == 0.004
        assert coerce_param("L", 1.0, " 0.004 ") == 0.004
        assert coerce_param("L", 1.0, 0.004) == 0.004

    def test_bool_and_int_coercion(self):
        assert coerce_param("F", False, "true") is True
        assert coerce_param("F", True, "0") is False
        assert coerce_param("N", 3, "8") == 8
        with pytest.raises(ScenarioError):
            coerce_param("N", 3, "2.5")
        with pytest.raises(ScenarioError):
            coerce_param("F", False, "maybe")

    def test_unknown_param_lists_valid_names(self):
        with pytest.raises(ScenarioError, match="KNOB"):
            canonical_params({"KNOB": 1.0}, {"NOPE": "3"}, scenario="s")

    def test_key_order_and_spelling_invariant_run_key(self):
        defaults = {"B": 2.0, "A": 1.0}
        p1 = canonical_params(defaults, {"A": "4e-3", "B": "1"})
        p2 = canonical_params(defaults, {"B": "1.0", "A": " 0.004"})
        assert list(p1) == ["A", "B"]  # sorted
        assert compute_run_key("s", p1) == compute_run_key("s", p2)
        assert compute_run_key("s", p1) != compute_run_key("other", p1)
        assert compute_run_key("s", p1) != compute_run_key(
            "s", p1, kit_sha="deadbeef")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_discovers_paper_scenarios(self):
        names = scenario_names()
        for expected in ("fig1-delay", "fig5-foundations", "table1-cascading",
                         "length-scaling", "table-accuracy", "htree-skew",
                         "process-variation", "bus-crosstalk",
                         "variation-skew"):
            assert expected in names

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(ScenarioError, match="htree-skew"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self, counting_scenario):
        scenario, _ = counting_scenario
        with pytest.raises(ScenarioError, match="already registered"):
            register(scenario)

    def test_all_scenarios_grouped_by_figure(self):
        figures = [s.figure for s in all_scenarios()]
        assert figures == sorted(figures)


# ----------------------------------------------------------------------
# ledger round-trip
# ----------------------------------------------------------------------
class TestLedgerRoundTrip:
    def test_record_list_show_diff(self, ledger, counting_scenario):
        _, calls = counting_scenario
        o1 = run_scenario("test-counting", {"KNOB": "2"}, ledger=ledger)
        o2 = run_scenario("test-counting", {"KNOB": "3"}, ledger=ledger)
        assert calls["n"] == 2
        assert not o1.skipped and not o2.skipped
        assert o1.run_key != o2.run_key

        entries = ledger.entries(scenario="test-counting")
        assert [e.run_id for e in entries] == [o1.run_id, o2.run_id]
        assert "test-counting" in render_entries(entries)

        run = ledger.load_run(o1.run_id)
        assert run["params"]["KNOB"] == 2.0
        assert run["metrics"]["answer"] == 42.0
        assert run["meta"]["git_sha"]
        text = render_run(run)
        assert o1.run_id in text and "KNOB" in text and "answer" in text

        diff = _diff(run, ledger.load_run(o2.run_id))
        assert diff.passed  # informational metrics never gate

    def test_diff_flags_duration_regression(self, ledger, counting_scenario):
        o1 = run_scenario("test-counting", ledger=ledger)
        run1 = ledger.load_run(o1.run_id)
        run2 = json.loads(json.dumps(run1))
        run2["metrics"]["duration_seconds"] = 5.0  # 10x worse, lower-better
        assert not _diff(run1, run2).passed
        assert _diff(run2, run1).passed  # got faster: fine

    def test_report_and_logs_captured(self, ledger, counting_scenario):
        from repro.telemetry.logs import get_logger

        def run(params, session):
            get_logger("test.scenario").info("inside-the-run", knob=1)
            return {"ok": 1.0}

        register(Scenario(name="test-logging", figure="test",
                          description="", run=run))
        try:
            outcome = run_scenario("test-logging", ledger=ledger)
        finally:
            unregister("test-logging")
        report = ledger.load_report(outcome.run_id)
        assert report is not None
        assert report.command == "repro run test-logging"
        logs = ledger.load_logs(outcome.run_id)
        assert any(r.get("event") == "inside-the-run" for r in logs)

    def test_resolve_selectors(self, ledger, counting_scenario):
        o1 = run_scenario("test-counting", ledger=ledger)
        o2 = run_scenario("test-counting", {"KNOB": "9"}, ledger=ledger)
        assert ledger.resolve(o1.run_id).run_id == o1.run_id
        assert ledger.resolve(o1.run_id[:8]).run_id == o1.run_id
        # scenario name -> latest completed
        assert ledger.resolve("test-counting").run_id == o2.run_id
        sha = ledger.entries()[0].git_sha
        assert ledger.resolve(f"test-counting@{sha[:8]}").run_id == o2.run_id
        with pytest.raises(ScenarioError, match="no run matches"):
            ledger.resolve("nonexistent")


# ----------------------------------------------------------------------
# skip-if-done semantics
# ----------------------------------------------------------------------
class TestSkipIfDone:
    def test_identical_request_skips(self, ledger, counting_scenario):
        _, calls = counting_scenario
        first = run_scenario("test-counting", {"KNOB": "4e-3"}, ledger=ledger)
        again = run_scenario("test-counting", {"KNOB": "0.004"},
                             ledger=ledger)
        assert calls["n"] == 1
        assert not first.skipped and again.skipped
        assert again.run_id == first.run_id
        assert again.metrics == first.metrics
        assert len(ledger.entries()) == 1

    def test_force_reruns(self, ledger, counting_scenario):
        _, calls = counting_scenario
        run_scenario("test-counting", ledger=ledger)
        forced = run_scenario("test-counting", ledger=ledger, force=True)
        assert calls["n"] == 2
        assert not forced.skipped
        assert forced.run_id.endswith("-02")

    def test_failed_run_recorded_and_not_skip_matched(
            self, ledger, counting_scenario):
        _, calls = counting_scenario
        calls["fail"] = True
        with pytest.raises(ScenarioRunError) as excinfo:
            run_scenario("test-counting", ledger=ledger)
        failed_id = excinfo.value.run_id
        entry = ledger.entries()[-1]
        assert entry.run_id == failed_id
        assert entry.status == "failed"
        assert "injected failure" in ledger.load_run(failed_id)["error"]
        # the failure does not satisfy skip-if-done: the fixed code reruns
        calls["fail"] = False
        retry = run_scenario("test-counting", ledger=ledger)
        assert not retry.skipped
        assert calls["n"] == 2

    def test_zero_solver_calls_on_skip(self, ledger):
        from repro.telemetry import metrics_meter

        run_scenario("fig1-delay", {"SECTIONS": "4"}, ledger=ledger)
        with metrics_meter() as meter:
            outcome = run_scenario("fig1-delay", {"SECTIONS": "4"},
                                   ledger=ledger)
        assert outcome.skipped
        assert meter.total == 0, meter.counts  # provably zero field solves
        assert outcome.metrics["delay_ratio"] > 1.0


# ----------------------------------------------------------------------
# garbage collection
# ----------------------------------------------------------------------
class TestLedgerGC:
    def _seed(self, ledger, n, t0=1000.0):
        for i in range(n):
            ledger.record(scenario=f"s{i}", run_key=f"{i:064d}",
                          started_at=t0 + i, meta={"git_sha": "x"})

    def test_keep_bound_enforced(self, ledger):
        self._seed(ledger, 5)
        removed = ledger.gc(keep=2)
        assert len(removed) == 3
        kept = ledger.entries()
        assert len(kept) == 2
        assert [e.scenario for e in kept] == ["s3", "s4"]  # oldest pruned
        for entry in removed:
            assert not ledger.run_dir(entry.run_id).exists()

    def test_age_bound_enforced(self, ledger):
        now = time.time()
        ledger.record(scenario="old", run_key="a" * 64,
                      started_at=now - 10 * 86400, meta={})
        ledger.record(scenario="new", run_key="b" * 64,
                      started_at=now, meta={})
        removed = ledger.gc(max_age_days=5.0, now=now)
        assert [e.scenario for e in removed] == ["old"]
        assert [e.scenario for e in ledger.entries()] == ["new"]

    def test_gc_noop_when_within_bounds(self, ledger):
        self._seed(ledger, 2)
        assert ledger.gc(keep=10) == []
        assert len(ledger.entries()) == 2
