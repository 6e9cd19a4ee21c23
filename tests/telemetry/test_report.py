"""RunReport: capture sessions, save/load roundtrip, rendering, CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import TelemetryError
from repro.telemetry import (
    HistogramSnapshot,
    MetricsSnapshot,
    RunReport,
    get_registry,
    get_tracer,
    load_report,
    render_report,
    span,
    telemetry_session,
)


@pytest.fixture(autouse=True)
def clean_global_state():
    get_registry().reset()
    get_tracer().reset()
    yield
    get_registry().reset()
    get_tracer().reset()


class TestSession:
    def test_captures_metrics_spans_and_duration(self):
        with telemetry_session("unit-test") as session:
            get_registry().inc("loop_solve", 3)
            with span("inner.work", n=1):
                pass
            session.add_meta(points=4)
        report = session.report
        assert report is not None
        assert report.command == "unit-test"
        assert report.duration > 0.0
        assert report.metrics.counter("loop_solve") == 3
        assert report.meta == {"points": 4}
        # one root (the session span) wrapping the inner span
        assert [s["name"] for s in report.spans] == ["unit-test"]
        assert report.spans[0]["children"][0]["name"] == "inner.work"

    def test_assembles_report_even_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry_session("crashing") as session:
                get_registry().inc("loop_solve")
                raise RuntimeError("boom")
        report = session.report
        assert report is not None
        assert report.metrics.counter("loop_solve") == 1
        assert report.spans[0]["status"] == "error"

    def test_sessions_do_not_crosstalk(self):
        with telemetry_session("first") as s1:
            get_registry().inc("loop_solve", 5)
        with telemetry_session("second") as s2:
            get_registry().inc("loop_solve", 2)
        assert s1.report.metrics.counter("loop_solve") == 5
        assert s2.report.metrics.counter("loop_solve") == 2

    def test_worker_metrics_merge_into_totals(self):
        with telemetry_session("build") as session:
            get_registry().inc("loop_solve", 1)
            session.add_worker_metrics(
                MetricsSnapshot(counters={"loop_solve": 4, "lp_pair_eval": 9})
            )
            session.add_worker_metrics(
                MetricsSnapshot(counters={"loop_solve": 2})
            )
            session.add_worker_spans(
                [{"name": "library.chunk", "duration": 0.5}]
            )
        report = session.report
        totals = report.totals()
        assert report.metrics.counter("loop_solve") == 1
        assert report.worker_metrics.counter("loop_solve") == 6
        assert totals.counter("loop_solve") == 7
        assert totals.counter("lp_pair_eval") == 9
        assert [s["name"] for s in report.spans] == ["build", "library.chunk"]


class TestPersistence:
    def _report(self) -> RunReport:
        return RunReport(
            command="repro test",
            started_at=1700000000.0,
            duration=1.25,
            metrics=MetricsSnapshot(
                counters={"loop_solve": 2},
                histograms={
                    "lookup_latency_seconds": HistogramSnapshot(
                        (1e-3,), (1, 0), 2e-4, 1
                    )
                },
            ),
            worker_metrics=MetricsSnapshot(counters={"lp_pair_eval": 11}),
            spans=[{"name": "root", "duration": 1.2, "status": "ok"}],
            meta={"workers": 2},
        )

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        self._report().save(path)
        loaded = load_report(path)
        assert loaded == self._report()

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        data = self._report().to_dict()
        data["schema_version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(TelemetryError):
            load_report(path)

    def test_unreadable_report_rejected(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(TelemetryError):
            load_report(bad)
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        with pytest.raises(TelemetryError):
            load_report(listy)

    def test_spans_jsonl(self):
        text = self._report().spans_jsonl()
        record = json.loads(text.strip())
        assert record["name"] == "root"
        assert record["depth"] == 0


class TestSchemaMigration:
    """Reports load only at the current schema; older ones are refused."""

    def test_pre_v5_report_rejected(self, tmp_path):
        data = RunReport(command="repro fig1").to_dict()
        data["schema_version"] = 4
        del data["campaign"]
        path = tmp_path / "v4.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TelemetryError, match="schema 4"):
            load_report(path)

    def test_saved_reports_are_v4(self, tmp_path):
        path = tmp_path / "v5.json"
        RunReport(command="x").save(path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == 5
        assert data["coverage"] == []
        assert data["table_health"] == []
        assert data["simulation"] == {}
        assert data["slo"] == {}
        assert data["profile"] == {}
        text = render_report(load_report(path))
        assert "lookup-domain coverage" not in text
        assert "table health" not in text

    def test_v4_observability_sections_roundtrip(self, tmp_path):
        report = RunReport(
            command="repro serve",
            slo={
                "status": "warn",
                "endpoints": {
                    "extract": {
                        "slis": {
                            "availability": {"status": "warn",
                                             "burn_rate": 7.5,
                                             "target": 0.99,
                                             "windows": []},
                        },
                        "lifetime": {"total": 120, "bad": 3, "slow": 9},
                    },
                },
            },
            profile={"interval_seconds": 0.005, "samples": 321,
                     "distinct_stacks": 17, "timeline_samples": 321,
                     "duration_seconds": 2.0,
                     "hottest": [{"leaf": "repro.peec.hoer_love."
                                          "mutual_inductance_batch",
                                  "count": 200}]},
        )
        path = tmp_path / "r.json"
        report.save(path)
        loaded = load_report(path)
        assert loaded.slo == report.slo
        assert loaded.profile == report.profile
        text = render_report(loaded)
        assert "slo status: warn" in text
        assert "extract: availability=warn (burn 7.5)" in text
        assert "profile: 321 samples" in text
        assert "mutual_inductance_batch" in text

    def test_v3_simulation_section_roundtrips(self, tmp_path):
        report = RunReport(
            command="repro skew",
            simulation={"rlc": {
                "diagnostics": {"method": "trapezoidal", "steps": 100,
                                "dt": 5e-13, "lte_p95": 1e-6,
                                "energy_residual": 1e-9,
                                "dt_adequate": True},
                "netlist_health": {"name": "clocktree_rlc", "clean": True,
                                   "num_errors": 0, "num_warnings": 0},
            }},
        )
        path = tmp_path / "r.json"
        report.save(path)
        loaded = load_report(path)
        assert loaded.simulation == report.simulation
        text = render_report(loaded)
        assert "simulation (1 netlist(s))" in text
        assert "LTE p95=1.000e-06" in text
        assert "netlist health [clocktree_rlc]: clean" in text

    def test_v2_quality_sections_roundtrip(self, tmp_path):
        report = RunReport(
            command="x",
            coverage=[{"table": "loop_inductance", "lookups": 3,
                       "interior": 2, "edge": 0, "extrapolated": 1,
                       "extrapolation_fraction": 1 / 3,
                       "axis_names": ["width"], "axes": [],
                       "hot_spots": {"width=3e-05": 1},
                       "hot_spot_overflow": 0}],
            table_health=[{"schema_version": 1,
                           "table_name": "loop_inductance"}],
        )
        path = tmp_path / "r.json"
        report.save(path)
        loaded = load_report(path)
        assert loaded.coverage == report.coverage
        assert loaded.table_health == report.table_health


class TestRendering:
    def test_render_contains_spans_and_metrics(self):
        report = RunReport(
            command="repro skew",
            started_at=1700000000.0,
            duration=2.0,
            metrics=MetricsSnapshot(counters={
                "loop_solve": 3, "lp_memo_hit": 3, "lp_memo_miss": 1,
                "lp_pair_eval": 10, "lp_pair_total": 40,
            }),
            worker_metrics=MetricsSnapshot(counters={"loop_solve": 5}),
            spans=[{
                "name": "repro skew", "duration": 2.0, "status": "ok",
                "children": [{
                    "name": "htree.build_netlist", "duration": 1.0,
                    "status": "error", "error": "ValueError: x",
                    "tags": {"segments": 7},
                }],
            }],
            meta={"library_root": "/tmp/lib"},
        )
        text = render_report(report)
        assert "repro skew" in text
        assert "htree.build_netlist" in text
        assert "segments=7" in text
        assert "status=error" in text
        assert "library_root: /tmp/lib" in text
        # totals include workers; parent/worker split is shown
        assert "(parent 3, workers 5)" in text
        assert "memo_hit_rate" in text
        assert "75.0%" in text
        assert "dedup_factor" in text
        assert "4.00x" in text

    def test_render_truncates_span_tree(self):
        spans = [{"name": f"s{i}", "duration": 0.0, "status": "ok"}
                 for i in range(10)]
        report = RunReport(command="x", spans=spans)
        text = render_report(report, max_spans=4)
        assert "... 6 more span(s)" in text


class TestCli:
    def test_telemetry_flag_writes_report_and_report_renders(
        self, tmp_path, capsys
    ):
        out = tmp_path / "fig1.json"
        assert main(["fig1", "--telemetry", str(out)]) == 0
        assert out.exists()
        report = load_report(out)
        assert report.command == "repro fig1"
        assert report.meta.get("exit_code") == 0
        assert report.metrics.counter("loop_solve") > 0
        capsys.readouterr()

        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "telemetry report: repro fig1" in text
        assert "loop_solve" in text

    def test_report_spans_jsonl_mode(self, tmp_path, capsys):
        out = tmp_path / "fig1.json"
        assert main(["fig1", "--telemetry", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out), "--spans-jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "repro fig1"
        assert any(r["depth"] > 0 for r in records)
