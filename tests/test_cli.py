"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("fig1", "fig5", "table1", "scaling", "skew",
                        "variation", "accuracy"):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_skew_has_no_solver_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["skew", "--solver", "dense"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --solver" in capsys.readouterr().err

    def test_lint_command_known(self):
        args = build_parser().parse_args(["lint", "deck.sp"])
        assert callable(args.func)
        assert args.netlist == "deck.sp"
        assert not args.strict

    def test_characterize_needs_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize"])


class TestExecution:
    def test_scaling_runs(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "2.2" in out or "2.3" in out
        assert "Super-linear" in out

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "fig6a" in out
        assert "fig6b" in out

    def test_fig5_runs(self, capsys):
        assert main(["fig5", "--traces", "3"]) == 0
        out = capsys.readouterr().out
        assert "Foundation 1" in out
        assert "Foundation 2" in out

    def test_accuracy_runs(self, capsys):
        assert main(["accuracy"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "characterization time" in out

    def test_variation_runs(self, capsys):
        assert main(["variation"]) == 0
        out = capsys.readouterr().out
        assert "L spread" in out or "L is" in out

    def test_crosstalk_runs(self, capsys):
        assert main(["crosstalk", "--traces", "5", "--length", "800"]) == 0
        out = capsys.readouterr().out
        assert "aggressor T3" in out
        assert "mV" in out

    def test_spice_export(self, tmp_path, capsys):
        path = tmp_path / "tree.sp"
        assert main(["spice", "--output", str(path), "--levels", "1",
                     "--root-length", "1000"]) == 0
        text = path.read_text()
        assert text.rstrip().endswith(".end")
        assert "PULSE(" in text

    def test_spice_rc_only(self, tmp_path):
        path = tmp_path / "rc.sp"
        assert main(["spice", "--output", str(path), "--levels", "1",
                     "--root-length", "1000", "--rc-only"]) == 0
        text = path.read_text()
        assert "\nL_" not in text

    def test_characterize_writes_tables(self, tmp_path, capsys):
        code = main([
            "characterize", "--output", str(tmp_path),
            "--widths", "5", "10",
            "--lengths", "500", "1000",
        ])
        assert code == 0
        assert (tmp_path / "inductance.json").exists()
        assert (tmp_path / "resistance.json").exists()


_BAD_DECK = "* bad\nV1 in 0 DC 1\nR1 in out 10\nC1 out 0 -1p\n.end\n"
_OVERCOUPLED_DECK = ("* bad\nV1 in 0 DC 1\nL1 in x 1n\nL2 x 0 1n\n"
                     "K1 L1 L2 1.2\n.end\n")
_STUBBY_DECK = ("* warn\nV1 a 0 DC 1\nR1 a 0 10\nRstub a stub 5\n.end\n")


class TestLintCLI:
    def _extracted_deck(self, tmp_path):
        path = tmp_path / "tree.sp"
        assert main(["spice", "--output", str(path), "--levels", "1",
                     "--root-length", "1000"]) == 0
        return path

    def test_extracted_htree_deck_is_clean(self, tmp_path, capsys):
        path = self._extracted_deck(tmp_path)
        capsys.readouterr()
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert path.name in out

    def test_negative_capacitance_deck_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.sp"
        path.write_text(_BAD_DECK)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "parse_error" in out
        assert "ERROR" in out

    def test_overcoupled_deck_fails(self, tmp_path, capsys):
        path = tmp_path / "k.sp"
        path.write_text(_OVERCOUPLED_DECK)
        assert main(["lint", str(path)]) == 1
        assert "rejected by importer" in capsys.readouterr().out

    def test_json_mode(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.sp"
        path.write_text(_BAD_DECK)
        assert main(["lint", str(path), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "bad.sp"
        assert [f["code"] for f in data["findings"]] == ["parse_error"]

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        path = tmp_path / "stub.sp"
        path.write_text(_STUBBY_DECK)
        assert main(["lint", str(path)]) == 0  # warning-only: passes
        assert main(["lint", str(path), "--strict"]) == 1
        assert "dangling_node" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.sp")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_telemetry_report_carries_health(self, tmp_path, capsys):
        from repro.telemetry import load_report

        deck = self._extracted_deck(tmp_path)
        out = tmp_path / "lint.json"
        assert main(["lint", str(deck), "--telemetry", str(out)]) == 0
        capsys.readouterr()
        report = load_report(out)
        assert report.to_dict()["schema_version"] == 5
        health = report.simulation[deck.name]["netlist_health"]
        assert health["findings"] == []
        assert main(["report", str(out)]) == 0
        assert "netlist health" in capsys.readouterr().out


class TestSimulationTelemetry:
    def test_skew_report_has_clean_simulation_section(self, tmp_path, capsys):
        from repro.telemetry import load_report

        out = tmp_path / "skew.json"
        assert main(["skew", "--telemetry", str(out)]) == 0
        capsys.readouterr()
        report = load_report(out)
        assert report.to_dict()["schema_version"] == 5
        assert set(report.simulation) == {"rc", "rlc"}
        for label in ("rc", "rlc"):
            section = report.simulation[label]
            assert section["netlist_health"]["findings"] == []
            assert section["diagnostics"]["steps"] > 0
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "simulation (2 netlist(s))" in text
        assert "netlist health [clocktree_rlc]: clean" in text

    def test_report_trace_json_emits_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "skew.json"
        assert main(["skew", "--telemetry", str(out)]) == 0
        trace_path = tmp_path / "trace.json"
        capsys.readouterr()
        assert main(["report", str(out),
                     "--trace-json", str(trace_path)]) == 0
        assert "chrome trace" in capsys.readouterr().out
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "circuit.transient" in names
        assert any(n.startswith("htree.") for n in names)
        assert trace["otherData"]["command"] == "repro skew"


class TestServeCLI:
    def test_serve_parser(self):
        args = build_parser().parse_args(
            ["serve", "--library", "kit", "--port", "9999",
             "--max-inflight", "4"])
        assert callable(args.func)
        assert args.library == "kit"
        assert args.port == 9999
        assert args.max_inflight == 4
        assert args.frequency is None  # default: the kit's frequency

    def test_serve_requires_library(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_bench_serve_parser(self):
        args = build_parser().parse_args(
            ["bench", "serve", "--library", "kit",
             "--threads", "2", "--requests", "5",
             "--record", "BENCH_serve.json"])
        assert callable(args.func)
        assert args.endpoint == "extract"
        assert args.threads == 2
        assert args.record == "BENCH_serve.json"

    def test_bench_serve_rejects_unknown_endpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench", "serve", "--endpoint", "teleport"])

    def test_bench_serve_needs_a_target(self, capsys):
        assert main(["bench", "serve"]) == 2
        assert "--url or --library" in capsys.readouterr().err

    def test_bench_serve_rejects_non_object_payload(self, capsys):
        assert main(["bench", "serve", "--url", "http://x",
                     "--payload", "[1]"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        from repro.version import get_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert get_version() in capsys.readouterr().out


class TestObservabilityCLI:
    def test_serve_parser_observability_flags(self):
        args = build_parser().parse_args(
            ["serve", "--library", "kit", "--log-file", "serve.log",
             "--log-level", "debug", "--slo-latency-ms", "250",
             "--profile", "prof.txt", "--profile-interval", "2"])
        assert args.log_file == "serve.log"
        assert args.log_level == "debug"
        assert args.slo_latency_ms == 250.0
        assert args.profile == "prof.txt"
        assert args.profile_interval == 2.0

    def test_serve_rejects_bad_log_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--library", "kit", "--log-level", "loud"])

    def test_serve_rejects_bad_slo_latency(self, capsys):
        from repro.telemetry.logs import configure_logging

        try:
            assert main(["serve", "--library", "/nonexistent",
                         "--slo-latency-ms", "0"]) == 2
        finally:
            configure_logging(stream=None, path=None, level="info")
        assert "--slo-latency-ms" in capsys.readouterr().err

    def test_library_build_profile_writes_collapsed_stacks(
        self, tmp_path, capsys
    ):
        from repro.telemetry import load_report

        profile = tmp_path / "build.collapsed"
        report_path = tmp_path / "build.json"
        assert main([
            "library", "build", "--root", str(tmp_path / "kit"),
            "--widths", "6", "10", "--lengths", "500", "1500",
            "--serial", "--quiet",
            "--profile", str(profile), "--profile-interval", "1",
            "--telemetry", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "profile (" in out
        text = profile.read_text()
        assert text.strip()
        for line in text.strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert "." in stack
        # the run report embeds the same profile summary (schema v4)
        report = load_report(report_path)
        assert report.profile["samples"] > 0
        assert report.profile["interval_seconds"] == pytest.approx(1e-3)
        assert report.profile["hottest"]


class TestRunCLI:
    def test_run_records_then_skips(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        args = ["run", "fig1-delay", "--SECTIONS=4", "--ledger", ledger]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Fig. 1 co-planar waveguide clock net" in out
        assert "run recorded:" in out
        # equivalent spelling of the same request -> ledger hit
        assert main(["run", "fig1-delay", "--SECTIONS=4.0",
                     "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "ledger hit" in out
        assert "run recorded:" not in out
        # --force executes again
        assert main(args + ["--force"]) == 0
        assert "run recorded:" in capsys.readouterr().out

    def test_run_list_shows_catalog(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "htree-skew" in out
        assert "TOTAL_LENGTH" in out

    def test_run_without_scenario_is_usage_error(self, capsys):
        assert main(["run"]) == 2
        assert "usage: repro run" in capsys.readouterr().err

    def test_unknown_scenario_and_param_are_errors(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        assert main(["run", "nope", "--ledger", ledger]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert main(["run", "fig1-delay", "--NOPE=1",
                     "--ledger", ledger]) == 2
        assert "no parameter 'NOPE'" in capsys.readouterr().err

    def test_removed_solver_param_is_unknown(self, tmp_path, capsys):
        from repro.errors import ScenarioError
        from repro.scenarios import run_scenario

        ledger = str(tmp_path / "ledger")
        assert main(["run", "htree-skew", "--SOLVER=dense",
                     "--ledger", ledger]) == 2
        err = capsys.readouterr().err
        assert "error: scenario 'htree-skew' has no parameter 'SOLVER'" in err
        with pytest.raises(ScenarioError, match="no parameter 'SOLVER'"):
            run_scenario("htree-skew", {"SOLVER": "dense"})

    def test_param_override_rejected_outside_run(self, capsys):
        assert main(["fig1", "--SECTIONS=4"]) == 2
        assert "only valid with" in capsys.readouterr().err

    def test_runs_list_show_diff_roundtrip(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        assert main(["run", "fig1-delay", "--SECTIONS=4",
                     "--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "fig1-delay" in out and "completed" in out
        assert main(["runs", "show", "fig1-delay", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "SECTIONS" in out and "delay_ratio" in out
        assert main(["runs", "diff", "fig1-delay", "fig1-delay",
                     "--ledger", ledger]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_runs_gc_prunes(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        assert main(["run", "fig1-delay", "--SECTIONS=4",
                     "--ledger", ledger]) == 0
        assert main(["run", "fig1-delay", "--SECTIONS=5",
                     "--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(["runs", "gc", "--keep", "1", "--ledger", ledger]) == 0
        assert "pruned 1 run(s)" in capsys.readouterr().out
        assert main(["runs", "list", "--ledger", ledger]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_runs_missing_ledger_is_usage_error(self, tmp_path, capsys):
        assert main(["runs", "list", "--ledger",
                     str(tmp_path / "absent")]) == 2
        assert "no run ledger" in capsys.readouterr().err

    def test_alias_records_provenance_run(self, tmp_path, monkeypatch,
                                          capsys):
        from repro.scenarios import RunLedger

        root = tmp_path / "alias-ledger"
        monkeypatch.setenv("REPRO_LEDGER", str(root))
        assert main(["fig1"]) == 0
        entries = RunLedger(root).entries(scenario="fig1-delay")
        assert len(entries) == 1
        assert entries[0].status == "completed"
        # aliases always execute -- no skip message even when repeated
        capsys.readouterr()
        assert main(["fig1"]) == 0
        assert "ledger hit" not in capsys.readouterr().out
        assert len(RunLedger(root).entries(scenario="fig1-delay")) == 2

class TestSweepCLI:
    """`repro sweep run|status|report|diff` + the runs --json satellite."""

    @pytest.fixture
    def toy(self):
        from repro.scenarios import Scenario, register, unregister
        from repro.telemetry.registry import get_registry

        def run(params, session):
            get_registry().inc("loop_solve")
            return {"delay_seconds": params["X"] * 2.0}

        register(Scenario(name="test-cli-sweep", figure="test",
                          description="toy", defaults={"X": 1.0},
                          run=run))
        try:
            yield
        finally:
            unregister("test-cli-sweep")

    def test_sweep_run_resume_report_diff(self, toy, tmp_path, capsys):
        import json

        ledger = str(tmp_path / "ledger")
        base = ["sweep", "run", "test-cli-sweep", "--grid", "X=1.0,2.0",
                "--ledger", ledger, "--quiet"]
        assert main(base + ["--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["completed"] == 2
        assert first["solver_call_count"] == 2
        # Equivalent spelling -> full ledger replay, zero solver calls.
        assert main(["sweep", "run", "test-cli-sweep", "--grid", "X=1,2e0",
                     "--ledger", ledger, "--quiet", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["skipped"] == 2
        assert second["solver_call_count"] == 0
        assert second["sweep_id"] == first["sweep_id"]

        assert main(["sweep", "status", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "2 campaign(s)" in out
        assert first["campaign_id"] in out
        assert main(["sweep", "report", "test-cli-sweep",
                     "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "per-axis" in out and "X=1" in out
        assert main(["sweep", "diff", first["campaign_id"],
                     second["campaign_id"], "--ledger", ledger]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_sweep_run_plain_output_and_telemetry(self, toy, tmp_path,
                                                  capsys):
        from repro.telemetry import load_report

        ledger = str(tmp_path / "ledger")
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "run", "test-cli-sweep", "--grid", "X=1,2",
                     "--ledger", ledger, "--quiet",
                     "--telemetry", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign recorded:" in out
        assert "2 completed" in out
        report = load_report(out_path)
        assert report.campaign["points"] == 2
        assert report.campaign["solver_call_count"] == 2
        assert report.metrics.counters["loop_solve"] == 2

    def test_sweep_base_param_overrides(self, toy, tmp_path, capsys):
        import json

        ledger = str(tmp_path / "ledger")
        assert main(["sweep", "run", "test-cli-sweep", "--point", "X=5",
                     "--ledger", ledger, "--quiet", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["completed"] == 1

    def test_sweep_usage_errors(self, toy, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        assert main(["sweep", "run", "test-cli-sweep",
                     "--ledger", ledger, "--quiet"]) == 2
        assert "no points" in capsys.readouterr().err
        assert main(["sweep", "run", "test-cli-sweep", "--grid", "bogus",
                     "--ledger", ledger, "--quiet"]) == 2
        assert "bad --grid" in capsys.readouterr().err
        assert main(["sweep", "run", "test-cli-sweep",
                     "--grid", "NOPE=1,2",
                     "--ledger", ledger, "--quiet"]) == 2
        assert "no parameter" in capsys.readouterr().err
        assert main(["sweep", "run", "test-cli-sweep",
                     "--mc", "X=triangle(1,2)",
                     "--ledger", ledger, "--quiet"]) == 2
        assert "Monte-Carlo" in capsys.readouterr().err
        assert main(["sweep", "report", "nope",
                     "--ledger", str(tmp_path / "absent")]) == 2
        assert "no run ledger" in capsys.readouterr().err

    def test_runs_list_and_show_json(self, toy, tmp_path, capsys):
        import json

        ledger = str(tmp_path / "ledger")
        assert main(["sweep", "run", "test-cli-sweep", "--grid", "X=1,2",
                     "--ledger", ledger, "--quiet", "--json"]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--ledger", ledger, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(r["scenario"] == "test-cli-sweep" for r in rows)
        assert main(["runs", "show", rows[0]["run_id"],
                     "--ledger", ledger, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["run_id"] == rows[0]["run_id"]
        assert record["metrics"]["delay_seconds"] == 2.0

    def test_runs_diff_nothing_compared_exits_3(self, tmp_path, capsys):
        from repro.scenarios import Scenario, register, unregister

        ledger = str(tmp_path / "ledger")
        for name, metric in (("test-cli-a", "alpha"),
                             ("test-cli-b", "beta")):
            register(Scenario(name=name, figure="test", description="t",
                              defaults={},
                              run=lambda p, s, m=metric: {m: 1.0}))
        try:
            assert main(["run", "test-cli-a", "--ledger", ledger]) == 0
            assert main(["run", "test-cli-b", "--ledger", ledger]) == 0
            capsys.readouterr()
            assert main(["runs", "diff", "test-cli-a", "test-cli-b",
                         "--ledger", ledger]) == 3
            out = capsys.readouterr().out
            assert "NOTHING COMPARED" in out
            assert "no common metrics" in out
        finally:
            unregister("test-cli-a")
            unregister("test-cli-b")

    def test_bench_diff_nothing_compared_exits_3(self, tmp_path, capsys):
        import json

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({"a": {"x_seconds": 1.0}}))
        new.write_text(json.dumps({"b": {"y_seconds": 1.0}}))
        assert main(["bench", "diff", str(old), str(new)]) == 3
        assert "NOTHING COMPARED" in capsys.readouterr().out
