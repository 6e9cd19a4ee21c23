"""The quality CLI surface: build --audit, library audit, diff bench."""

import json

import pytest

from repro.cli import build_parser, main
from repro.quality.regress import run_metadata


def _bench_record(path, dedup_seconds, speedup=5.0):
    path.write_text(json.dumps({
        "meta": run_metadata(),
        "assembly": {
            "dedup_seconds": dedup_seconds,
            "speedup": speedup,
            "filaments": 400,
        },
    }))
    return path


class TestParsing:
    def test_known_subcommands(self):
        parser = build_parser()
        for argv in (
            ["library", "build", "--root", "kit", "--audit"],
            ["library", "audit", "--root", "kit"],
            ["diff", "bench", "old.json", "new.json"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_audit_defaults(self):
        args = build_parser().parse_args(
            ["library", "build", "--root", "kit", "--audit"])
        assert args.audit_samples == 8
        assert args.audit_budget == pytest.approx(0.05)


class TestBenchDiffCLI:
    def test_identical_records_pass(self, tmp_path, capsys):
        old = _bench_record(tmp_path / "old.json", 1.0)
        new = _bench_record(tmp_path / "new.json", 1.0)
        assert main(["diff", "bench", str(old), str(new)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_thirty_percent_slowdown_exits_nonzero(self, tmp_path, capsys):
        old = _bench_record(tmp_path / "old.json", 1.0)
        new = _bench_record(tmp_path / "new.json", 1.3)
        assert main(["diff", "bench", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL" in out

    def test_multiple_baselines(self, tmp_path, capsys):
        a = _bench_record(tmp_path / "a.json", 1.0)
        b = _bench_record(tmp_path / "b.json", 1.05)
        new = _bench_record(tmp_path / "new.json", 1.02)
        assert main(["diff", "bench", str(a), str(b), str(new)]) == 0
        assert "2 baseline(s)" in capsys.readouterr().out

    def test_threshold_override(self, tmp_path, capsys):
        old = _bench_record(tmp_path / "old.json", 1.0)
        new = _bench_record(tmp_path / "new.json", 1.5)
        assert main(["diff", "bench", str(old), str(new),
                     "--threshold", "1.0"]) == 0
        capsys.readouterr()

    def test_single_file_is_usage_error(self, tmp_path, capsys):
        only = _bench_record(tmp_path / "only.json", 1.0)
        assert main(["diff", "bench", str(only)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: diff bench needs at least two operands")

    def test_missing_record_is_usage_error(self, tmp_path, capsys):
        new = _bench_record(tmp_path / "new.json", 1.0)
        assert main(["diff", "bench", str(tmp_path / "missing.json"),
                     str(new)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unreadable bench record")

    def test_non_object_record_is_usage_error(self, tmp_path, capsys):
        old = _bench_record(tmp_path / "old.json", 1.0)
        new = tmp_path / "list.json"
        new.write_text("[1]")
        assert main(["diff", "bench", str(old), str(new)]) == 2
        assert "is not a JSON object" in capsys.readouterr().err

    def test_bad_threshold_is_usage_error(self, tmp_path, capsys):
        old = _bench_record(tmp_path / "old.json", 1.0)
        assert main(["diff", "bench", str(old), str(old),
                     "--threshold", "0"]) == 2
        assert "threshold must be > 0" in capsys.readouterr().err


class TestAuditedBuildAndLibraryAudit:
    @pytest.fixture(scope="class")
    def audited_root(self, tmp_path_factory):
        import contextlib
        import io

        root = tmp_path_factory.mktemp("kit") / "kit"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([
                "library", "build", "--root", str(root),
                "--widths", "6", "10", "14",
                "--lengths", "400", "1300", "2600", "5200",
                "--frequency", "6.4", "--workers", "1", "--quiet",
                "--audit", "--audit-samples", "4",
            ])
        assert code == 0
        return root, buffer.getvalue()

    def test_build_prints_health(self, audited_root):
        _, out = audited_root
        assert "table health" in out
        assert "loop_inductance" in out

    def test_manifest_carries_health_reports(self, audited_root):
        from repro.library import TableLibrary
        from repro.quality.audit import TableHealthReport

        lib = TableLibrary(audited_root[0], create=False)
        for entry in lib.entries():
            health = entry.metadata.get("health")
            assert health is not None
            report = TableHealthReport.from_dict(health)
            assert report.n_samples == 4
            assert report.table_name == entry.name

    def test_library_audit_passes_and_writes_artifact(
            self, audited_root, tmp_path, capsys):
        artifact = tmp_path / "health.json"
        code = main(["library", "audit", "--root", str(audited_root[0]),
                     "--output", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out
        payload = json.loads(artifact.read_text())
        assert payload["problems"] == []
        assert len(payload["reports"]) == 2

    def test_budget_override_can_fail(self, audited_root, capsys):
        code = main(["library", "audit", "--root", str(audited_root[0]),
                     "--budget", "0.000001"])
        assert code == 1
        assert "PROBLEM" in capsys.readouterr().out

    def test_unaudited_library_is_flagged(self, tmp_path, capsys):
        root = tmp_path / "plain"
        assert main([
            "library", "build", "--root", str(root),
            "--widths", "6", "10", "--lengths", "500", "2000",
            "--workers", "1", "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["library", "audit", "--root", str(root)]) == 1
        assert "no health report" in capsys.readouterr().out
