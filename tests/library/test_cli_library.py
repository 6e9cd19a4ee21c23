"""The `repro library` command-line surface."""

import multiprocessing
import os
import re
import signal

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_build_requires_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["library", "build"])

    def test_library_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["library"])

    def test_known_subcommands(self):
        parser = build_parser()
        for argv in (
            ["library", "build", "--root", "kit"],
            ["library", "list", "--root", "kit"],
            ["library", "info", "--root", "kit", "abc123"],
            ["library", "verify", "--root", "kit"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_skew_accepts_library(self):
        """``repro run htree-skew --LIBRARY=DIR`` names the kit to read."""
        from repro.cli import _extract_param_overrides
        from repro.scenarios import get_scenario

        overrides, rest = _extract_param_overrides(
            ["run", "htree-skew", "--LIBRARY=kit"])
        assert build_parser().parse_args(rest).scenario == "htree-skew"
        params = get_scenario("htree-skew").params_with(overrides)
        assert params["LIBRARY"] == "kit"


class TestExecution:
    @pytest.fixture()
    def built_root(self, tmp_path, capsys):
        root = tmp_path / "kit"
        code = main([
            "library", "build", "--root", str(root),
            "--widths", "6", "10", "--lengths", "500", "2000",
            "--frequency", "3.2", "--layer", "M5", "--workers", "1",
            "--quiet",
        ])
        assert code == 0
        capsys.readouterr()
        return root

    def test_build_then_list(self, built_root, capsys):
        assert main(["library", "list", "--root", str(built_root)]) == 0
        out = capsys.readouterr().out
        assert "loop_inductance" in out
        assert "loop_resistance" in out
        assert "M5" in out

    def test_rebuild_is_warm(self, built_root, capsys):
        code = main([
            "library", "build", "--root", str(built_root),
            "--widths", "6", "10", "--lengths", "500", "2000",
            "--frequency", "3.2", "--layer", "M5", "--workers", "1",
            "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 warm-skipped" in out
        assert "0 point(s) solved" in out

    def test_info_by_prefix(self, built_root, capsys):
        from repro.library import TableLibrary

        lib = TableLibrary(built_root, create=False)
        key = lib.query(quantity="loop_inductance")[0].key
        assert main(["library", "info", "--root", str(built_root),
                     key[:10]]) == 0
        out = capsys.readouterr().out
        assert "loop_inductance" in out
        assert key in out

    def test_verify_clean(self, built_root, capsys):
        assert main(["library", "verify", "--root", str(built_root)]) == 0
        assert "library OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, built_root, capsys):
        blob = next((built_root / "tables").glob("*.json"))
        blob.write_text(blob.read_text()[:-30])
        assert main(["library", "verify", "--root", str(built_root)]) == 1
        assert "mismatch" in capsys.readouterr().out


class TestBuildErrors:
    BUILD = ["library", "build", "--widths", "6", "10",
             "--lengths", "500", "2000", "--quiet"]

    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys):
        assert main(self.BUILD + ["--root", str(tmp_path / "kit"),
                                  "--workers", "0"]) == 2
        assert "error: workers must be >= 1" in capsys.readouterr().err

    def test_one_point_axis_is_a_usage_error(self, tmp_path, capsys):
        assert main(["library", "build", "--root", str(tmp_path / "kit"),
                     "--widths", "6", "--lengths", "500", "2000",
                     "--workers", "1", "--quiet"]) == 2
        assert "error: axis 'width' needs at least two points" in \
            capsys.readouterr().err

    @pytest.mark.skipif(
        multiprocessing.get_start_method(allow_none=False) != "fork",
        reason="the patched solve reaches pool workers through fork")
    def test_killed_worker_fails_then_resumes(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.library import LoopTableJob, TableLibrary

        parent = os.getpid()
        solve = LoopTableJob.solve_point

        def killing_solve(self, point):
            if os.getpid() != parent and point == self.points()[-1]:
                os.kill(os.getpid(), signal.SIGKILL)
            return solve(self, point)

        root = str(tmp_path / "kit")
        monkeypatch.setattr(LoopTableJob, "solve_point", killing_solve)
        assert main(self.BUILD + ["--root", root, "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FAILED: a pool worker died")
        assert "Traceback" not in err
        monkeypatch.undo()
        assert main(self.BUILD + ["--root", root, "--workers", "1"]) == 0
        assert re.search(r"solved, [1-3] resumed", capsys.readouterr().out)
        assert TableLibrary(root, create=False).verify() == []
