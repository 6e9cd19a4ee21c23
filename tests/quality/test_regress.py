"""Bench regression watchdog: metadata, flattening, median/MAD gates."""

import json

import pytest

from repro.errors import QualityError
from repro.quality.regress import (
    BENCH_SCHEMA_VERSION,
    diff_benches,
    flatten_metrics,
    git_sha,
    load_bench,
    metric_direction,
    run_metadata,
)


def _bench(assembly_seconds=1.0, speedup=5.0):
    return {
        "meta": run_metadata(),
        "assembly": {
            "filaments": 400,
            "naive_seconds": assembly_seconds * 5.0,
            "dedup_seconds": assembly_seconds,
            "speedup": speedup,
        },
    }


class TestMetadata:
    def test_run_metadata_fields(self):
        meta = run_metadata()
        assert meta["schema_version"] == BENCH_SCHEMA_VERSION
        assert meta["git_sha"] and meta["host"] and meta["python"]
        assert "T" in meta["timestamp"]

    def test_git_sha_inside_repo(self):
        sha = git_sha()
        assert sha == "unknown" or len(sha) == 40


class TestFlatten:
    def test_nested_dotted_names_skip_meta(self):
        flat = flatten_metrics(_bench())
        assert flat["assembly.naive_seconds"] == 5.0
        assert flat["assembly.speedup"] == 5.0
        assert not any(name.startswith("meta") for name in flat)

    def test_bools_skipped(self):
        assert flatten_metrics({"ok": True, "n": 2}) == {"n": 2.0}

    def test_telemetry_run_report_shape(self):
        report = {
            "command": "repro skew",
            "duration": 1.5,
            "metrics": {"counters": {"loop_solve": 3}},
            "worker_metrics": {"counters": {"loop_solve": 7}},
        }
        flat = flatten_metrics(report)
        assert flat["duration"] == 1.5
        assert flat["counter.loop_solve"] == 10.0


class TestDirection:
    @pytest.mark.parametrize("name,expected", [
        ("assembly.naive_seconds", "lower"),
        ("smoke.ratio_vs_naive", "lower"),
        ("lookup.warm_ms", "lower"),
        ("duration", "lower"),
        ("assembly.speedup", "higher"),
        ("memo.hit_rate", "higher"),
        ("assembly.dedup_factor", "higher"),
        ("assembly.filaments", None),
        ("memo.hits", None),
    ])
    def test_inference(self, name, expected):
        assert metric_direction(name) == expected


class TestDiff:
    def test_no_change_passes(self):
        diff = diff_benches([_bench()], _bench())
        assert diff.passed
        assert not diff.regressions

    def test_thirty_percent_slowdown_fails(self):
        # The acceptance criterion: a synthetic >= 30% slowdown must
        # exit nonzero under the default 25% threshold.
        diff = diff_benches([_bench(1.0)], _bench(1.3))
        assert not diff.passed
        names = [d.name for d in diff.regressions]
        assert "assembly.dedup_seconds" in names

    def test_small_jitter_passes(self):
        diff = diff_benches([_bench(1.0)], _bench(1.1))
        assert diff.passed

    def test_speedup_drop_fails(self):
        diff = diff_benches([_bench(speedup=5.0)], _bench(speedup=3.0))
        assert not diff.passed

    def test_speedup_gain_is_improvement(self):
        diff = diff_benches([_bench(speedup=5.0)], _bench(speedup=8.0))
        assert diff.passed
        assert any(d.name == "assembly.speedup" for d in diff.improvements)

    def test_informational_metrics_never_fail(self):
        base, cand = _bench(), _bench()
        cand["assembly"]["filaments"] = 4000  # 10x, but no direction
        assert diff_benches([base], cand).passed

    def test_mad_widens_the_gate_on_noisy_history(self):
        # Baselines at 1.0 and 2.0 s: median 1.5, MAD 0.5, so the 3*MAD
        # term admits a candidate the bare 25% threshold would flag.
        history = [_bench(1.0), _bench(2.0)]
        assert diff_benches(history, _bench(2.2)).passed
        # mad_k=0 falls back to the plain relative threshold -> fail
        assert not diff_benches(history, _bench(2.2), mad_k=0.0).passed

    def test_needs_baselines(self):
        with pytest.raises(QualityError):
            diff_benches([], _bench())

    def test_bad_threshold(self):
        with pytest.raises(QualityError):
            diff_benches([_bench()], _bench(), threshold=0.0)

    def test_render_mentions_verdict_and_metrics(self):
        diff = diff_benches([_bench(1.0)], _bench(1.5))
        text = diff.render()
        assert "REGRESSED" in text and "FAIL" in text
        assert "assembly.dedup_seconds" in text
        good = diff_benches([_bench()], _bench()).render()
        assert "PASS" in good


class TestLoadBench:
    def test_load(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(_bench()))
        assert "assembly" in load_bench(path)

    def test_unreadable(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(QualityError):
            load_bench(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(QualityError):
            load_bench(path)


class TestBenchLedgerMirror:
    """``record_bench`` writes its record and nothing else."""

    def test_record_bench_without_ledger_env_writes_nothing(self, tmp_path,
                                                            monkeypatch):
        from repro.quality.regress import record_bench

        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        record_bench(tmp_path / "BENCH_demo.json", {"x": 1.0})
        assert not (tmp_path / ".repro").exists()
