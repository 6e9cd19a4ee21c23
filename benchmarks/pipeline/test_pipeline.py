"""Smoke test of the pipeline benchmark at tiny size (about 4 minutes).

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with::

    python -m pytest benchmarks/pipeline/test_pipeline.py -q

It checks that every workload runs and passes its output checks, that a
traced run attributes at least 95 % of its wall time to layers, and that
a 30 % slowdown injected into the benchmark's own ``transient_analysis``
wrapper is flagged on ``skew-paper`` and nowhere else.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--tiny",
                           *args], capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_wall_time(tmp_path, workload):
    out = tmp_path / "run.json"
    proc = _bench("--workload", workload, "--seconds", "1", "--trace", "1",
                  "--out", str(out))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert all(m["unit"] for m in result["metrics"].values())
    report = json.loads(out.read_text())
    assert report["extra"]["other_frac"] <= 0.05
    assert out.with_suffix(".spans.jsonl").stat().st_size > 0


def test_injected_transient_slowdown_is_flagged_on_skew_paper_only(tmp_path):
    # Each seed runs on both sides back to back, alternating which side
    # goes first, so drift in the host's speed hits both sides alike.
    sides = [("base", []), ("slow", ["--inject", "circuit.step=0.3"])]
    runs = {side: [] for side, _ in sides}
    for workload in ("kit-cold", "skew-paper", "serve-mixed"):
        for seed in ("1", "2", "3", "4", "5", "6", "7"):
            for side, inject in sides[::1 if int(seed) % 2 else -1]:
                out = tmp_path / f"{side}-{workload}-{seed}.json"
                _bench("--workload", workload, "--seed", seed,
                       "--seconds", "2", *inject, "--out", str(out))
                runs[side].append(json.loads(out.read_text()))
    sets = {}
    for side, reports in runs.items():
        sets[side] = tmp_path / f"{side}.json"
        sets[side].write_text(json.dumps({"runs": reports}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(sets["base"]),
         str(sets["slow"]), "--json"],
        capture_output=True, text=True, timeout=60)
    rows = json.loads(proc.stdout)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    table = "\n".join(f"{r['workload']} {r['metric']} {r['change']:+.3f} "
                      f"spread {r['spread']:.3f} {r['verdict']}" for r in rows)
    print(table)
    assert proc.returncode == 1, table  # a regression was found
    assert verdicts[("skew-paper", "op_p50_s")] == "regressed", table
    # Untouched workloads are not flagged; on a noisy host the honest
    # verdict may be "unresolved" rather than "unchanged".
    for workload in ("kit-cold", "serve-mixed"):
        assert verdicts[(workload, "op_p50_s")] in (
            "unchanged", "unresolved"), table
