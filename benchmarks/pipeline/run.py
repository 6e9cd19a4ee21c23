"""Paper-flow pipeline benchmark: one command, four workloads.

Run one workload (the process running it is fresh, so nothing the
program cached earlier leaks into the measurement)::

    python3 benchmarks/pipeline/run.py --workload skew-paper --seed 1 \\
        --seconds 20 --trace 0 [--out R.json]

Run every workload, each in its own fresh process, *N* times with
seeds ``S .. S+N-1``, and write every run to one file that
``compare.py`` reads::

    python3 benchmarks/pipeline/run.py [--workload W] --runs 5 --out A.json

Derive the end-to-end bounds in ``BENCHMARK.json`` from measured
noise (each workload run 5 times)::

    python3 benchmarks/pipeline/run.py --calibrate

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
measured with no wrappers installed; ``--trace 1`` (alias ``--traced``)
replays the same seeded inputs with a timing wrapper on every layer
entry point and reports the per-layer metrics instead.  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH_FILE = ROOT / "BENCHMARK.json"

#: Traced-run replays use at most this many ops per variant.
REPLAY_MAX = 10
#: Set-up repetitions per run (the median is reported).
SETUP_REPS = 3
#: A traced run fails its check when unattributed time exceeds this.
OTHER_FRAC_LIMIT = 0.05
#: The widest regression bound an end-to-end metric may have.
MAX_BOUND = 0.25


def load_benchmark() -> dict:
    return json.loads(BENCH_FILE.read_text())


def quantile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated *q*-quantile of sorted data."""
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    frac = position - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


def tail_quantile(n: int) -> float:
    """The highest quantile with at least ten samples beyond it, kept
    between the median and p90: a quantile set by its ten slowest ops
    swings with every burst of host contention."""
    return min(0.9, max(0.5, 1.0 - 10.0 / n))


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def closed_loop(workload, seconds: float, recorder=None):
    """Run ops back to back on ``workload.clients`` threads until the
    deadline; each client sends its next op only after the last one
    returned.  Returns (wall seconds, {index: (latency, error)})."""
    records: Dict[int, tuple] = {}
    next_index = itertools.count().__next__  # atomic under the GIL
    start = time.perf_counter()
    deadline = start + seconds

    def client(cid: int) -> None:
        while True:
            t0 = time.perf_counter()
            if t0 >= deadline:
                return
            index = next_index()
            error = None
            try:
                workload.run_op(index, cid, recorder)
            except Exception as exc:  # one failed op, keep measuring
                error = f"{type(exc).__name__}: {exc}"
            records[index] = (time.perf_counter() - t0, error)

    if workload.clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return time.perf_counter() - start, records


def transient_sizes() -> List[int]:
    """MNA sizes of the ``circuit.transient`` spans the program traced."""
    from repro.telemetry.spans import get_tracer

    sizes, stack = [], list(get_tracer().roots)
    while stack:
        sp = stack.pop()
        if sp.name == "circuit.transient":
            sizes.append(int(sp.tags.get("size", 0)))
        stack.extend(sp.children)
    return sizes


def layer_metrics(workload, spans, counters, latencies, n_ops: int,
                  wall: float) -> Dict[str, float]:
    """Per-layer values of a traced run: self seconds per op, counts per
    op and rates."""
    import tracing
    from repro.telemetry import registry as reg

    tracing.link_requests(spans)
    selfs = tracing.self_times(spans)
    values = {f"{layer}_s": selfs.get(layer, (0.0, 0))[0] / n_ops
              for layer in tracing.LAYERS + ("serve.http",)}
    other = workload.clients * wall - tracing.root_seconds(spans)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sizes = transient_sizes()
    hits = counters.get(reg.LP_MEMO_HIT, 0)
    dense = counters.get(reg.SOLVER_FACTOR_DENSE, 0)
    outcomes = getattr(workload, "outcomes", {})  # serve: index -> hit
    hit_lat = sorted(latencies[i] for i, hit in outcomes.items() if hit)
    miss_lat = sorted(latencies[i] for i, hit in outcomes.items()
                      if not hit)
    values.update({
        "peec.pair_evals": counters.get(reg.LP_PAIR_EVAL, 0) / n_ops,
        "peec.memo_hit_rate": ratio(
            hits, hits + counters.get(reg.LP_MEMO_MISS, 0)),
        "rc.fieldsolver_calls": selfs.get("rc.fieldsolver", (0, 0))[1] / n_ops,
        "tables.lookups": counters.get(reg.TABLE_LOOKUP, 0) / n_ops,
        "circuit.steps": counters.get(reg.TRANSIENT_STEPS, 0) / n_ops,
        "circuit.unknowns": ratio(sum(sizes), len(sizes)),
        "circuit.dense_factor_frac": ratio(
            dense, dense + counters.get(reg.SOLVER_FACTOR_SPARSE, 0)),
        "serve.hit_p50_s": quantile(hit_lat, 0.5) if hit_lat else 0.0,
        "serve.miss_p50_s": quantile(miss_lat, 0.5) if miss_lat else 0.0,
        "serve.cache_hit_rate": ratio(len(hit_lat), len(outcomes)),
        "bench.other_s": other / n_ops,
    })
    values["_other_frac"] = other / (workload.clients * wall)
    return values


def overhead_fracs(workload, count: int) -> Dict[str, float]:
    """Replay the first *count* ops traced, plain and with the program's
    own spans off (ABCCBA order); return the two overhead fractions."""
    import tracing
    from repro.telemetry.spans import spans_disabled

    def traced():
        with tracing.Patch(tracing.Recorder()):
            return workload.replay(count)

    def plain():
        return workload.replay(count)

    def nospans():
        with spans_disabled():
            return workload.replay(count)

    totals = {"traced": 0.0, "plain": 0.0, "nospans": 0.0}
    order = [("traced", traced), ("plain", plain), ("nospans", nospans)]
    for name, fn in order + order[::-1]:
        totals[name] += fn()
    return {
        "bench.trace_overhead_frac":
            (totals["traced"] - totals["plain"]) / totals["plain"],
        "telemetry.spans_cost_frac":
            (totals["plain"] - totals["nospans"]) / totals["plain"],
    }


def run_one(args) -> dict:
    """Set up, measure and check one workload in this process."""
    import tracing
    from workloads import WORKLOADS
    from repro.quality.coverage import get_coverage_tracker
    from repro.telemetry.registry import get_registry
    from repro.telemetry.spans import get_tracer

    bench = load_benchmark()
    traced = bool(args.trace)
    delays = dict(args.inject)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=_workdir()))
    workload = WORKLOADS[args.workload](args.seed, work, args.tiny, traced)
    try:
        reps = 1 if args.tiny else SETUP_REPS
        setups = [workload.setup() for _ in range(reps)]
        workload.prepare()

        # Isolate the measured phase from everything before it.
        get_registry().reset()
        get_coverage_tracker().reset()
        get_tracer().reset()
        recorder = tracing.Recorder() if traced else None
        with tracing.Patch(recorder, delays):
            wall, records = closed_loop(workload, args.seconds, recorder)
        counters = get_registry().snapshot().counters

        attempted = len(records)
        errors = {i: r[1] for i, r in records.items() if r[1]}
        ok_ops = sorted(i for i in records if i not in errors)
        checks, bad_ops = workload.checks(ok_ops, counters)
        failed = len(set(errors) | set(bad_ops))
        latencies = {i: r[0] for i, r in records.items()}
        lat = sorted(latencies.values())
        q_tail = tail_quantile(len(lat))
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
               + workload.extra_rss_mb())
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": quantile(lat, 0.5),
            "ops_per_s": attempted / wall,
            "peak_rss_mb": rss,
        }
        # Reported with every run but not gated: on a shared host the
        # tail tracks bursts of contention more than the program.
        extra = {"fail_frac": failed / attempted,
                 "op_tail_s": quantile(lat, q_tail), "tail_quantile": q_tail,
                 "wall_s": wall, "clients": workload.clients,
                 "setup_samples_s": setups,
                 "errors": sorted(set(errors.values()))[:5]}
        wanted = "end_to_end"
        if traced:
            wanted = "per_layer"
            layers = layer_metrics(workload, recorder.spans, counters,
                                   latencies, attempted, wall)
            other_frac = layers.pop("_other_frac")
            extra["other_frac"] = other_frac
            checks.append((f"bench.other_s <= {OTHER_FRAC_LIMIT:.0%} of "
                           "traced wall", other_frac <= OTHER_FRAC_LIMIT,
                           f"{other_frac:.4f}"))
            # Six replay passes take about as long as the measured phase.
            mean_op = workload.clients * wall / attempted
            count = workload.replay_count or max(1, min(
                REPLAY_MAX, int(args.seconds / (6.0 * mean_op))))
            layers.update(overhead_fracs(workload, count))
            extra["replayed_ops"] = count
            values = layers
            if args.out:
                spans_path = Path(args.out).with_suffix(".spans.jsonl")
                spans_path.write_text("".join(
                    json.dumps(r) + "\n"
                    for r in tracing.to_records(recorder.spans)))
        metrics = {spec["name"]: {"value": values[spec["name"]],
                                  "unit": spec["unit"]}
                   for spec in bench[wanted]}
        correct = failed == 0 and all(ok for _, ok, _ in checks)
        return {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": int(traced),
            "tiny": args.tiny, "inject": delays,
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "extra": extra,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in checks],
        }
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)


def _workdir() -> Path:
    """Scratch space inside the checkout (the benchmark writes nowhere
    else)."""
    path = HERE / ".work"
    path.mkdir(exist_ok=True)
    return path


def print_report(report: dict) -> None:
    extra = report["extra"]
    print(f"# {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} ops={report['attempted']} "
          f"failed={report['failed']} fail_frac={extra['fail_frac']:.4f} "
          f"op_tail_s={extra['op_tail_s']:.6g} "
          f"(p{100 * extra['tail_quantile']:.0f})")
    for name, metric in report["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    for check in report["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['name']}: {check['detail']}")


# ----------------------------------------------------------------------
# many runs, each in a fresh process
# ----------------------------------------------------------------------
def run_many(workloads: List[str], seeds: List[int], args) -> List[dict]:
    reports = []
    with tempfile.TemporaryDirectory(dir=_workdir()) as tmp:
        for name in workloads:
            for seed in seeds:
                out = Path(tmp) / f"{name}-{seed}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(out)]
                if args.tiny:
                    cmd.append("--tiny")
                for layer, frac in args.inject:
                    cmd += ["--inject", f"{layer}={frac}"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=900)
                if not out.exists():
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{name} seed {seed} produced no result "
                                     f"(exit {proc.returncode})")
                report = json.loads(out.read_text())
                print_report(report)
                reports.append(report)
    return reports


def summarize(reports: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values over runs."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for report in reports:
        per = table.setdefault(report["workload"], {})
        for name, metric in report["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return table


def print_summary(reports: List[dict]) -> None:
    units = {n: m["unit"] for r in reports for n, m in r["metrics"].items()}
    print("# workload metric: median [IQR/median] over runs")
    for workload, per in summarize(reports).items():
        for name, values in per.items():
            print(f"  {workload:12s} {name:28s} "
                  f"{statistics.median(values):.6g} {units[name]} "
                  f"[{spread(values):.4f}] n={len(values)}")


def calibrate(reports: List[dict]) -> int:
    """Write bounds of max(5 %, 3 x IQR/median), at most MAX_BOUND, into
    BENCHMARK.json; set-up gets MAX_BOUND, the largest.  Refuses when a
    metric's spread alone exceeds MAX_BOUND: the fix is more work per
    run, not a wider bound."""
    bench = load_benchmark()
    table = summarize(reports)
    too_wide = []
    for spec in bench["end_to_end"]:
        name = spec["name"]
        worst = max(spread(per[name]) for per in table.values())
        if name == "setup_s":
            spec["bound"] = MAX_BOUND
            continue
        spec["bound"] = min(MAX_BOUND, math.ceil(
            max(0.05, 3.0 * worst) * 100.0) / 100.0)
        if worst > MAX_BOUND:
            too_wide.append(f"{name} ({worst:.3f})")
        elif 3.0 * worst > spec["bound"]:
            print(f"warning: {name} spread {worst:.3f} is above a third "
                  f"of its bound {spec['bound']}", file=sys.stderr)
    if too_wide:
        print(f"calibration refused: spread above {MAX_BOUND} for "
              f"{', '.join(too_wide)}; measure more work per run instead",
              file=sys.stderr)
        return 1
    BENCH_FILE.write_text(json.dumps(bench, indent=2) + "\n")
    print("bounds: " + ", ".join(f"{s['name']}={s['bound']}"
                                 for s in bench["end_to_end"]))
    return 0


# ----------------------------------------------------------------------
def parse_inject(text: str):
    layer, _, frac = text.partition("=")
    return layer, float(frac)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase length (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--runs", type=int, default=None,
                        help="runs per workload, seeds SEED..SEED+RUNS-1, "
                             "each in a fresh process")
    parser.add_argument("--calibrate", action="store_true",
                        help="5 runs per workload; write noise-derived "
                             "bounds into BENCHMARK.json")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the smoke test")
    parser.add_argument("--inject", type=parse_inject, action="append",
                        default=[], metavar="LAYER=FRACTION",
                        help="stretch every call into LAYER by FRACTION of "
                             "its own duration (slowdown injection)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    from workloads import WORKLOADS

    unknown = [w for w in args.workload if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(WORKLOADS)}")

    if len(args.workload) == 1 and not (args.runs or args.calibrate):
        args.workload = args.workload[0]
        report = run_one(args)
        print_report(report)
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(json.dumps({key: report[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if report["correct"] else 1

    names = args.workload or list(WORKLOADS)
    runs = args.runs or (5 if args.calibrate else 1)
    reports = run_many(names, [args.seed + k for k in range(runs)], args)
    print_summary(reports)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": reports}, indent=1)
                                  + "\n")
    if args.calibrate:
        return calibrate(reports)
    return 0 if all(r["correct"] for r in reports) else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
