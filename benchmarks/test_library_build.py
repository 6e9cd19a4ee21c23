"""Characterization-library economics: build parallelism + warm lookups.

Two claims the library subsystem makes, measured on a small CPW grid:

1. **Parallel builds help.**  Grid-point solves are independent, so a
   process pool should cut build wall-time roughly by the worker count
   (modulo pool startup and per-point cost granularity).  On a
   single-core host the pool can only expose its overhead; the test
   then just bounds that overhead.
2. **Warm lookups are the paper's speedup.**  A cold extraction pays
   seconds of field-solver time; a warm library answers the same query
   by spline lookup in microseconds, and a *whole* repeated experiment
   performs zero solver calls.

The measured numbers are recorded into ``BENCH_library.latest.json``
at the repo root (gitignored).  The committed ``BENCH_library.json`` is
the reference record the README's warm-vs-cold table quotes: a run
never rewrites it, and ``repro diff bench BENCH_library.json
BENCH_library.latest.json`` compares a fresh run against it.
"""

import os
import time
from pathlib import Path

from conftest import report

from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor
from repro.constants import GHz, um
from repro.library import LoopTableJob, TableLibrary, build_library
from repro.peec.kernel import lp_memo_cache
from repro.quality.regress import record_bench
from repro.telemetry import metrics_meter

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_library.latest.json"
)

CONFIG = CoplanarWaveguideConfig(
    signal_width=um(10), ground_width=um(5), spacing=um(1),
    thickness=um(2), height_below=um(2),
)
FREQUENCY = GHz(6.4)
WIDTHS = [um(6), um(8), um(10), um(12), um(14)]
LENGTHS = [um(500), um(1000), um(2000), um(4000), um(6000)]
WORKERS = 4


def _jobs():
    # A finer filament discretization than the extraction default, so a
    # grid point costs real solver time (a few hundred ms) and the pool
    # comparison measures solve throughput rather than fork startup.
    return [LoopTableJob(
        config=CONFIG, frequency=FREQUENCY,
        widths=tuple(WIDTHS), lengths=tuple(LENGTHS),
        n_width=6, n_thickness=3,
    )]


def _record(update: dict) -> dict:
    """Merge *update* into the latest record, stamping run provenance."""
    return record_bench(RESULTS_PATH, update)


def test_serial_vs_parallel_build(tmp_path):
    """Process-pool fan-out vs the in-process loop on the same grid."""
    # Both arms start from a cold process-wide Lp memo: the pool forks
    # from this process, so a memo warmed by the serial arm would hand
    # the pool arm every pair evaluation for free.
    lp_memo_cache().clear()
    t0 = time.perf_counter()
    serial_stats = build_library(tmp_path / "serial", _jobs(), parallel=False)
    serial_time = time.perf_counter() - t0

    lp_memo_cache().clear()
    t0 = time.perf_counter()
    parallel_stats = build_library(tmp_path / "parallel", _jobs(),
                                   workers=WORKERS, parallel=True)
    parallel_time = time.perf_counter() - t0

    speedup = serial_time / parallel_time if parallel_time > 0 else float("inf")
    report(
        "library build: serial vs process-pool "
        f"({serial_stats.points_total} grid points, {WORKERS} workers)",
        [
            ["serial", f"{serial_time:.2f} s", "1.00x"],
            ["parallel", f"{parallel_time:.2f} s", f"{speedup:.2f}x"],
        ],
        header=["mode", "wall time", "speedup"],
    )
    cpus = os.cpu_count() or 1
    _record({"build": {
        "grid_points": serial_stats.points_total,
        "workers": WORKERS,
        "cpu_count": cpus,
        "serial_seconds": round(serial_time, 4),
        "parallel_seconds": round(parallel_time, 4),
        "parallel_speedup": round(speedup, 2),
    }})

    # same numbers either way
    serial_lib = TableLibrary(tmp_path / "serial", create=False)
    parallel_lib = TableLibrary(tmp_path / "parallel", create=False)
    key = _jobs()[0].table_key("loop_inductance")
    assert serial_lib.get(key).values == __import__("pytest").approx(
        parallel_lib.get(key).values)
    # Shape assertion.  On a multi-core host the pool must not lose to
    # serial; on a single-core host it can only show its overhead, which
    # must stay modest (fork + pickling, not re-solving).
    if cpus >= 2:
        assert parallel_time < serial_time * 1.2
    else:
        assert parallel_time < serial_time * 1.6


def test_cold_vs_warm_lookup_latency(tmp_path):
    """One segment extraction: direct field solve vs warm library lookup."""
    build_library(tmp_path / "kit", _jobs(), parallel=False)

    cold = ClocktreeRLCExtractor(CONFIG, frequency=FREQUENCY)
    t0 = time.perf_counter()
    cold_rlc = cold.segment_rlc(um(2200))
    cold_time = time.perf_counter() - t0

    warm = ClocktreeRLCExtractor(CONFIG, frequency=FREQUENCY,
                                 library=tmp_path / "kit")
    warm.segment_rlc(um(2200))  # touch once: spline setup is already done
    n_queries = 200
    with metrics_meter() as meter:
        t0 = time.perf_counter()
        for k in range(n_queries):
            warm.segment_rlc(um(2200) + k * um(1))
        warm_time = (time.perf_counter() - t0) / n_queries
    solver_calls = meter.total
    warm_rlc = warm.segment_rlc(um(2200))  # same point as the cold solve

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    report(
        "extraction latency: cold field solve vs warm library lookup",
        [
            ["cold (direct solve)", f"{cold_time * 1e3:9.2f} ms", "1x"],
            ["warm (library)", f"{warm_time * 1e3:9.4f} ms",
             f"{speedup:.0f}x"],
        ],
        header=["path", "per segment", "speedup"],
    )
    _record({"lookup": {
        "cold_ms": round(cold_time * 1e3, 3),
        "warm_ms": round(warm_time * 1e3, 5),
        "speedup": round(speedup, 1),
        "warm_solver_calls": solver_calls,
    }})

    assert solver_calls == 0, "warm lookups must not invoke the field solver"
    assert warm_time < cold_time, "a table lookup must beat a field solve"
    assert warm_rlc.inductance == __import__("pytest").approx(
        cold_rlc.inductance, rel=0.08)
