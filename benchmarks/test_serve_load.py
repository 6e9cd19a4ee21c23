"""Extraction-service economics: steady-state load against a live daemon.

The serving layer's claim mirrors the paper's: after the first request
for a geometry, everything is cache -- so a daemon should sustain
hundreds of requests per second with millisecond-scale tails, doing
zero solver work.  Measured here with the same closed-loop driver
``repro bench serve`` uses: N threads x M requests against an
in-process daemon over a freshly built kit.

Results land in ``BENCH_serve.json`` at the repo root: latency
p50/p95/p99 (lower-is-better under the regression watchdog's
``seconds`` marker), requests/second (higher-is-better via
``per_second``), and the cache hit rate.  ``repro diff bench`` gates
them like every other committed bench record.
"""

import time
from pathlib import Path

from conftest import report

from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.constants import GHz, um
from repro.library import build_library, standard_clocktree_jobs
from repro.quality.regress import record_bench
from repro.serve import ExtractionService, start_server
from repro.serve.loadgen import run_load
from repro.telemetry import metrics_meter

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

CONFIG = CoplanarWaveguideConfig(
    signal_width=um(10), ground_width=um(5), spacing=um(1),
    thickness=um(2), height_below=um(2),
)
FREQUENCY = GHz(3.2)
THREADS = 4
REQUESTS_PER_THREAD = 50
REQUEST = {"root_length_um": 3000.0, "levels": 2}


def _build_kit(root):
    jobs = standard_clocktree_jobs(
        CONFIG, frequency=FREQUENCY,
        widths=[um(6), um(10), um(14)],
        lengths=[um(400), um(1500), um(3000), um(6000)],
    )
    build_library(root, jobs, parallel=False)
    return root


def test_steady_state_load(tmp_path):
    """Warm-cache throughput and tail latency, solver-free."""
    kit = _build_kit(tmp_path / "kit")
    service = ExtractionService(kit, max_inflight=THREADS * 2)
    server = start_server(service)
    try:
        # one warmup request so the measured window is the steady state
        warmup = run_load(server.url, "extract", REQUEST,
                          threads=1, requests_per_thread=1)
        assert warmup.errors == 0

        with metrics_meter() as meter:
            load = run_load(
                server.url, "extract", REQUEST,
                threads=THREADS, requests_per_thread=REQUESTS_PER_THREAD,
            )
        solver_calls = meter.total
    finally:
        server.shutdown()
        server.server_close()

    assert load.errors == 0, load.to_dict()["status_counts"]
    assert solver_calls == 0, "steady-state serving must be solver-free"
    # every measured request after warmup is answerable from the cache
    assert load.cache_hits == load.requests

    summary = load.to_dict()
    report(
        f"serve steady-state: {THREADS} threads x "
        f"{REQUESTS_PER_THREAD} requests (warm cache)",
        [
            ["p50 latency", f"{summary['latency_p50_seconds'] * 1e3:.2f} ms"],
            ["p95 latency", f"{summary['latency_p95_seconds'] * 1e3:.2f} ms"],
            ["p99 latency", f"{summary['latency_p99_seconds'] * 1e3:.2f} ms"],
            ["throughput", f"{summary['requests_per_second']:.0f} req/s"],
            ["cache hit rate", f"{summary['cache_hit_rate']:.0%}"],
        ],
        header=["metric", "value"],
    )
    record_bench(RESULTS_PATH, {"serve_load": summary})

    # sanity floors, deliberately loose: a warm daemon on any host
    # should beat these by an order of magnitude
    assert summary["requests_per_second"] > 20.0
    assert summary["latency_p95_seconds"] < 1.0


def test_cold_vs_warm_request_cost(tmp_path):
    """The first request pays the extraction; repeats pay a dict hit."""
    kit = _build_kit(tmp_path / "kit")
    service = ExtractionService(kit)

    t0 = time.perf_counter()
    cold = service.handle("extract", REQUEST)
    cold_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = service.handle("extract", REQUEST)
    warm_time = time.perf_counter() - t0

    assert not cold["cache"]["hit"]
    assert warm["cache"]["hit"]
    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    report(
        "serve request cost: cold (extract) vs warm (result cache)",
        [
            ["cold", f"{cold_time * 1e3:.2f} ms", "1.0x"],
            ["warm", f"{warm_time * 1e3:.2f} ms", f"{speedup:.0f}x"],
        ],
        header=["path", "wall time", "speedup"],
    )
    record_bench(RESULTS_PATH, {"request_cost": {
        "cold_seconds": cold_time,
        "warm_seconds": warm_time,
        "cache_speedup": speedup,
    }})
    assert warm_time < cold_time
