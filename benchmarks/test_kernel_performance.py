"""Fast-path PEEC kernel economics: dedup assembly + factor-once sweeps.

Three claims the kernel layer makes, measured on reference meshes and
recorded into ``BENCH_kernel.latest.json`` at the repo root
(gitignored).  The committed ``BENCH_kernel.json`` is the reference
record the README's kernel table quotes: a run never rewrites it, and
``repro diff bench BENCH_kernel.json BENCH_kernel.latest.json``
compares a fresh run against it.

1. **Dedup assembly wins.**  On a characterization-grade mesh (400
   filaments) canonical-signature deduplication evaluates a fraction of
   the Hoer-Love pair integrals and beats the naive full-broadcast
   assembly severalfold -- while agreeing *bit for bit* (the recorded
   ``max_rel_diff`` is exactly 0.0, not a tolerance).
2. **Factor-once sweeps win.**  Diagonalizing ``diag(R) + j*w*Lp`` once
   turns an m-point frequency sweep from m LU factorizations into one
   eigendecomposition plus m diagonal rescalings.
3. **The memo cache works across grid points.**  Neighboring points of
   a table-characterization grid share congruent filament pairs; during
   a real ``LoopTableJob`` build the process-wide cache serves a
   nonzero fraction of lookups.

A fourth test is the CI smoke guard: on a *small* reference mesh (where
there is little to deduplicate) the dedup machinery must not cost more
than 20% over naive -- the fast path is never a slow path.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from conftest import report

from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.constants import GHz, um
from repro.geometry.primitives import Point3D, RectBar
from repro.geometry.trace import TraceBlock
from repro.library import LoopTableJob, build_library
from repro.peec.kernel import (
    assemble_partial_inductance_matrix,
    lp_memo_cache,
    lp_memo_disabled,
    signature_stats,
)
from repro.peec.loop import LoopProblem
from repro.peec.mesh import mesh_bar
from repro.quality.regress import record_bench
from repro.telemetry import (
    LP_MEMO_HIT,
    LP_MEMO_MISS,
    LP_PAIR_EVAL,
    get_registry,
)

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_kernel.latest.json"
)
TELEMETRY_PATH = RESULTS_PATH.with_name("BENCH_kernel_telemetry.latest.json")


@pytest.fixture(scope="session", autouse=True)
def _telemetry_artifact():
    """Trace the benchmark session into BENCH_kernel_telemetry.latest.json.

    The report (span tree + counter/histogram totals) is uploaded by CI
    next to ``BENCH_kernel.latest.json`` so a regression in the numbers comes
    with the trace that explains it.  Registry and tracer are cleared up
    front so the artifact is a clean delta; note that the memo test's
    own mid-run ``reset_solver_calls()`` means counter totals cover the
    tail of the session, while spans always cover all of it.
    """
    from repro.telemetry import get_registry, get_tracer, telemetry_session

    get_registry().reset()
    get_tracer().reset()
    with telemetry_session("bench kernel") as session:
        yield
    session.report.save(TELEMETRY_PATH)


def _record(update: dict) -> dict:
    """Merge *update* into the latest record, stamping run provenance."""
    return record_bench(RESULTS_PATH, update)


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time over *repeats* runs (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    mask = scale > 0
    return float(diff[mask].max() / 1.0) if not mask.any() else float(
        (diff[mask] / scale[mask]).max()
    )


def _reference_mesh(n_width: int, n_thickness: int, grading: float = 1.0):
    parent = RectBar(Point3D(0, 0, 0), um(300), um(8), um(4), "x")
    return list(
        mesh_bar(parent, n_width=n_width, n_thickness=n_thickness,
                 grading=grading).filaments
    )


def test_assembly_dedup_vs_naive():
    """Signature-dedup assembly vs the full n x n Hoer-Love broadcast."""
    bars = _reference_mesh(20, 20)  # 400 filaments, 80200 same-axis pairs
    stats = signature_stats(bars)

    with lp_memo_disabled():
        t_naive = _best_of(
            lambda: assemble_partial_inductance_matrix(bars, method="naive"),
            2,
        )
        t_dedup = _best_of(
            lambda: assemble_partial_inductance_matrix(bars, method="dedup"),
            2,
        )
        lp_naive = assemble_partial_inductance_matrix(bars, method="naive")
        lp_dedup = assemble_partial_inductance_matrix(bars, method="dedup")

    max_rel = _max_rel_diff(lp_dedup, lp_naive)
    speedup = t_naive / t_dedup if t_dedup > 0 else float("inf")
    report(
        f"Lp assembly on a {len(bars)}-filament mesh "
        f"(dedup factor {stats['dedup_factor']:.2f})",
        [
            ["naive broadcast", f"{t_naive:.3f} s", "1.00x"],
            ["signature dedup", f"{t_dedup:.3f} s", f"{speedup:.2f}x"],
        ],
        header=["assembly", "wall time", "speedup"],
    )
    _record({"assembly": {
        "filaments": len(bars),
        "pairs": int(stats["pairs"]),
        "unique_signatures": int(stats["unique_signatures"]),
        "dedup_factor": round(stats["dedup_factor"], 2),
        "naive_seconds": round(t_naive, 4),
        "dedup_seconds": round(t_dedup, 4),
        "speedup": round(speedup, 2),
        "filaments_per_second": round(len(bars) / t_dedup, 1)
        if t_dedup > 0 else float("inf"),
        "max_rel_diff": max_rel,
    }})

    np.testing.assert_array_equal(lp_dedup, lp_naive)
    assert max_rel == 0.0, "dedup assembly must be bit-identical to naive"
    assert speedup > 3.0, (
        f"dedup assembly only {speedup:.2f}x faster than naive on the "
        f"{len(bars)}-filament reference mesh"
    )


def test_frequency_sweep_factored_vs_lu():
    """8-point loop R/L sweep: cached eigendecomposition vs LU per point."""
    block = TraceBlock.coplanar_waveguide(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        length=um(2000), thickness=um(2),
    )
    problem = LoopProblem(block, n_width=10, n_thickness=4, grading=1.5)
    freqs = list(np.logspace(7, 10.5, 8))
    # Warm the shared frequency-independent state (Lp assembly + the
    # one-off factorization) so both modes time pure per-point cost.
    problem.solve(freqs[0], factored=True)
    problem.solve(freqs[0], factored=False)

    t_direct = _best_of(
        lambda: problem.solve_sweep(freqs, factored=False), 2)
    t_factored = _best_of(
        lambda: problem.solve_sweep(freqs, factored=True), 2)
    fast = problem.solve_sweep(freqs, factored=True)
    slow = problem.solve_sweep(freqs, factored=False)
    max_rel = max(
        abs(a.loop_impedance - b.loop_impedance) / abs(b.loop_impedance)
        for a, b in zip(fast, slow)
    )

    n_fil = problem.network._assembled().n_fil
    speedup = t_direct / t_factored if t_factored > 0 else float("inf")
    report(
        f"{len(freqs)}-point R/L sweep, {n_fil} filaments",
        [
            ["LU per frequency", f"{t_direct:.3f} s", "1.00x"],
            ["factor-once modal", f"{t_factored:.3f} s", f"{speedup:.2f}x"],
        ],
        header=["sweep", "wall time", "speedup"],
    )
    _record({"sweep": {
        "filaments": int(n_fil),
        "frequencies": len(freqs),
        "lu_seconds": round(t_direct, 4),
        "factored_seconds": round(t_factored, 4),
        "speedup": round(speedup, 2),
        "max_rel_diff": float(max_rel),
    }})

    assert max_rel < 1e-9, "factored sweep diverged from the LU reference"
    assert speedup > 2.0, (
        f"factored sweep only {speedup:.2f}x faster than per-point LU"
    )


def test_memo_cache_hits_during_table_build(tmp_path):
    """A real characterization build reuses pair values across grid points."""
    config = CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )
    job = LoopTableJob(
        config=config, frequency=GHz(6.4),
        widths=(um(8), um(10), um(12)),
        lengths=(um(500), um(1000), um(2000)),
        n_width=4, n_thickness=2,
    )
    cache = lp_memo_cache()
    cache.clear()
    cache.reset_stats()
    registry = get_registry()
    registry.reset()

    build_library(tmp_path / "kit", [job], parallel=False)

    hits = registry.counter_value(LP_MEMO_HIT)
    misses = registry.counter_value(LP_MEMO_MISS)
    evals = registry.counter_value(LP_PAIR_EVAL)
    hit_rate = registry.snapshot().memo_hit_rate
    report(
        f"memo cache during a {job.num_points()}-point LoopTableJob build",
        [
            ["lookups", str(hits + misses)],
            ["hits", str(hits)],
            ["hit rate", f"{hit_rate:.1%}"],
            ["kernel evaluations", str(evals)],
        ],
    )
    _record({"memo": {
        "grid_points": job.num_points(),
        "lookups": int(hits + misses),
        "hits": int(hits),
        "hit_rate": round(hit_rate, 4),
        "pair_evaluations": int(evals),
    }})

    assert hits > 0, "a table build must reuse cached pair values"
    assert hit_rate > 0.0


def test_smoke_dedup_never_slower_on_small_mesh():
    """CI guard: the fast path must stay fast where there is little to dedup.

    A small graded mesh is the worst case for the dedup machinery (few
    congruent pairs, fixed canonicalization/unique/scatter overhead);
    even there it must not cost more than 20% over the naive broadcast.
    """
    bars = _reference_mesh(6, 3, grading=1.5)  # 18 filaments
    with lp_memo_disabled():
        t_naive = _best_of(
            lambda: assemble_partial_inductance_matrix(bars, method="naive"),
            7,
        )
        t_dedup = _best_of(
            lambda: assemble_partial_inductance_matrix(bars, method="dedup"),
            7,
        )
    ratio = t_dedup / t_naive if t_naive > 0 else float("inf")
    report(
        f"dedup overhead guard ({len(bars)}-filament graded mesh)",
        [
            ["naive", f"{t_naive * 1e3:.2f} ms"],
            ["dedup", f"{t_dedup * 1e3:.2f} ms ({ratio:.2f}x naive)"],
        ],
    )
    _record({"smoke": {
        "filaments": len(bars),
        "naive_ms": round(t_naive * 1e3, 3),
        "dedup_ms": round(t_dedup * 1e3, 3),
        "ratio_vs_naive": round(ratio, 3),
    }})
    assert ratio < 1.2, (
        f"dedup assembly is {ratio:.2f}x naive on a small mesh "
        "(must stay under 1.2x)"
    )


def test_signature_key_batching_not_slower_than_per_row():
    """The batched key path (one tobytes + slicing) vs n per-row calls.

    ``signature_keys`` is on the memo hot path of every dedup assembly;
    this guards the vectorized encoding against regressing below the
    naive per-row loop it replaced (recorded, and asserted with a 10%
    noise allowance).
    """
    from repro.peec.kernel import signature_keys

    rows = np.random.default_rng(0).random((20_000, 9))
    per_row = _best_of(
        lambda: [rows[i].tobytes() for i in range(rows.shape[0])], 7)
    batched = _best_of(lambda: signature_keys(rows), 7)
    assert signature_keys(rows) == [
        rows[i].tobytes() for i in range(rows.shape[0])
    ]
    ratio = batched / per_row if per_row > 0 else float("inf")
    report(
        f"signature key encoding, {rows.shape[0]} signatures",
        [
            ["per-row tobytes", f"{per_row * 1e3:.2f} ms"],
            ["batched", f"{batched * 1e3:.2f} ms ({ratio:.2f}x per-row)"],
        ],
    )
    _record({"signature_keys": {
        "signatures": rows.shape[0],
        "per_row_ms": round(per_row * 1e3, 3),
        "batched_ms": round(batched * 1e3, 3),
        "ratio_vs_per_row": round(ratio, 3),
    }})
    assert ratio < 1.1, (
        f"batched signature keys {ratio:.2f}x the per-row loop"
    )


def test_disk_warmed_assembly_faster_than_cold(tmp_path):
    """A shard-warmed memo replays every pair value of a prior assembly.

    Cold: clear memo, assemble the 400-filament reference mesh, flush
    to a disk shard.  Warm: clear the memo (a fresh process), load the
    shard back, assemble again -- every lookup must hit and the
    assembly must be measurably faster.
    """
    from repro.peec.diskmemo import DiskMemoShard

    bars = _reference_mesh(20, 20)
    shard = DiskMemoShard(tmp_path / "memo.json")
    cache = lp_memo_cache()

    cache.clear()
    cache.reset_stats()
    t0 = time.perf_counter()
    lp_cold = assemble_partial_inductance_matrix(bars)
    t_cold = time.perf_counter() - t0
    entries = shard.flush(cache)

    cache.clear()
    cache.reset_stats()
    shard.warm(cache)
    t0 = time.perf_counter()
    lp_warm = assemble_partial_inductance_matrix(bars)
    t_warm = time.perf_counter() - t0

    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    report(
        f"disk-warmed assembly, {len(bars)}-filament mesh "
        f"({entries} shard entries)",
        [
            ["cold (empty memo)", f"{t_cold * 1e3:.1f} ms", "1.00x"],
            ["disk-warmed", f"{t_warm * 1e3:.1f} ms", f"{speedup:.2f}x"],
        ],
        header=["assembly", "wall time", "speedup"],
    )
    _record({"disk_memo": {
        "filaments": len(bars),
        "shard_entries": int(entries),
        "cold_ms": round(t_cold * 1e3, 2),
        "warm_ms": round(t_warm * 1e3, 2),
        "speedup": round(speedup, 2),
        "hit_rate": round(cache.hit_rate, 4),
    }})

    np.testing.assert_array_equal(lp_warm, lp_cold)
    assert cache.hit_rate >= 0.9, (
        f"disk-warmed assembly hit rate {cache.hit_rate:.1%}"
    )
    assert speedup > 1.2, (
        f"disk-warmed assembly only {speedup:.2f}x the cold one"
    )
