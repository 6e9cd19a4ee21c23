"""Cross-process aggregation: worker snapshots merge into BuildStats.

A pool worker's registry activity never touches the parent's registry
(that separation is what makes the warm-path zero-solve assertions
meaningful), yet parallel builds must still report true totals.  The
bridge is the per-chunk ``ChunkResult`` payload: each chunk ships its
metrics delta and drained span trees back with the values, and the
runner folds them into ``JobStats``/``BuildStats``.
"""

from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.library.jobs import CharacterizationJob, JobOutput
from repro.library.runner import BuildRunner, JobProgress
from repro.library.store import TableLibrary
from repro.telemetry import TABLE_BUILD_POINT, get_registry

TICK = "stub_worker_tick"


@dataclass(frozen=True)
class TickingJob(CharacterizationJob):
    """A cheap picklable job whose every solve ticks a registry counter.

    The counter lands in whichever process executes ``solve_point`` --
    the parent for serial builds, a pool worker for parallel ones --
    which is exactly the distinction these tests assert on.
    """

    widths: Tuple[float, ...] = (1.0, 2.0, 3.0)
    lengths: Tuple[float, ...] = (10.0, 20.0)
    frequency: float = 1e9
    layer: str = "M1"

    kind = "tick"

    def axis_names(self):
        return ("width", "length")

    def axes(self):
        return (self.widths, self.lengths)

    def outputs(self):
        return (JobOutput("tick_l", "loop_inductance"),)

    def builder_spec(self):
        return {"builder": "tick"}

    def table_metadata(self):
        return {"frequency": self.frequency}

    def solve_point(self, point):
        get_registry().inc(TICK)
        width, length = point
        return (width * length,)


#: A 20-point grid: two workers cut it into more than one point per chunk.
GRID_JOB = TickingJob(widths=(1.0, 2.0, 3.0, 4.0, 5.0),
                      lengths=(10.0, 20.0, 30.0, 40.0))
POINTS = GRID_JOB.num_points()
CHUNKS = min(POINTS, 2 * BuildRunner.CHUNKS_PER_WORKER)


@pytest.fixture(autouse=True)
def clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


class TestParallelAggregation:
    def test_worker_counters_reach_stats_not_parent_registry(self, tmp_path):
        runner = BuildRunner(tmp_path / "kit", workers=2)
        stats = runner.build([GRID_JOB])
        assert stats.points_solved == POINTS
        # the parent process never ran solve_point ...
        assert get_registry().counter_value(TICK) == 0
        # ... but the report-side merge sees every worker tick
        assert stats.worker_metrics.counter(TICK) == POINTS

    def test_chunk_wall_times_and_worker_spans(self, tmp_path):
        runner = BuildRunner(tmp_path / "kit", workers=2)
        stats = runner.build([GRID_JOB])
        walls = stats.chunk_wall_times
        assert CHUNKS < POINTS
        assert len(walls) == CHUNKS  # workers * CHUNKS_PER_WORKER
        assert all(w >= 0.0 for w in walls)
        names = [s["name"] for s in stats.worker_spans]
        assert names and set(names) == {"library.chunk"}
        assert sum(s["metrics"].get(TICK, 0)
                   for s in stats.worker_spans) == POINTS

    def test_manifest_carries_telemetry_summary(self, tmp_path):
        runner = BuildRunner(tmp_path / "kit", workers=2)
        runner.build([GRID_JOB])
        lib = TableLibrary(tmp_path / "kit", create=False)
        entry = lib.entry(GRID_JOB.table_key("tick_l"))
        summary = entry.metadata["telemetry"]
        assert summary["points_solved"] == POINTS
        assert summary["chunks"] == CHUNKS
        assert summary["build_seconds"] > 0.0

    def test_serial_build_counts_in_parent(self, tmp_path):
        runner = BuildRunner(tmp_path / "kit", parallel=False)
        stats = runner.build([TickingJob()])
        assert get_registry().counter_value(TICK) == 6
        assert stats.worker_metrics is None  # nothing came from a pool
        assert len(stats.chunk_wall_times) == 6  # per-point in serial mode
        # serial points go through solve_points like pooled ones
        points = get_registry().snapshot().histogram(TABLE_BUILD_POINT)
        assert points is not None and points.count == 6


class TestProgressThroughput:
    def test_ticks_report_rate_and_eta(self, tmp_path):
        ticks = []
        runner = BuildRunner(tmp_path / "kit", parallel=False,
                             progress=ticks.append)
        runner.build([TickingJob()])
        last = ticks[-1]
        assert last.done == last.total == 6
        assert last.points_per_second > 0.0
        assert last.eta_seconds == 0.0

    def test_eta_math(self):
        tick = JobProgress(job=None, done=4, total=10, resumed=0,
                           elapsed=2.0)
        assert tick.points_per_second == pytest.approx(2.0)
        assert tick.eta_seconds == pytest.approx(3.0)
        stalled = JobProgress(job=None, done=0, total=10, resumed=0,
                              elapsed=0.0)
        assert stalled.points_per_second == 0.0
        assert stalled.eta_seconds == float("inf")
