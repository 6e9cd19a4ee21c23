"""BuildRunner: warm skips, checkpoints, interrupted-build resume."""

import json
import multiprocessing
import os
import signal
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.errors import TableError, WorkerLostError
from repro.library.jobs import CharacterizationJob, JobOutput
from repro.library.runner import BuildRunner, build_library
from repro.library.store import TableLibrary

SOLVE_LOG = []
_PARENT_PID = os.getpid()
_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


@dataclass(frozen=True)
class StubJob(CharacterizationJob):
    """A cheap deterministic job: value = width * length (+1 for 'r').

    Solves are recorded in SOLVE_LOG so tests can count exactly which
    grid points were computed (the resume assertions).
    """

    widths: Tuple[float, ...] = (1.0, 2.0, 3.0)
    lengths: Tuple[float, ...] = (10.0, 20.0)
    frequency: float = 1e9
    layer: str = "M1"
    fail_at: int = -1  # solve index that raises, -1 = never
    # Grid point whose pool worker SIGKILLs itself; not part of the job's
    # content key, so a clean job resumes the killed job's checkpoint.
    kill_at: Tuple[float, ...] = ()

    kind = "stub"

    def axis_names(self):
        return ("width", "length")

    def axes(self):
        return (self.widths, self.lengths)

    def outputs(self):
        return (JobOutput("stub_l", "loop_inductance"),
                JobOutput("stub_r", "loop_resistance"))

    def builder_spec(self):
        return {"builder": "stub"}

    def table_metadata(self):
        return {"frequency": self.frequency}

    def solve_point(self, point):
        SOLVE_LOG.append(point)
        if 0 <= self.fail_at == len(SOLVE_LOG) - 1:
            raise RuntimeError("simulated solver crash")
        if point == self.kill_at and os.getpid() != _PARENT_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        width, length = point
        return (width * length, width * length + 1.0)


@pytest.fixture(autouse=True)
def clear_log():
    SOLVE_LOG.clear()
    yield
    SOLVE_LOG.clear()


class TestSerialBuild:
    def test_build_stores_all_tables(self, tmp_path):
        job = StubJob()
        stats = build_library(tmp_path / "kit", [job], parallel=False)
        assert stats.points_solved == 6
        assert stats.jobs_skipped == 0
        lib = TableLibrary(tmp_path / "kit", create=False)
        l_table = lib.get(job.table_key("stub_l"))
        assert l_table.lookup(width=2.0, length=20.0) == pytest.approx(40.0)
        r_table = lib.get(job.table_key("stub_r"))
        assert r_table.lookup(width=2.0, length=20.0) == pytest.approx(41.0)
        assert lib.verify() == []

    def test_entry_carries_layer_family_frequency(self, tmp_path):
        job = StubJob()
        build_library(tmp_path / "kit", [job], parallel=False)
        lib = TableLibrary(tmp_path / "kit", create=False)
        entry = lib.entry(job.table_key("stub_l"))
        assert entry.layer == "M1"
        assert entry.frequency == pytest.approx(1e9)
        assert entry.job_id == job.job_id

    def test_checkpoint_removed_after_success(self, tmp_path):
        job = StubJob()
        runner = BuildRunner(tmp_path / "kit", parallel=False)
        runner.build([job])
        assert not runner.library.checkpoint_path(job.job_id).exists()

    def test_warm_rebuild_skips_everything(self, tmp_path):
        job = StubJob()
        build_library(tmp_path / "kit", [job], parallel=False)
        SOLVE_LOG.clear()
        stats = build_library(tmp_path / "kit", [job], parallel=False)
        assert stats.jobs_skipped == 1
        assert stats.points_solved == 0
        assert SOLVE_LOG == []

    def test_changed_grid_is_cold(self, tmp_path):
        build_library(tmp_path / "kit", [StubJob()], parallel=False)
        SOLVE_LOG.clear()
        stats = build_library(tmp_path / "kit",
                              [StubJob(widths=(1.0, 2.0, 4.0))],
                              parallel=False)
        assert stats.jobs_skipped == 0
        assert len(SOLVE_LOG) == 6

    def test_progress_callback_ticks(self, tmp_path):
        ticks = []
        build_library(tmp_path / "kit", [StubJob()], parallel=False,
                      progress=ticks.append)
        assert [t.done for t in ticks] == [1, 2, 3, 4, 5, 6]
        assert all(t.total == 6 for t in ticks)

    def test_invalid_workers_rejected(self, tmp_path):
        with pytest.raises(TableError):
            BuildRunner(tmp_path / "kit", workers=0)


class TestResume:
    def _interrupt_after(self, n):
        def progress(tick):
            if tick.done >= n:
                raise KeyboardInterrupt

        return progress

    def test_interrupted_build_resumes_remaining_only(self, tmp_path):
        job = StubJob()
        runner = BuildRunner(tmp_path / "kit", parallel=False,
                             progress=self._interrupt_after(4))
        with pytest.raises(KeyboardInterrupt):
            runner.build([job])
        assert len(SOLVE_LOG) == 4
        checkpoint = runner.library.checkpoint_path(job.job_id)
        assert checkpoint.exists()
        assert len(checkpoint.read_text().splitlines()) == 4

        SOLVE_LOG.clear()
        stats = build_library(tmp_path / "kit", [job], parallel=False)
        # only the 2 unsolved points are recomputed
        assert len(SOLVE_LOG) == 2
        assert stats.points_resumed == 4
        assert stats.points_solved == 2
        lib = TableLibrary(tmp_path / "kit", create=False)
        table = lib.get(job.table_key("stub_l"))
        assert table.lookup(width=3.0, length=20.0) == pytest.approx(60.0)
        assert not checkpoint.exists()

    def test_solver_crash_keeps_checkpoint(self, tmp_path):
        job = StubJob(fail_at=3)
        runner = BuildRunner(tmp_path / "kit", parallel=False)
        with pytest.raises(RuntimeError):
            runner.build([job])
        checkpoint = runner.library.checkpoint_path(job.job_id)
        assert len(checkpoint.read_text().splitlines()) == 3

        SOLVE_LOG.clear()
        stats = build_library(tmp_path / "kit", [StubJob()], parallel=False)
        assert stats.points_resumed == 3
        assert stats.points_solved == 3

    def test_torn_trailing_line_tolerated(self, tmp_path):
        job = StubJob()
        runner = BuildRunner(tmp_path / "kit", parallel=False,
                             progress=self._interrupt_after(3))
        with pytest.raises(KeyboardInterrupt):
            runner.build([job])
        checkpoint = runner.library.checkpoint_path(job.job_id)
        # simulate a crash mid-append: truncate the final line
        text = checkpoint.read_text()
        checkpoint.write_text(text[:-10])

        SOLVE_LOG.clear()
        stats = build_library(tmp_path / "kit", [job], parallel=False)
        # 2 intact checkpoint lines survive; 4 points resolved
        assert stats.points_resumed == 2
        assert stats.points_solved == 4
        lib = TableLibrary(tmp_path / "kit", create=False)
        assert lib.verify() == []

    def test_stale_out_of_range_indices_ignored(self, tmp_path):
        job = StubJob()
        runner = BuildRunner(tmp_path / "kit", parallel=False)
        checkpoint = runner.library.checkpoint_path(job.job_id)
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        checkpoint.write_text(
            json.dumps({"i": 99, "v": [1.0, 2.0]}) + "\n"
            + json.dumps({"i": 0, "v": [1.0]}) + "\n"  # wrong arity
            + "not json\n"
        )
        stats = runner.build([job])
        assert stats.points_resumed == 0
        assert stats.points_solved == 6


class TestParallelBuild:
    def test_parallel_matches_serial(self, tmp_path):
        job = StubJob()
        build_library(tmp_path / "serial", [job], parallel=False)
        build_library(tmp_path / "par", [job], workers=2, parallel=True)
        serial = TableLibrary(tmp_path / "serial", create=False)
        par = TableLibrary(tmp_path / "par", create=False)
        key = job.table_key("stub_l")
        import numpy as np

        np.testing.assert_allclose(serial.get(key).values,
                                   par.get(key).values)
        assert par.verify() == []

    def test_single_worker_skips_process_pool(self, tmp_path):
        # workers=1 must run in-process: the solves then hit the
        # module-global SOLVE_LOG of *this* process, which a pool worker
        # (separate interpreter) never would.
        runner = BuildRunner(tmp_path / "kit", workers=1, parallel=True)
        assert runner.workers == 1
        runner.build([StubJob()])
        assert len(SOLVE_LOG) == 6

    def test_parallel_false_forces_one_worker(self, tmp_path):
        assert BuildRunner(tmp_path / "kit", workers=4,
                           parallel=False).workers == 1

    def test_chunked_parallel_build_solves_every_point(self, tmp_path):
        job = StubJob()
        stats = build_library(tmp_path / "kit", [job], workers=2)
        assert stats.points_solved == 6
        lib = TableLibrary(tmp_path / "kit", create=False)
        table = lib.get(job.table_key("stub_l"))
        assert table.lookup(width=2.0, length=10.0) == pytest.approx(20.0)
        assert lib.verify() == []

    def test_multi_point_chunks_match_serial(self, tmp_path):
        job = StubJob(widths=(1.0, 2.0, 3.0, 4.0, 5.0),
                      lengths=(10.0, 20.0, 30.0, 40.0))
        build_library(tmp_path / "serial", [job], parallel=False)
        stats = build_library(tmp_path / "chunk", [job], workers=2)
        # 20 points over 2 * CHUNKS_PER_WORKER chunks: several per chunk
        assert len(stats.chunk_wall_times) == \
            2 * BuildRunner.CHUNKS_PER_WORKER < job.num_points()
        import numpy as np

        for name in ("stub_l", "stub_r"):
            key = job.table_key(name)
            np.testing.assert_array_equal(
                TableLibrary(tmp_path / "serial",
                             create=False).get(key).values,
                TableLibrary(tmp_path / "chunk", create=False).get(key).values,
            )


@pytest.mark.skipif(not _FORK, reason="the killing stub job relies on "
                    "fork-inherited module state in pool workers")
class TestWorkerLoss:
    GRID = dict(widths=(1.0, 2.0, 3.0, 4.0), lengths=(10.0, 20.0, 30.0))

    def test_killed_worker_is_typed_and_resumable(self, tmp_path):
        clean = StubJob(**self.GRID)
        # (4.0, 20.0) is index 10, in the last of the 8 pool chunks
        job = StubJob(**self.GRID, kill_at=(4.0, 20.0))
        assert job.job_id == clean.job_id
        runner = BuildRunner(tmp_path / "kit", workers=2)
        with pytest.raises(WorkerLostError, match="resumes") as lost:
            runner.build([job])
        assert lost.value.total == 2 * BuildRunner.CHUNKS_PER_WORKER
        assert 1 <= lost.value.completed < lost.value.total
        lines = runner.library.checkpoint_path(
            job.job_id).read_text().splitlines()
        saved = {json.loads(line)["i"] for line in lines}
        assert len(saved) == len(lines) >= lost.value.completed
        assert 10 not in saved

        # the re-run solves exactly the points the checkpoint lacks
        stats = build_library(tmp_path / "kit", [clean], parallel=False)
        assert stats.points_resumed == len(saved)
        assert SOLVE_LOG == [p for i, p in enumerate(clean.points())
                             if i not in saved]
        build_library(tmp_path / "ref", [clean], parallel=False)
        import numpy as np

        for name in ("stub_l", "stub_r"):
            key = clean.table_key(name)
            np.testing.assert_array_equal(
                TableLibrary(tmp_path / "kit", create=False).get(key).values,
                TableLibrary(tmp_path / "ref", create=False).get(key).values,
            )


class TestChunking:
    def test_contiguous_cover(self):
        from repro.library.runner import _chunk_indices

        remaining = [0, 1, 2, 5, 6, 7, 8]
        chunks = _chunk_indices(remaining, 3)
        assert [i for c in chunks for i in c] == remaining
        assert 1 <= len(chunks) <= 3

    def test_more_chunks_than_points(self):
        from repro.library.runner import _chunk_indices

        chunks = _chunk_indices([4, 9], 8)
        assert chunks == [[4], [9]]

    def test_solve_points_default_loops_solve_point(self):
        job = StubJob()
        points = job.points()[:3]
        assert job.solve_points(points) == [job.solve_point(p) for p in points]
