"""Acceptance: warm-library extraction does zero field-solver work.

Builds a small design-kit library for the default H-tree's CPW family,
then re-runs the extraction against it and asserts -- via the solver
invocation counters -- that not a single LoopProblem /
PartialInductanceSolver / FieldSolver2D call happens on the warm path.
Also exercises the interrupted-build resume on real field-solver jobs.
"""

import pytest

from repro.clocktree.extractor import ClocktreeRLCExtractor
from repro.constants import GHz, um
from repro.core.extraction import TableBasedExtractor
from repro.core.frequency import significant_frequency
from repro.errors import TableError
from repro.experiments.htree_skew import default_htree, run_htree_skew
from repro.library import (
    BuildRunner,
    TableLibrary,
    build_library,
    standard_clocktree_jobs,
)
from repro.telemetry import LOOP_SOLVE, get_registry, metrics_meter

WIDTHS = [um(6), um(10), um(14)]
LENGTHS = [um(500), um(1500), um(3000), um(5000)]
SPACINGS = [um(0.5), um(1), um(2)]


@pytest.fixture(scope="module")
def warm_library(tmp_path_factory):
    """A library covering the default H-tree's structure family."""
    root = tmp_path_factory.mktemp("kit")
    htree = default_htree()
    frequency = significant_frequency(htree.buffer.rise_time)
    jobs = standard_clocktree_jobs(
        htree.config, frequency=frequency,
        widths=WIDTHS, lengths=LENGTHS, spacings=SPACINGS,
        capacitance_grid=(50, 40),
    )
    build_library(root, jobs, parallel=False)
    return root, htree, frequency


class TestWarmExtraction:
    def test_warm_htree_extraction_zero_solver_calls(self, warm_library):
        root, htree, frequency = warm_library
        extractor = ClocktreeRLCExtractor(
            htree.config, frequency=frequency, library=root)
        assert extractor.inductance_table is not None
        assert extractor.resistance_table is not None
        assert extractor.capacitance_table is not None

        with metrics_meter() as meter:
            for segment in htree.segments:
                rlc = extractor.segment_rlc_for(segment)
                assert rlc.inductance > 0.0
                assert rlc.resistance > 0.0
                assert rlc.capacitance > 0.0
            extractor.build_netlist(htree)
        assert meter.total == 0, (
            f"warm extraction performed solver calls: {meter.counts}"
        )

    def test_warm_full_experiment_zero_solver_calls(self, warm_library):
        root, htree, _ = warm_library
        with metrics_meter() as meter:
            result = run_htree_skew(htree=htree, library=root)
        assert meter.total == 0, meter.counts
        assert result.rlc_skew > 0.0

    def test_cold_extraction_does_solve(self, warm_library):
        _, htree, frequency = warm_library
        cold = ClocktreeRLCExtractor(htree.config, frequency=frequency)
        with metrics_meter() as meter:
            cold.segment_rlc(um(2000))
        assert meter.counts.get(LOOP_SOLVE, 0) >= 1

    def test_warm_matches_cold_within_spline_error(self, warm_library):
        root, htree, frequency = warm_library
        warm = ClocktreeRLCExtractor(
            htree.config, frequency=frequency, library=root)
        cold = ClocktreeRLCExtractor(htree.config, frequency=frequency)
        warm_rlc = warm.segment_rlc(um(2000))
        cold_rlc = cold.segment_rlc(um(2000))
        assert warm_rlc.inductance == pytest.approx(
            cold_rlc.inductance, rel=0.05)
        assert warm_rlc.resistance == pytest.approx(
            cold_rlc.resistance, rel=0.05)

    def test_table_based_extractor_from_library(self, warm_library):
        root, htree, frequency = warm_library
        tbe = TableBasedExtractor.from_library(root, htree.config, frequency)
        with metrics_meter() as meter:
            value = tbe.loop_inductance(um(10), um(2000))
        assert value > 0.0
        assert meter.total == 0

    def test_from_library_missing_family_raises(self, warm_library, tmp_path):
        _, htree, frequency = warm_library
        TableLibrary(tmp_path / "empty")  # exists but has no tables
        with pytest.raises(TableError):
            TableBasedExtractor.from_library(
                tmp_path / "empty", htree.config, frequency)

    def test_other_family_not_matched(self, warm_library):
        root, htree, frequency = warm_library
        other = htree.config.with_signal_width(um(11))
        extractor = ClocktreeRLCExtractor(
            other, frequency=frequency, library=root)
        # different structure family -> no tables, falls back to solving
        assert extractor.inductance_table is None


class TestResumeWithRealJobs:
    def test_interrupted_field_solver_build_resumes(self, tmp_path):
        config = default_htree().config
        jobs = standard_clocktree_jobs(
            config, frequency=GHz(3.2),
            widths=[um(8), um(12)], lengths=[um(500), um(1500)],
        )
        (job,) = jobs
        interrupted_at = 2

        def interrupt(tick):
            if tick.done >= interrupted_at:
                raise KeyboardInterrupt

        runner = BuildRunner(tmp_path / "kit", parallel=False,
                             progress=interrupt)
        get_registry().reset()
        with pytest.raises(KeyboardInterrupt):
            runner.build(jobs)
        first_pass = get_registry().counter_value(LOOP_SOLVE)
        assert first_pass == interrupted_at
        checkpoint = runner.library.checkpoint_path(job.job_id)
        assert checkpoint.exists()

        # resume: only the remaining points are solved
        get_registry().reset()
        stats = build_library(tmp_path / "kit", jobs, parallel=False)
        second_pass = get_registry().counter_value(LOOP_SOLVE)
        assert second_pass == job.num_points() - interrupted_at
        assert stats.points_resumed == interrupted_at
        assert not checkpoint.exists()

        lib = TableLibrary(tmp_path / "kit", create=False)
        assert lib.verify() == []
        table = lib.get(job.table_key("loop_inductance"))
        assert table.lookup(width=um(10), length=um(1000)) > 0.0
