"""Fast-parameter versions of every paper experiment.

These are the shape assertions of the reproduction: who wins, by what
rough factor, in which direction.  Full-size runs live in benchmarks/.
"""

import numpy as np
import pytest

from repro.constants import GHz, ps, um
from repro.experiments import (
    run_fig1,
    run_fig5,
    run_htree_skew,
    run_length_scaling,
    run_process_variation,
    run_table1,
    run_table_accuracy,
)


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig1(t_stop=ps(1000), dt=ps(0.5), sections=6)

    def test_inductance_increases_delay(self, result):
        assert result.delay_rlc > 1.5 * result.delay_rc

    def test_rlc_delay_near_paper_value(self, result):
        # paper: 47.6 ps; our line flight time lands in the same range
        assert ps(30) < result.delay_rlc < ps(80)

    def test_overshoot_only_with_inductance(self, result):
        assert result.overshoot_rlc > 0.05
        assert result.overshoot_rc < 0.01

    def test_undershoot_with_inductance(self, result):
        assert result.undershoot_rlc > 0.0

    def test_extracted_rlc_sane(self, result):
        assert 5 < result.rlc.resistance < 30          # ohm
        assert 1e-9 < result.rlc.inductance < 3e-9     # H
        assert 1e-12 < result.rlc.capacitance < 5e-12  # F

    def test_overdamped_at_weak_drive(self):
        weak = run_fig1(drive_resistance=60.0, t_stop=ps(1000), dt=ps(0.5),
                        sections=6)
        assert weak.overshoot_rlc < 0.01


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(n_traces=4, length=um(1000), plane_strips=9)

    def test_matrix_structure(self, result):
        matrix = result.loop_matrix
        assert matrix.shape == (4, 4)
        assert np.all(np.diag(matrix) > 0)

    def test_foundations_hold(self, result):
        assert result.foundation1.relative_error < 0.02
        assert result.foundation2.relative_error < 0.05
        assert result.max_foundation_error < 0.05


class TestTable1:
    def test_cascading_errors_small(self):
        result = run_table1(frequency=GHz(3))
        assert {row.name for row in result.rows} == {"fig6a", "fig6b"}
        # the paper reports 3.57 % and 1.55 %; tightly guarded wires land
        # well inside that envelope
        assert result.max_error_percent < 4.0


class TestLengthScaling:
    def test_doubling_ratio_near_paper(self):
        result = run_length_scaling()
        ratio = result.doubling_ratio(1e-3)
        assert 2.1 < ratio < 2.4          # "about 2.2 times"

    def test_mutual_also_superlinear(self):
        result = run_length_scaling()
        assert result.mutual_doubling_ratio(1e-3) > 2.1

    def test_per_length_slope_grows(self):
        result = run_length_scaling()
        assert result.per_length_slope_growth > 1.3


class TestTableAccuracy:
    def test_interpolation_accurate_and_fast(self):
        result = run_table_accuracy(
            widths=[um(4), um(8), um(12)],
            lengths=[um(500), um(1500), um(3000)],
            probe_points=[(um(6), um(1000)), (um(10), um(2200))],
        )
        assert result.max_error < 0.02
        assert result.mean_speedup > 3


class TestHTreeSkew:
    def test_skew_discrepancy_exceeds_10_percent(self):
        result = run_htree_skew(t_stop=ps(4000), dt=ps(1))
        assert result.skew_discrepancy_percent > 10.0
        assert result.rlc_skew > result.rc_skew


class TestProcessVariation:
    def test_l_insensitive_vs_rc(self):
        result = run_process_variation(n_rc_samples=60, n_l_samples=8)
        assert result.l_spread < result.r_spread
        assert result.l_spread < result.c_spread
        assert result.l_insensitivity_factor > 1.5

    def test_variation_skew_distribution(self):
        from repro.experiments import run_variation_skew

        result = run_variation_skew(n_samples=5)
        assert result.skews.shape == (5,)
        assert result.nominal_skew > 0
        assert result.skews.std() > 0
        # process wiggles the skew by percents, not orders of magnitude
        assert result.skew_spread < 0.3

    def test_variation_skew_peak_memory_flat_in_samples(self):
        # The decks run in fixed-size batches, so two batches' worth of
        # samples peak no higher than one batch's; a single batch of
        # every deck would nearly double the peak.
        import tracemalloc

        from repro.experiments import run_variation_skew
        from repro.experiments.process_variation import _BATCH_DECKS

        def peak(n_samples):
            tracemalloc.start()
            try:
                run_variation_skew(n_samples=n_samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_batch = peak(_BATCH_DECKS - 1)  # plus the nominal deck
        assert peak(2 * _BATCH_DECKS - 1) < 1.3 * one_batch
