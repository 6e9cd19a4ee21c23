"""Warm-library zero-solve acceptance, asserted through the registry.

``tests/library/test_integration.py`` asserts this claim through the
solver-only ``metrics_meter.total``; this one checks the loop, partial
and 2-D field solver counters one by one, and that warm lookups still
record their latency histograms.
"""

import pytest

from repro.clocktree.extractor import ClocktreeRLCExtractor
from repro.constants import um
from repro.core.extraction import TableBasedExtractor
from repro.core.frequency import significant_frequency
from repro.experiments.htree_skew import default_htree
from repro.library import build_library, standard_clocktree_jobs
from repro.telemetry import (
    FIELD_SOLVE_2D,
    LOOP_SOLVE,
    PARTIAL_SOLVE,
    get_registry,
    metrics_meter,
)


@pytest.fixture(scope="module")
def warm_library(tmp_path_factory):
    """The smallest library that still covers the default H-tree."""
    root = tmp_path_factory.mktemp("kit")
    htree = default_htree()
    frequency = significant_frequency(htree.buffer.rise_time)
    jobs = standard_clocktree_jobs(
        htree.config, frequency=frequency,
        widths=[um(6), um(14)], lengths=[um(400), um(5200)],
        spacings=[um(0.5), um(2)],
        capacitance_grid=(40, 30),
    )
    build_library(root, jobs, parallel=False)
    return root, htree, frequency


class TestWarmPathViaRegistry:
    def test_zero_loop_and_field_solves(self, warm_library):
        root, htree, frequency = warm_library
        extractor = ClocktreeRLCExtractor(
            htree.config, frequency=frequency, library=root)
        assert extractor.inductance_table is not None
        with metrics_meter(get_registry()) as meter:
            for segment in htree.segments:
                rlc = extractor.segment_rlc_for(segment)
                assert rlc.inductance > 0.0
            extractor.build_netlist(htree)
        for counter in (LOOP_SOLVE, PARTIAL_SOLVE, FIELD_SOLVE_2D):
            assert meter.counts.get(counter, 0) == 0, (
                f"warm extraction ran {counter}: {meter.counts}"
            )

    def test_warm_lookups_observe_latency(self, warm_library):
        root, htree, frequency = warm_library
        tbe = TableBasedExtractor.from_library(root, htree.config, frequency)
        with metrics_meter(get_registry()) as meter:
            assert tbe.loop_inductance(um(10), um(2000)) > 0.0
            assert tbe.loop_resistance(um(10), um(2000)) > 0.0
        hist = meter.delta.histogram("lookup_latency_seconds")
        assert hist is not None and hist.count == 2
        assert meter.counts.get(LOOP_SOLVE, 0) == 0

    def test_cold_path_still_counts(self, warm_library):
        _, htree, frequency = warm_library
        cold = ClocktreeRLCExtractor(htree.config, frequency=frequency)
        with metrics_meter(get_registry()) as meter:
            cold.segment_rlc(um(2000))
        assert meter.counts.get(LOOP_SOLVE, 0) >= 1
