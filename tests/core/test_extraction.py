"""TableBasedExtractor: characterize, look up, validate, persist."""

import statistics
import warnings

import pytest

from repro.constants import GHz, um
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.core.extraction import TableBasedExtractor
from repro.errors import ExtrapolationWarning, TableError
from repro.telemetry import metrics_meter

WIDTHS = [um(5), um(10), um(15)]
LENGTHS = [um(500), um(1000), um(2000)]


def config():
    return CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )


@pytest.fixture(scope="module")
def extractor():
    return TableBasedExtractor.characterize(
        config(), frequency=GHz(3.2), widths=WIDTHS, lengths=LENGTHS,
    )


class TestCharacterize:
    def test_tables_built(self, extractor):
        assert extractor.inductance_table is not None
        assert extractor.resistance_table is not None
        assert extractor.capacitance_table is None   # no spacings given

    def test_capacitance_table_optional(self):
        ex = TableBasedExtractor.characterize(
            config(), frequency=GHz(3.2),
            widths=[um(5), um(10)], lengths=[um(500), um(1000)],
            spacings=[um(1), um(3)], capacitance_grid=(50, 40),
        )
        assert ex.capacitance_table is not None
        assert ex.capacitance_per_length(um(8), um(2)) > 0

    def test_invalid_frequency(self, extractor):
        with pytest.raises(TableError):
            TableBasedExtractor(config(), 0.0, extractor.inductance_table)


class TestLookup:
    def test_knot_exactness(self, extractor):
        problem = config().loop_problem(um(10), um(1000))
        _, direct = problem.loop_rl(GHz(3.2))
        assert extractor.loop_inductance(um(10), um(1000)) == pytest.approx(
            direct, rel=1e-9
        )

    def test_off_grid_interpolation_accurate(self, extractor):
        probe = extractor.accuracy_probe(um(8), um(1400))
        assert probe.relative_error < 0.02

    def test_lookup_much_faster_than_solve(self, extractor):
        # One wall-clock sample is noise-prone; bound the median of five.
        speedups = [extractor.accuracy_probe(um(8), um(1400)).speedup
                    for _ in range(5)]
        assert statistics.median(speedups) > 3
        with metrics_meter() as meter:
            extractor.loop_inductance(um(8), um(1400))
        assert meter.total == 0, meter.counts

    def test_resistance_lookup(self, extractor):
        assert extractor.loop_resistance(um(10), um(1000)) > 0

    def test_missing_cap_table_raises(self, extractor):
        with pytest.raises(TableError):
            extractor.capacitance_per_length(um(10), um(1))

    def test_extrapolation_warns(self, extractor):
        with pytest.warns(ExtrapolationWarning):
            extractor.loop_inductance(um(30), um(1000))


class TestPersistence:
    def test_save_load_round_trip(self, extractor, tmp_path):
        extractor.save(tmp_path)
        reloaded = TableBasedExtractor.load(tmp_path, config(), GHz(3.2))
        assert reloaded.loop_inductance(um(8), um(1500)) == pytest.approx(
            extractor.loop_inductance(um(8), um(1500))
        )
        assert reloaded.loop_resistance(um(8), um(1500)) == pytest.approx(
            extractor.loop_resistance(um(8), um(1500))
        )

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(TableError):
            TableBasedExtractor.load(tmp_path / "nope", config(), GHz(3.2))


class TestIntegration:
    def test_as_clocktree_extractor(self, extractor):
        ex = extractor.as_clocktree_extractor()
        rlc = ex.segment_rlc(um(1200))
        assert rlc.inductance == pytest.approx(
            extractor.loop_inductance(um(10), um(1200)), rel=1e-9
        )
