"""Characterization jobs built in process: field-solver sweeps into tables."""

from dataclasses import dataclass

import pytest

from repro.constants import GHz, um
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.errors import TableError
from repro.geometry.primitives import Point3D, RectBar
from repro.library.jobs import (
    LoopTableJob,
    PartialMutualInductanceJob,
    PartialSelfInductanceJob,
    TotalCapacitanceJob,
)
from repro.peec.hoer_love import bar_self_inductance
from repro.telemetry import get_tracer

WIDTHS = (um(2), um(5), um(10))
LENGTHS = (um(500), um(1000), um(2000))


def cpw_config():
    return CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )


def self_table(**kwargs):
    params = dict(widths=WIDTHS, lengths=LENGTHS)
    params.update(kwargs)
    [table] = PartialSelfInductanceJob(**params).build()
    return table


def mutual_table(thickness, widths1, widths2, spacings, lengths):
    [table] = PartialMutualInductanceJob(
        thickness=thickness, widths1=widths1, widths2=widths2,
        spacings=spacings, lengths=lengths,
    ).build()
    return table


class TestPartialBuilder:
    def test_self_table_matches_exact_kernel(self):
        table = self_table(thickness=um(2))
        bar = RectBar(Point3D(0, 0, 0), um(1000), um(5), um(2))
        assert table.lookup(width=um(5), length=um(1000)) == pytest.approx(
            bar_self_inductance(bar), rel=1e-9
        )

    def test_self_table_axes_and_metadata(self):
        table = self_table(thickness=um(2), frequency=GHz(3.2))
        assert tuple(table.axis_names) == ("width", "length")
        assert table.metadata["thickness"] == um(2)
        assert table.metadata["frequency"] == GHz(3.2)

    def test_mutual_table_4d(self):
        table = mutual_table(
            um(1), (um(1), um(2)), (um(1), um(2)), (um(1), um(3)),
            (um(200), um(500)),
        )
        assert table.ndim == 4
        value = table.lookup(
            width1=um(1), width2=um(2), spacing=um(1), length=um(500)
        )
        assert value > 0

    def test_mutual_symmetric_in_widths(self):
        table = mutual_table(
            um(1), (um(1), um(3)), (um(1), um(3)), (um(2), um(4)),
            (um(300), um(600)),
        )
        a = table.lookup(width1=um(1), width2=um(3), spacing=um(2), length=um(300))
        b = table.lookup(width1=um(3), width2=um(1), spacing=um(2), length=um(300))
        assert a == pytest.approx(b, rel=1e-9)

    def test_frequency_dependent_self_table_lower(self):
        # skin effect at very high frequency reduces internal inductance
        grid = dict(widths=(um(8), um(12)), lengths=(um(1000), um(2000)))
        l_static = self_table(thickness=um(2), **grid)
        l_fast = self_table(thickness=um(2), frequency=50e9, **grid)
        assert l_fast.lookup(um(8), um(1000)) < l_static.lookup(um(8), um(1000))

    @pytest.mark.parametrize("kwargs", [
        {"thickness": 0.0},
        {"thickness": um(1), "frequency": -1.0},
    ])
    def test_invalid_builder(self, kwargs):
        with pytest.raises(TableError):
            PartialSelfInductanceJob(widths=WIDTHS, lengths=LENGTHS, **kwargs)
        with pytest.raises(TableError):
            PartialMutualInductanceJob(
                widths1=WIDTHS, widths2=WIDTHS, spacings=WIDTHS,
                lengths=LENGTHS, **kwargs)

    def test_axis_validation(self):
        with pytest.raises(TableError):
            self_table(thickness=um(1), widths=(um(1),))       # too few points
        with pytest.raises(TableError):
            self_table(thickness=um(1), widths=(um(2), um(1)))  # not increasing


class TestLoopBuilder:
    def test_loop_tables_built(self):
        job = LoopTableJob(config=cpw_config(), frequency=GHz(3.2),
                           widths=(um(5), um(10)), lengths=(um(500), um(1500)))
        tracer = get_tracer()
        tracer.reset()
        l_table, r_table = job.build()
        [root] = [s for s in tracer.drain() if s.name == "tables.build"]
        assert root.tags == {"kind": "loop_rl", "points": 4}
        assert l_table.quantity == "loop_inductance"
        assert r_table.quantity == "loop_resistance"
        assert l_table.lookup(um(5), um(500)) > 0
        assert r_table.lookup(um(5), um(500)) > 0

    def test_lookup_matches_direct_solve_at_knot(self):
        config = cpw_config()
        l_table, _ = LoopTableJob(
            config=config, frequency=GHz(3.2),
            widths=(um(5), um(10)), lengths=(um(500), um(1500)),
        ).build()
        problem = config.loop_problem(um(10), um(1500))
        _, direct = problem.loop_rl(GHz(3.2))
        assert l_table.lookup(um(10), um(1500)) == pytest.approx(direct, rel=1e-9)

    def test_invalid_frequency(self):
        with pytest.raises(TableError):
            LoopTableJob(config=cpw_config(), frequency=0.0,
                         widths=(um(5), um(10)), lengths=(um(500), um(1500)))


@dataclass(frozen=True)
class NoSignalConfig:
    """A structure whose cross-section has no conductor named 'SIG'."""

    def cross_section(self, signal_width, spacing):
        from repro.rc.fieldsolver2d import ConductorRect, CrossSection2D

        return CrossSection2D(
            width=um(20), height=um(10),
            conductors=[ConductorRect(
                "X", um(5), um(5) + signal_width, um(2), um(3))],
        )


class TestCapacitanceBuilder:
    def test_cap_table_from_fd_solver(self):
        [table] = TotalCapacitanceJob(
            config=cpw_config(), widths=(um(5), um(10)),
            spacings=(um(1), um(3)), nx=60, nz=45,
        ).build()
        assert table.quantity == "capacitance_per_length"
        narrow = table.lookup(width=um(5), spacing=um(1))
        wide = table.lookup(width=um(10), spacing=um(1))
        assert wide > narrow > 0

    def test_signal_name_required(self):
        # caught when the job is made, before any field solve
        with pytest.raises(TableError, match="no signal 'SIG'"):
            TotalCapacitanceJob(config=NoSignalConfig(),
                                widths=(um(1), um(2)), spacings=(um(1), um(2)),
                                nx=40, nz=30)
