"""FD-based 3-trace capacitance tables and their use in the bus flow."""

import numpy as np
import pytest

from repro.bus import BusRLCExtractor
from repro.constants import GHz, um
from repro.errors import TableError
from repro.geometry.trace import TraceBlock
from repro.rc.capacitance import CapacitanceModel, coupling_capacitance
from repro.library.jobs import ThreeTraceCapacitanceJob


@pytest.fixture(scope="module")
def tables():
    return ThreeTraceCapacitanceJob(
        height_below=um(2), thickness=um(1), nx=80, nz=60,
        widths=(um(1), um(2), um(4)),
        spacings=(um(1), um(2), um(4)),
    ).build()


class TestBuilder:
    def test_invalid_geometry(self):
        with pytest.raises(TableError):
            ThreeTraceCapacitanceJob(height_below=0.0, thickness=um(1),
                                     widths=(um(1), um(2)),
                                     spacings=(um(1), um(2)))

    def test_tables_positive(self, tables):
        ground, coupling = tables
        assert np.all(ground.values > 0)
        assert np.all(coupling.values > 0)

    def test_coupling_decays_with_spacing(self, tables):
        _, coupling = tables
        tight = coupling.lookup(width=um(2), spacing=um(1))
        loose = coupling.lookup(width=um(2), spacing=um(4))
        assert tight > loose

    def test_ground_grows_with_width(self, tables):
        ground, _ = tables
        narrow = ground.lookup(width=um(1), spacing=um(2))
        wide = ground.lookup(width=um(4), spacing=um(2))
        assert wide > narrow

    def test_fd_coupling_exceeds_sakurai_fit_at_tight_spacing(self, tables):
        # the reason the tables exist: the closed-form fit underestimates
        # tight-pitch coupling substantially (see DESIGN.md)
        _, coupling = tables
        fd = coupling.lookup(width=um(2), spacing=um(1))
        analytic = coupling_capacitance(um(2), um(1), um(2), um(1), 1.0)
        assert fd > analytic

    def test_metadata_recorded(self, tables):
        ground, _ = tables
        assert ground.metadata["model"] == "fd2d_three_trace"
        assert ground.metadata["height_below"] == um(2)


class TestBusIntegration:
    def test_both_tables_required(self, tables):
        ground, _ = tables
        with pytest.raises(TableError):
            BusRLCExtractor(
                frequency=GHz(3.2),
                capacitance_model=CapacitanceModel(um(2)),
                cap_ground_table=ground,
            )

    def test_fd_tables_drive_bus_extraction(self, tables):
        ground, coupling = tables
        block = TraceBlock.from_widths_and_spacings(
            widths=[um(2)] * 4, spacings=[um(2)] * 3, length=um(1000),
            thickness=um(1), ground_flags=[False] * 4,
        )
        extractor = BusRLCExtractor(
            frequency=GHz(3.2),
            capacitance_model=CapacitanceModel(um(2)),
            cap_ground_table=ground,
            cap_coupling_table=coupling,
        )
        bus = extractor.extract(block)
        c = bus.capacitance_matrix
        assert np.allclose(c, c.T)
        assert np.all(np.diag(c) > 0)
        assert c[0, 1] < 0
        assert c[0, 2] == 0.0   # short-range truncation preserved

    def test_fd_and_analytic_same_structure(self, tables):
        ground, coupling = tables
        block = TraceBlock.from_widths_and_spacings(
            widths=[um(2)] * 3, spacings=[um(2)] * 2, length=um(1000),
            thickness=um(1), ground_flags=[False] * 3,
        )
        analytic = BusRLCExtractor(
            frequency=GHz(3.2), capacitance_model=CapacitanceModel(um(2)),
        ).extract(block)
        fd = BusRLCExtractor(
            frequency=GHz(3.2), capacitance_model=CapacitanceModel(um(2)),
            cap_ground_table=ground, cap_coupling_table=coupling,
        ).extract(block)
        # same sign structure; magnitudes agree within the closed forms'
        # documented error envelope (coupling can differ by ~2x)
        assert np.sign(analytic.capacitance_matrix[0, 1]) == np.sign(
            fd.capacitance_matrix[0, 1]
        )
        ratio = fd.capacitance_matrix[1, 1] / analytic.capacitance_matrix[1, 1]
        assert 0.5 < ratio < 2.0
