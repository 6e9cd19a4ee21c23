"""Bus RLC extraction, netlist formulation and crosstalk."""

import numpy as np
import pytest

from repro.bus import BusRLCExtractor, crosstalk_analysis
from repro.bus.extractor import BusRLC
from repro.constants import GHz, um
from repro.errors import CircuitError, GeometryError
from repro.geometry.trace import TraceBlock
from repro.peec.hoer_love import bar_mutual_inductance, bar_self_inductance
from repro.rc.capacitance import CapacitanceModel
from repro.library.jobs import (
    PartialMutualInductanceJob,
    PartialSelfInductanceJob,
)


def bus_block(n=5, width=um(2), spacing=um(2), length=um(1000)):
    return TraceBlock.from_widths_and_spacings(
        widths=[width] * n, spacings=[spacing] * (n - 1),
        length=length, thickness=um(1),
    )


def extractor(**kwargs):
    defaults = dict(
        frequency=GHz(3.2),
        capacitance_model=CapacitanceModel(height_below=um(2)),
    )
    defaults.update(kwargs)
    return BusRLCExtractor(**defaults)


class TestExtraction:
    @pytest.fixture(scope="class")
    def bus(self):
        return extractor().extract(bus_block())

    def test_matrix_shapes(self, bus):
        assert bus.inductance_matrix.shape == (5, 5)
        assert bus.capacitance_matrix.shape == (5, 5)
        assert bus.resistances.shape == (5,)

    def test_inductance_symmetric_positive_definite(self, bus):
        l = bus.inductance_matrix
        assert np.allclose(l, l.T)
        assert np.all(np.linalg.eigvalsh(l) > 0)

    def test_self_values_match_exact_kernel(self, bus):
        expected = bar_self_inductance(bus.block.traces[0].to_bar())
        assert bus.inductance_matrix[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_mutual_values_match_exact_kernel(self, bus):
        expected = bar_mutual_inductance(
            bus.block.traces[0].to_bar(), bus.block.traces[2].to_bar()
        )
        assert bus.inductance_matrix[0, 2] == pytest.approx(expected, rel=1e-9)

    def test_inductive_coupling_long_range(self, bus):
        # coupling coefficients decay slowly (log-like) with distance
        k_adjacent = bus.coupling_coefficient(1, 2)
        k_far = bus.coupling_coefficient(1, 4)
        assert 0.4 < k_far < k_adjacent < 1.0

    def test_capacitive_coupling_short_range(self, bus):
        c = bus.capacitance_matrix
        assert c[1, 2] < 0.0            # adjacent couple
        assert c[1, 4] == 0.0           # distant pairs truncated

    def test_equal_traces_equal_resistance(self, bus):
        assert np.allclose(bus.resistances, bus.resistances[0])

    def test_invalid_frequency(self):
        with pytest.raises(GeometryError):
            extractor(frequency=0.0)


class TestTableDrivenExtraction:
    def test_tables_match_direct(self):
        [self_table] = PartialSelfInductanceJob(
            thickness=um(1), widths=(um(1), um(2), um(4)),
            lengths=(um(500), um(1000), um(2000)),
        ).build()
        # the spacing axis must reach the widest pair separation in the
        # block (T1-T3 sit 6 um apart edge to edge)
        [mutual_table] = PartialMutualInductanceJob(
            thickness=um(1), widths1=(um(1), um(2), um(4)),
            widths2=(um(1), um(2), um(4)), spacings=(um(1), um(3), um(6)),
            lengths=(um(500), um(1000), um(2000)),
        ).build()
        block = bus_block(n=3)
        direct = extractor().extract(block)
        tabled = extractor(
            self_table=self_table, mutual_table=mutual_table
        ).extract(block)
        assert np.allclose(
            tabled.inductance_matrix, direct.inductance_matrix, rtol=1e-6
        )


class TestNetlist:
    def test_shields_tied_to_ground(self):
        block = bus_block(n=4)   # outer traces default to shields
        bus = extractor().extract(block)
        netlist = extractor().build_netlist(bus, sections=3)
        assert set(netlist.input_nodes) == {"T2", "T3"}
        assert "T1" not in netlist.input_nodes
        node_names = netlist.circuit.nodes
        assert not any(n.startswith("in_T1") for n in node_names)

    def test_rc_variant_has_no_inductors(self):
        from repro.circuit.elements import Inductor
        bus = extractor().extract(bus_block(n=3))
        netlist = extractor().build_netlist(bus, include_inductance=False)
        assert not any(isinstance(e, Inductor) for e in netlist.circuit.elements)

    def test_mutuals_can_be_disabled(self):
        bus = extractor().extract(bus_block(n=3))
        with_k = extractor().build_netlist(bus, include_mutual=True)
        without_k = extractor().build_netlist(bus, include_mutual=False)
        assert len(with_k.circuit.mutuals) > 0
        assert len(without_k.circuit.mutuals) == 0

    def test_total_inductance_preserved(self):
        from repro.circuit.elements import Inductor
        bus = extractor().extract(bus_block(n=3))
        netlist = extractor().build_netlist(bus, sections=4)
        total = sum(
            e.inductance for e in netlist.circuit.elements
            if isinstance(e, Inductor) and e.name.startswith("L_T2_")
        )
        assert total == pytest.approx(bus.inductance_matrix[1, 1], rel=1e-12)

    def test_sections_validated(self):
        bus = extractor().extract(bus_block(n=3))
        with pytest.raises(GeometryError):
            extractor().build_netlist(bus, sections=0)

    def test_netlist_simulates(self):
        from repro.circuit.sources import PulseSource
        from repro.circuit.transient import transient_analysis

        bus = extractor().extract(bus_block(n=3, length=um(500)))
        netlist = extractor().build_netlist(bus, sections=2)
        circuit = netlist.circuit
        circuit.add_voltage_source(
            "V1", "src", "0", PulseSource(0, 1.0, rise=20e-12, width=1.0)
        )
        circuit.add_resistor("Rs", "src", netlist.input_nodes["T2"], 25.0)
        circuit.add_capacitor("CL", netlist.output_nodes["T2"], "0", 20e-15)
        [result] = transient_analysis([circuit], t_stop=1e-9, dt=0.5e-12)
        final = result.voltage(netlist.output_nodes["T2"]).final_value
        assert final == pytest.approx(1.0, rel=0.05)


class TestCrosstalk:
    @pytest.fixture(scope="class")
    def setup(self):
        ex = extractor()
        bus = ex.extract(bus_block(n=7, length=um(2000)))
        return ex, bus

    def test_victims_reported(self, setup):
        ex, bus = setup
        result = crosstalk_analysis(ex, bus, aggressor="T4", sections=2)
        assert set(result.victim_noise_peak) == {"T2", "T3", "T5", "T6"}

    def test_noise_symmetric_about_aggressor(self, setup):
        ex, bus = setup
        result = crosstalk_analysis(ex, bus, aggressor="T4", sections=2)
        assert result.noise_of("T3") == pytest.approx(
            result.noise_of("T5"), rel=1e-6
        )

    def test_inductive_coupling_dominates_far_victims(self, setup):
        ex, bus = setup
        full = crosstalk_analysis(ex, bus, aggressor="T4", sections=2)
        cap_only = crosstalk_analysis(ex, bus, aggressor="T4", sections=2,
                                      include_mutual=False)
        # far victim (two traces away): inductive coupling carries the
        # noise; capacitive-only misses most of it (long- vs short-range)
        assert cap_only.noise_of("T6") < 0.5 * full.noise_of("T6")

    def test_unknown_aggressor(self, setup):
        ex, bus = setup
        with pytest.raises(CircuitError):
            crosstalk_analysis(ex, bus, aggressor="T1")   # a shield

    def test_worst_victim_is_adjacent_without_mutuals(self, setup):
        ex, bus = setup
        cap_only = crosstalk_analysis(ex, bus, aggressor="T4", sections=2,
                                      include_mutual=False)
        assert cap_only.worst_victim in ("T3", "T5")
