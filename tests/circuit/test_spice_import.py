"""SPICE deck parsing and export/import round trips."""

import numpy as np
import pytest

from repro.circuit.elements import Capacitor, Inductor, Resistor
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource, PWLSource, SineSource
from repro.circuit.spice_export import to_spice
from repro.circuit.spice_import import from_spice, parse_value
from repro.circuit.transient import transient_analysis
from repro.errors import CircuitError


class TestValueParsing:
    @pytest.mark.parametrize("token,expected", [
        ("1", 1.0),
        ("2.5", 2.5),
        ("-3e-9", -3e-9),
        ("1k", 1e3),
        ("2.2n", 2.2e-9),
        ("10meg", 10e6),
        ("100p", 100e-12),
        ("4.7u", 4.7e-6),
        ("1M", 1e-3),          # SPICE: m/M is milli
        ("5ohm", 5.0),
        ("3.3G", 3.3e9),
        ("2f", 2e-15),
    ])
    def test_values(self, token, expected):
        assert parse_value(token) == pytest.approx(expected)

    def test_garbage_rejected(self):
        with pytest.raises(CircuitError):
            parse_value("abc")


class TestParsing:
    def test_basic_rlc(self):
        deck = """* test
V1 in 0 DC 1.8
R1 in a 1k
L1 a out 2n IC=1m
C1 out 0 100f IC=0.5
.tran 1p 1n
.end
"""
        parsed = from_spice(deck)
        assert parsed.title == "test"
        assert parsed.controls == ["tran 1p 1n"]
        circuit = parsed.circuit
        assert circuit.element("R1").resistance == pytest.approx(1e3)
        assert circuit.element("L1").inductance == pytest.approx(2e-9)
        assert circuit.element("L1").initial_current == pytest.approx(1e-3)
        assert circuit.element("C1").capacitance == pytest.approx(100e-15)
        assert circuit.element("C1").initial_voltage == pytest.approx(0.5)

    def test_continuation_lines(self):
        deck = """* cont
V1 in 0 PWL(0 0
+ 1n 1.0
+ 2n 0.5)
R1 in 0 50
.end
"""
        circuit = from_spice(deck).circuit
        source = circuit.element("V1").waveform
        assert isinstance(source, PWLSource)
        assert source(1e-9) == pytest.approx(1.0)

    def test_pulse_source(self):
        deck = "* t\nV1 a 0 PULSE(0 1.8 1n 50p 50p 2n 8n)\nR1 a 0 50\n.end"
        source = from_spice(deck).circuit.element("V1").waveform
        assert isinstance(source, PulseSource)
        assert source(0.0) == 0.0
        assert source(1e-9 + 50e-12 + 1e-9) == pytest.approx(1.8)

    def test_sine_source(self):
        deck = "* t\nV1 a 0 SIN(0.9 0.1 1g)\nR1 a 0 50\n.end"
        source = from_spice(deck).circuit.element("V1").waveform
        assert isinstance(source, SineSource)
        assert source.frequency == pytest.approx(1e9)

    def test_coupling_card(self):
        deck = """* k
V1 a 0 DC 0
L1 a 0 1n
L2 b 0 4n
R1 b 0 50
K1 L1 L2 0.5
.end
"""
        circuit = from_spice(deck).circuit
        assert len(circuit.mutuals) == 1
        assert circuit.mutuals[0].mutual == pytest.approx(
            0.5 * np.sqrt(1e-9 * 4e-9)
        )

    def test_vcvs(self):
        deck = "* e\nV1 a 0 DC 1\nRi a 0 1k\nE1 b 0 a 0 2.0\nRL b 0 1k\n.end"
        circuit = from_spice(deck).circuit
        from repro.circuit.dc import operating_point
        assert operating_point(circuit)["b"] == pytest.approx(2.0)

    def test_unknown_card_rejected(self):
        with pytest.raises(CircuitError):
            from_spice("* t\nQ1 a b c model\n.end")

    def test_orphan_continuation_rejected(self):
        with pytest.raises(CircuitError):
            from_spice("+ R1 a 0 1k")


class TestRoundTrip:
    def build_original(self):
        c = Circuit("round trip")
        c.add_voltage_source("Vin", "in", "0",
                             PulseSource(0.0, 1.0, delay=1e-10,
                                         rise=5e-11, fall=5e-11, width=1e-9))
        c.add_resistor("R1", "in", "a", 25.0)
        c.add_inductor("L1", "a", "out", 1e-9)
        c.add_inductor("L2", "b", "0", 1e-9)
        c.add_resistor("R2", "b", "0", 50.0)
        c.add_capacitor("C1", "out", "0", 1e-12)
        c.add_mutual("K1", "L1", "L2", coupling=0.3)
        return c

    def test_element_values_preserved(self):
        original = self.build_original()
        rebuilt = from_spice(to_spice(original)).circuit
        for name in ("R1", "L1", "C1"):
            a, b = original.element(name), rebuilt.element(name)
            for attr in ("resistance", "inductance", "capacitance"):
                if hasattr(a, attr):
                    assert getattr(b, attr) == pytest.approx(getattr(a, attr))
        assert rebuilt.mutuals[0].mutual == pytest.approx(
            original.mutuals[0].mutual
        )

    def test_simulation_equivalence(self):
        original = self.build_original()
        rebuilt = from_spice(to_spice(original)).circuit
        [res_a] = transient_analysis([original], t_stop=2e-9, dt=1e-12)
        [res_b] = transient_analysis([rebuilt], t_stop=2e-9, dt=1e-12)
        va = res_a.voltage("out").values
        vb = res_b.voltage("out").values
        assert np.max(np.abs(va - vb)) < 1e-9

    def test_extracted_clocktree_round_trip(self):
        from repro.constants import GHz, um
        from repro.clocktree.configs import CoplanarWaveguideConfig
        from repro.clocktree.extractor import ClocktreeRLCExtractor
        from repro.clocktree.htree import HTree

        config = CoplanarWaveguideConfig(
            signal_width=um(10), ground_width=um(5), spacing=um(1),
            thickness=um(2), height_below=um(2),
        )
        extractor = ClocktreeRLCExtractor(config, frequency=GHz(3.2))
        htree = HTree.generate(levels=1, root_length=um(1000), config=config)
        netlist = extractor.build_netlist(htree)
        rebuilt = from_spice(to_spice(netlist.circuit)).circuit
        assert len(rebuilt.elements) == len(netlist.circuit.elements)
