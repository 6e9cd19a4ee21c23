"""Netlist health lint (PR 5)."""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    NetlistHealthReport,
    PulseSource,
    lint_circuit,
    lint_spice,
    to_spice,
)
from repro.circuit.lint import LintFinding
from repro.errors import CircuitError
from repro.telemetry import metrics_meter


def _healthy_circuit():
    c = Circuit("healthy")
    c.add_voltage_source("Vin", "in", "0", PulseSource(
        v1=0.0, v2=1.8, delay=0.0, rise=5e-11, fall=5e-11,
        width=1e-9, period=0.0,
    ))
    c.add_resistor("R1", "in", "a", 50.0)
    c.add_inductor("L1", "a", "b", 1e-9)
    c.add_inductor("L2", "b", "c", 1e-9)
    c.add_mutual("K1", "L1", "L2", coupling=0.3)
    c.add_capacitor("C1", "c", "0", 1e-13)
    return c


def _codes(report):
    return [f.code for f in report.findings]


class TestHealthyCircuit:
    def test_clean_report(self):
        report = lint_circuit(_healthy_circuit())
        assert report.clean
        assert report.findings == []
        assert report.stats["resistors"] == 1
        assert report.stats["inductors"] == 2
        assert report.stats["mutuals"] == 1
        assert report.stats["nodes"] == 4
        assert report.max_coupling == pytest.approx(0.3)
        assert report.l_min_eigenvalue == pytest.approx(0.7e-9)
        assert "clean" in report.summary()

    def test_lint_counters(self):
        with metrics_meter() as meter:
            lint_circuit(_healthy_circuit())
        assert meter.delta.counter("netlist_lint") == 1
        assert meter.delta.counter("netlist_lint_finding") == 0
        # lint is observational: it must not count as solver work
        assert meter.total == 0

    def test_serialization_roundtrip(self):
        report = lint_circuit(_healthy_circuit())
        clone = NetlistHealthReport.from_dict(report.to_dict())
        assert clone == report


class TestStructuralFindings:
    def test_empty_circuit(self):
        report = lint_circuit(Circuit("void"))
        assert not report.clean
        assert _codes(report) == ["empty_circuit"]

    def test_no_ground(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "b", 1.0)
        c.add_resistor("R1", "a", "b", 10.0)
        report = lint_circuit(c)
        assert "no_ground" in _codes(report)
        assert not report.clean

    def test_current_source_only_node_is_disconnected(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "0", 10.0)
        c.add_current_source("I1", "a", "x", 1e-3)  # x has no return path
        report = lint_circuit(c)
        assert "disconnected_from_ground" in _codes(report)
        finding = next(f for f in report.findings
                       if f.code == "disconnected_from_ground")
        assert finding.subject == "x"

    def test_dangling_node_warning(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "0", 10.0)
        c.add_resistor("Rstub", "a", "stub", 5.0)  # dead-end stub
        report = lint_circuit(c)
        assert report.clean  # warning-only
        assert "dangling_node" in _codes(report)
        assert report.warnings[0].subject == "stub"

    def test_vcvs_control_only_node(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "0", 10.0)
        c.add_vcvs("E1", "out", "0", "phantom", "0", 2.0)
        c.add_resistor("R2", "out", "0", 10.0)
        report = lint_circuit(c)
        assert "control_only_node" in _codes(report)
        assert not report.clean


class TestValueFindings:
    def test_mutated_negative_resistance(self):
        c = _healthy_circuit()
        c.element("R1").resistance = -5.0  # bypasses the constructor
        report = lint_circuit(c)
        assert "non_positive_value" in _codes(report)
        assert report.errors[0].subject == "R1"

    def test_non_finite_capacitance(self):
        c = _healthy_circuit()
        c.element("C1").capacitance = float("nan")
        report = lint_circuit(c)
        assert "non_finite_value" in _codes(report)


class TestCouplingAndPassivity:
    def test_mutated_coupling_above_unity(self):
        c = _healthy_circuit()
        c.mutuals[0].mutual = 1.5e-9  # |k| = 1.5 for L1 = L2 = 1 nH
        report = lint_circuit(c)
        assert "coupling_exceeds_unity" in _codes(report)
        assert report.max_coupling == pytest.approx(1.5)
        assert not report.clean

    def test_near_unity_coupling_warns(self):
        c = _healthy_circuit()
        c.mutuals[0].mutual = 0.97e-9
        report = lint_circuit(c)
        assert "coupling_near_unity" in _codes(report)
        assert report.clean  # warning-only

    def test_collectively_non_passive_l_matrix(self):
        # Pairwise-legal couplings (|k| = 0.9 each) whose signs make the
        # assembled 3x3 inductance matrix indefinite: only the PSD check
        # can catch this, constructor validation cannot.
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", 1.0)
        c.add_inductor("L1", "a", "b", 1e-9)
        c.add_inductor("L2", "b", "c", 1e-9)
        c.add_inductor("L3", "c", "0", 1e-9)
        c.add_mutual("K12", "L1", "L2", coupling=0.9)
        c.add_mutual("K23", "L2", "L3", coupling=0.9)
        c.add_mutual("K13", "L1", "L3", coupling=-0.9)
        report = lint_circuit(c)
        assert "l_matrix_not_psd" in _codes(report)
        assert report.l_min_eigenvalue < 0.0
        assert not report.clean
        # sanity: the eigenvalue really is what numpy says
        m = 0.9e-9
        l_mat = np.array([[1e-9, m, -m], [m, 1e-9, m], [-m, m, 1e-9]])
        assert report.l_min_eigenvalue == pytest.approx(
            float(np.linalg.eigvalsh(l_mat)[0]))


def _full_matrix_min_eigenvalue(circuit):
    """The whole ``[L, M]`` matrix through one ``eigvalsh``, the way the
    passivity check computed it for every deck, mutuals or not.
    """
    from repro.circuit.elements import Inductor

    inductors = [e for e in circuit.elements if isinstance(e, Inductor)]
    index = {ind.name: i for i, ind in enumerate(inductors)}
    l_matrix = np.diag([ind.inductance for ind in inductors])
    for mutual in circuit.mutuals:
        i, j = index[mutual.inductor1], index[mutual.inductor2]
        l_matrix[i, j] += mutual.mutual
        l_matrix[j, i] += mutual.mutual
    return float(np.linalg.eigvalsh(l_matrix)[0])


class TestPassivityEigenvalue:
    """Only a coupled deck runs ``eigvalsh``; either way the eigenvalue is
    bit-identical to the whole-matrix solve."""

    @pytest.mark.parametrize("levels,asymmetry", [(2, 1.0), (3, 1.5),
                                                  (4, 1.2)])
    def test_htree_decks_bit_identical(self, levels, asymmetry):
        from repro.clocktree.extractor import ClocktreeRLCExtractor
        from repro.core.frequency import significant_frequency
        from repro.experiments.htree_skew import default_htree

        htree = default_htree(levels=levels, asymmetry=asymmetry)
        extractor = ClocktreeRLCExtractor(
            htree.config,
            frequency=significant_frequency(htree.buffer.rise_time),
        )
        rlc = extractor.build_netlist(htree, include_inductance=True)
        assert not rlc.circuit.mutuals  # the diagonal-minimum path
        assert lint_circuit(rlc.circuit).l_min_eigenvalue == (
            _full_matrix_min_eigenvalue(rlc.circuit))
        rc = extractor.build_netlist(htree, include_inductance=False)
        assert lint_circuit(rc.circuit).l_min_eigenvalue is None

    def test_one_coupled_component_bit_identical(self):
        c = _healthy_circuit()
        c.add_inductor("L3", "c", "d", 2e-9)
        c.add_mutual("K2", "L2", "L3", coupling=0.2)
        c.add_resistor("R2", "d", "0", 50.0)
        assert lint_circuit(c).l_min_eigenvalue == (
            _full_matrix_min_eigenvalue(c))

    def test_coupled_bus_bit_identical(self):
        from repro.bus import BusRLCExtractor
        from repro.constants import GHz, um
        from repro.geometry.trace import TraceBlock
        from repro.rc.capacitance import CapacitanceModel

        block = TraceBlock.from_widths_and_spacings(
            widths=[um(2)] * 5, spacings=[um(2)] * 4,
            length=um(1000), thickness=um(1),
        )
        extractor = BusRLCExtractor(
            frequency=GHz(3.2),
            capacitance_model=CapacitanceModel(height_below=um(2)),
        )
        for sections in (1, 3):
            circuit = extractor.build_netlist(
                extractor.extract(block), sections=sections).circuit
            assert circuit.mutuals
            assert lint_circuit(circuit).l_min_eigenvalue == (
                _full_matrix_min_eigenvalue(circuit))

    def test_uncoupled_inductor_can_hold_the_minimum(self):
        c = _healthy_circuit()
        c.add_inductor("L3", "c", "d", 0.1e-9)
        c.add_resistor("R2", "d", "0", 50.0)
        assert lint_circuit(c).l_min_eigenvalue == 0.1e-9


class TestSpiceLint:
    def test_good_deck_is_clean(self):
        deck = to_spice(_healthy_circuit())
        report = lint_spice(deck, name="deck.sp")
        assert report.clean
        assert report.name == "deck.sp"

    def test_negative_capacitance_deck_flagged(self):
        deck = "* bad\nV1 in 0 DC 1\nR1 in out 10\nC1 out 0 -1p\n.end\n"
        report = lint_spice(deck)
        assert not report.clean
        assert _codes(report) == ["parse_error"]

    def test_coupling_above_unity_deck_flagged(self):
        deck = ("* bad\nV1 in 0 DC 1\nL1 in x 1n\nL2 x 0 1n\n"
                "K1 L1 L2 1.2\n.end\n")
        report = lint_spice(deck)
        assert not report.clean
        assert "rejected by importer" in report.findings[0].message

    def test_render_mentions_findings(self):
        deck = "* bad\nV1 in 0 DC 1\nR1 in out 10\nC1 out 0 -1p\n.end\n"
        text = lint_spice(deck, name="bad.sp").render()
        assert "bad.sp" in text
        assert "ERROR" in text
        assert "parse_error" in text


class TestLintFinding:
    def test_unknown_severity_rejected(self):
        with pytest.raises(CircuitError):
            LintFinding("fatal", "x", "y")
