"""Moment computation and moment-based delay estimates."""

import numpy as np
import pytest

from repro.circuit.moments import compute_moments
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource
from repro.circuit.transient import transient_analysis
from repro.errors import CircuitError, SolverError


def rc_ladder(n=3, r=1e3, c=1e-12):
    circuit = Circuit()
    circuit.add_voltage_source("V1", "n0", "0", 1.0)
    for k in range(n):
        circuit.add_resistor(f"R{k}", f"n{k}", f"n{k + 1}", r)
        circuit.add_capacitor(f"C{k}", f"n{k + 1}", "0", c)
    return circuit


def rlc_line(r=10.0, l=1.5e-9, c=1.5e-12, rs=15.0, sections=4):
    circuit = Circuit()
    circuit.add_voltage_source("V1", "src", "0", 1.0)
    circuit.add_resistor("Rs", "src", "n0", rs)
    for k in range(sections):
        circuit.add_capacitor(f"Ca{k}", f"n{k}", "0", c / sections / 2)
        circuit.add_resistor(f"R{k}", f"n{k}", f"m{k}", r / sections)
        circuit.add_inductor(f"L{k}", f"m{k}", f"n{k + 1}", l / sections)
        circuit.add_capacitor(f"Cb{k}", f"n{k + 1}", "0", c / sections / 2)
    return circuit, f"n{sections}"


class TestMomentRecursion:
    def test_m0_is_dc_solution(self):
        expansion = compute_moments(rc_ladder())
        assert expansion.node_moments("n3")[0] == pytest.approx(1.0, abs=1e-6)

    def test_elmore_of_single_rc(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_capacitor("C1", "b", "0", 1e-12)
        expansion = compute_moments(circuit)
        assert expansion.elmore_delay("b") == pytest.approx(1e-9, rel=1e-9)

    def test_elmore_of_ladder_matches_formula(self):
        # Elmore delay of node j in a uniform ladder: sum_k R_upstream C_k
        n, r, c = 3, 1e3, 1e-12
        expansion = compute_moments(rc_ladder(n, r, c))
        expected = sum(r * (i + 1) * c for i in range(n))  # to the far node:
        # node n sees R1(C1+C2+C3) + R2(C2+C3) + R3(C3) = rc(3+2+1)
        expected = r * c * (3 + 2 + 1)
        assert expansion.elmore_delay("n3") == pytest.approx(expected, rel=1e-9)

    def test_moment_signs_alternate_for_rc(self):
        expansion = compute_moments(rc_ladder(), order=4)
        m = expansion.node_moments("n3")
        assert m[1] < 0 < m[0]
        assert m[2] > 0
        assert m[3] < 0

    def test_order_validation(self):
        with pytest.raises(CircuitError):
            compute_moments(rc_ladder(), order=0)

    def test_unknown_node(self):
        expansion = compute_moments(rc_ladder())
        with pytest.raises(CircuitError):
            expansion.node_moments("zzz")


class TestDelayEstimates:
    def test_two_pole_tracks_simulation_rc(self):
        circuit = rc_ladder(4)
        expansion = compute_moments(circuit)
        estimate = expansion.two_pole_delay("n4")
        # reference transient with a fast step
        sim = Circuit()
        sim.add_voltage_source("V1", "n0", "0",
                               PulseSource(0, 1, rise=1e-13, width=1.0))
        for k in range(4):
            sim.add_resistor(f"R{k}", f"n{k}", f"n{k + 1}", 1e3)
            sim.add_capacitor(f"C{k}", f"n{k + 1}", "0", 1e-12)
        [result] = transient_analysis([sim], t_stop=60e-9, dt=10e-12)
        reference = result.voltage("n4").threshold_crossing(0.5)
        assert estimate == pytest.approx(reference, rel=0.25)

    def test_two_pole_beats_elmore_for_rlc(self):
        circuit, out = rlc_line()
        expansion = compute_moments(circuit)
        two_pole = expansion.two_pole_delay(out)

        sim, sim_out = rlc_line()
        sim.elements[0].waveform = PulseSource(0, 1, rise=1e-13, width=1.0)
        [result] = transient_analysis([sim], t_stop=10e-9, dt=1e-12)
        reference = result.voltage(sim_out).threshold_crossing(0.5)

        elmore = expansion.elmore_delay(out)
        assert abs(two_pole - reference) < abs(elmore - reference)

    def test_zero_dc_response_rejected(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 0.0)   # zero source
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_capacitor("C1", "b", "0", 1e-12)
        expansion = compute_moments(circuit)
        with pytest.raises(SolverError):
            expansion.elmore_delay("b")

    def test_two_pole_needs_order_two(self):
        expansion = compute_moments(rc_ladder(), order=1)
        with pytest.raises(SolverError):
            expansion.two_pole_delay("n3")
