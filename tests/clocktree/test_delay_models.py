"""Analytic delay models against transient simulation."""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource
from repro.circuit.transient import transient_analysis
from repro.clocktree.delay_models import (
    damping_factor,
    elmore_delay,
    rlc_delay,
)
from repro.errors import CircuitError


def simulated_step_delay(r, l, c, rs, cl, include_l=True):
    """Reference 50 % delay of a 5-section ladder driven by a step."""
    circuit = Circuit()
    circuit.add_voltage_source(
        "V1", "src", "0", PulseSource(0, 1.0, rise=1e-13, width=1.0)
    )
    circuit.add_resistor("Rs", "src", "n0", rs)
    sections = 5
    for k in range(sections):
        circuit.add_capacitor(f"Ca{k}", f"n{k}", "0", c / sections / 2)
        if include_l:
            circuit.add_resistor(f"R{k}", f"n{k}", f"m{k}", r / sections)
            circuit.add_inductor(f"L{k}", f"m{k}", f"n{k + 1}", l / sections)
        else:
            circuit.add_resistor(f"R{k}", f"n{k}", f"n{k + 1}", r / sections)
        circuit.add_capacitor(f"Cb{k}", f"n{k + 1}", "0", c / sections / 2)
    circuit.add_capacitor("CL", f"n{sections}", "0", cl)
    flight = np.sqrt(max(l, 1e-12) * (c + cl))
    t_stop = max(40 * (rs + r) * (c + cl), 20 * flight)
    [result] = transient_analysis([circuit], t_stop=t_stop, dt=t_stop / 8000)
    crossing = result.voltage(f"n{sections}").threshold_crossing(0.5)
    assert crossing is not None
    return crossing


class TestElmore:
    def test_matches_rc_simulation(self):
        r, c, rs, cl = 20.0, 2e-12, 40.0, 50e-15
        estimate = elmore_delay(r, c, rs, cl)
        reference = simulated_step_delay(r, 0.0, c, rs, cl, include_l=False)
        assert estimate == pytest.approx(reference, rel=0.15)

    def test_zero_when_no_parasitics(self):
        assert elmore_delay(0.0, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(CircuitError):
            elmore_delay(-1.0, 1e-12)


class TestDampingFactor:
    def test_overdamped_case(self):
        # big driver into small L: zeta >> 1
        zeta = damping_factor(10.0, 0.1e-9, 2e-12, drive_resistance=200.0)
        assert zeta > 3.0

    def test_underdamped_case(self):
        # strong driver into a high-Z0 line: zeta < 1
        zeta = damping_factor(5.0, 2e-9, 1e-12, drive_resistance=10.0)
        assert zeta < 1.0

    def test_rejects_nonpositive_inductance(self):
        with pytest.raises(CircuitError):
            damping_factor(1.0, 0.0, 1e-12)


class TestRLCDelay:
    def test_matches_underdamped_simulation(self):
        r, l, c, rs, cl = 10.0, 1.5e-9, 1.5e-12, 15.0, 20e-15
        estimate = rlc_delay(r, l, c, rs, cl)
        reference = simulated_step_delay(r, l, c, rs, cl)
        assert estimate == pytest.approx(reference, rel=0.25)

    def test_matches_overdamped_simulation(self):
        r, l, c, rs, cl = 20.0, 0.2e-9, 2e-12, 100.0, 50e-15
        estimate = rlc_delay(r, l, c, rs, cl)
        reference = simulated_step_delay(r, l, c, rs, cl)
        assert estimate == pytest.approx(reference, rel=0.25)

    def test_floors_at_flight_time(self):
        # nearly lossless line: delay ~ time of flight, not Elmore
        l, c = 2e-9, 2e-12
        flight = np.sqrt(l * c)
        estimate = rlc_delay(0.5, l, c, drive_resistance=1.0)
        assert 0.5 * flight < estimate < 3.0 * flight

    def test_reduces_to_elmore_without_inductance(self):
        assert rlc_delay(10.0, 0.0, 1e-12, 40.0) == pytest.approx(
            elmore_delay(10.0, 1e-12, 40.0)
        )

    def test_inductance_increases_delay_when_underdamped(self):
        rc_est = elmore_delay(10.0, 1.5e-12, 15.0, 20e-15)
        rlc_est = rlc_delay(10.0, 1.5e-9, 1.5e-12, 15.0, 20e-15)
        assert rlc_est > rc_est
