"""Transient analysis against closed-form responses."""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource, SineSource
from repro.circuit.transient import transient_analysis
from repro.errors import CircuitError


def rc_step(r=1e3, c=1e-12):
    circuit = Circuit()
    circuit.add_voltage_source(
        "V1", "in", "0", PulseSource(0.0, 1.0, rise=1e-13, width=1.0)
    )
    circuit.add_resistor("R1", "in", "out", r)
    circuit.add_capacitor("C1", "out", "0", c)
    return circuit


def series_rlc(r=10.0, l=2e-9, c=1e-12):
    circuit = Circuit()
    circuit.add_voltage_source(
        "V1", "in", "0", PulseSource(0.0, 1.0, rise=1e-13, width=1.0)
    )
    circuit.add_resistor("R1", "in", "m", r)
    circuit.add_inductor("L1", "m", "out", l)
    circuit.add_capacitor("C1", "out", "0", c)
    return circuit


class TestRCStep:
    def test_time_constant(self):
        [result] = transient_analysis([rc_step()], t_stop=5e-9, dt=1e-12)
        wave = result.voltage("out")
        t63 = wave.threshold_crossing(1.0 - np.exp(-1.0))
        assert t63 == pytest.approx(1e-9, rel=0.01)

    def test_final_value(self):
        [result] = transient_analysis([rc_step()], t_stop=10e-9, dt=2e-12)
        assert result.voltage("out").final_value == pytest.approx(1.0, abs=1e-4)

    def test_monotone_rise(self):
        [result] = transient_analysis([rc_step()], t_stop=5e-9, dt=1e-12)
        values = result.voltage("out").values
        assert np.all(np.diff(values) >= -1e-12)

    def test_backward_euler_close_to_trapezoidal(self):
        [trap] = transient_analysis([rc_step()], 5e-9, 1e-12)
        [be] = transient_analysis([rc_step()], 5e-9, 1e-12,
                                  method="backward_euler")
        v_trap = trap.voltage("out").at(2e-9)
        v_be = be.voltage("out").at(2e-9)
        assert v_be == pytest.approx(v_trap, rel=0.01)


class TestSeriesRLC:
    def test_underdamped_overshoot_matches_theory(self):
        r, l, c = 10.0, 2e-9, 1e-12
        [result] = transient_analysis([series_rlc(r, l, c)], 2e-9, 0.2e-12)
        zeta = r / 2.0 * np.sqrt(c / l)
        expected = np.exp(-np.pi * zeta / np.sqrt(1 - zeta ** 2))
        overshoot = result.voltage("out").overshoot(reference=1.0)
        assert overshoot == pytest.approx(expected, rel=0.01)

    def test_ring_frequency(self):
        r, l, c = 2.0, 2e-9, 1e-12
        [result] = transient_analysis([series_rlc(r, l, c)], 3e-9, 0.1e-12)
        wave = result.voltage("out")
        # consecutive *rising* crossings of the settled value are one
        # damped period apart
        t1 = wave.threshold_crossing(1.0, occurrence=1)
        t2 = wave.threshold_crossing(1.0, occurrence=2)
        f_damped = 1.0 / (t2 - t1)
        omega0 = 1.0 / np.sqrt(l * c)
        zeta = r / 2.0 * np.sqrt(c / l)
        expected = omega0 * np.sqrt(1 - zeta ** 2) / (2 * np.pi)
        assert f_damped == pytest.approx(expected, rel=0.02)

    def test_overdamped_no_overshoot(self):
        [result] = transient_analysis([series_rlc(r=200.0)], 10e-9, 2e-12)
        assert result.voltage("out").overshoot(reference=1.0) < 1e-3

    def test_inductor_current_settles_to_zero(self):
        [result] = transient_analysis([series_rlc()], 50e-9, 10e-12)
        assert result.current("L1").final_value == pytest.approx(0.0, abs=1e-6)


class TestCoupledInductors:
    def test_transformer_induces_secondary_voltage(self):
        circuit = Circuit()
        circuit.add_voltage_source(
            "V1", "a", "0", SineSource(amplitude=1.0, frequency=1e9)
        )
        circuit.add_inductor("L1", "a", "0", 1e-9)
        circuit.add_inductor("L2", "b", "0", 1e-9)
        circuit.add_resistor("RL", "b", "0", 50.0)
        circuit.add_mutual("K1", "L1", "L2", coupling=0.8)
        [result] = transient_analysis([circuit], 5e-9, 1e-12)
        secondary = result.voltage("b").values
        assert np.max(np.abs(secondary)) > 0.3   # significant coupling

    def test_zero_coupling_no_transfer(self):
        circuit = Circuit()
        circuit.add_voltage_source(
            "V1", "a", "0", SineSource(amplitude=1.0, frequency=1e9)
        )
        circuit.add_inductor("L1", "a", "0", 1e-9)
        circuit.add_inductor("L2", "b", "0", 1e-9)
        circuit.add_resistor("RL", "b", "0", 50.0)
        circuit.add_mutual("K1", "L1", "L2", coupling=1e-6)
        [result] = transient_analysis([circuit], 3e-9, 1e-12)
        assert np.max(np.abs(result.voltage("b").values)) < 1e-5


class TestEnergyAndPassivity:
    def test_passive_network_bounded_response(self):
        # a passive RLC ladder driven by a bounded source stays bounded
        circuit = Circuit()
        circuit.add_voltage_source("V1", "n0", "0", PulseSource(0, 1, rise=1e-12))
        for k in range(5):
            circuit.add_resistor(f"R{k}", f"n{k}", f"m{k}", 1.0)
            circuit.add_inductor(f"L{k}", f"m{k}", f"n{k + 1}", 0.5e-9)
            circuit.add_capacitor(f"C{k}", f"n{k + 1}", "0", 0.2e-12)
        [result] = transient_analysis([circuit], 20e-9, 5e-12)
        for k in range(1, 6):
            values = result.voltage(f"n{k}").values
            assert np.max(np.abs(values)) < 3.0


class TestDCInitialization:
    def test_starts_from_operating_point(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)   # DC source
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12)
        [result] = transient_analysis([circuit], 1e-9, 1e-12)
        # already settled: no transient at all
        assert result.voltage("out").values[0] == pytest.approx(1.0, abs=1e-6)
        assert result.voltage("out").final_value == pytest.approx(1.0, abs=1e-6)

    def test_zero_start_with_initial_conditions(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 0.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12, initial_voltage=0.5)
        [result] = transient_analysis([circuit], 12e-9, 1e-12, initial="zero")
        assert result.voltage("out").values[0] == pytest.approx(0.5, abs=1e-9)
        # discharges through R1 (tau = 1 ns)
        assert result.voltage("out").final_value == pytest.approx(0.0, abs=1e-3)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"t_stop": 0.0, "dt": 1e-12},
        {"t_stop": 1e-9, "dt": 0.0},
        {"t_stop": 1e-9, "dt": 2e-9},
        {"t_stop": 1e-9, "dt": 1e-12, "method": "magic"},
        {"t_stop": 1e-9, "dt": 1e-12, "initial": "hot"},
    ])
    def test_bad_arguments(self, kwargs):
        with pytest.raises(CircuitError):
            transient_analysis([rc_step()], **kwargs)

    def test_unknown_probe_rejected(self):
        [result] = transient_analysis([rc_step()], 1e-9, 1e-12)
        with pytest.raises(CircuitError):
            result.voltage("nope")
        with pytest.raises(CircuitError):
            result.current("R1")
