"""Wideband ladder synthesis against swept loop impedances."""

import numpy as np
import pytest

from repro.constants import GHz, um
from repro.errors import SolverError
from repro.geometry.trace import TraceBlock
from repro.peec.loop import LoopProblem
from repro.peec.sweep import RLFrequencySweep, loop_frequency_sweep
from repro.peec.wideband import WidebandLadder, synthesize_ladder


@pytest.fixture(scope="module")
def sweep():
    block = TraceBlock.coplanar_waveguide(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        length=um(2000), thickness=um(2),
    )
    problem = LoopProblem(block, n_width=6, n_thickness=3, grading=1.5)
    freqs = np.logspace(7, np.log10(3e10), 10)
    return loop_frequency_sweep(problem, freqs)


@pytest.fixture(scope="module")
def ladder(sweep):
    return synthesize_ladder(sweep, n_branches=4)


class TestSynthesis:
    def test_fit_quality(self, sweep, ladder):
        # the ladder tracks the swept impedance within a few percent
        assert ladder.fit_error(sweep) < 0.05

    def test_resistance_rises_with_frequency(self, ladder):
        r_lo = ladder.resistance(1e7)
        r_hi = ladder.resistance(3e10)
        assert r_hi > 1.5 * r_lo

    def test_inductance_falls_with_frequency(self, ladder):
        l_lo = ladder.inductance(1e7)
        l_hi = ladder.inductance(3e10)
        assert l_hi < l_lo

    def test_matches_sweep_endpoints(self, sweep, ladder):
        assert ladder.resistance(sweep.frequencies[0]) == pytest.approx(
            sweep.resistance[0], rel=0.1
        )
        assert ladder.inductance(sweep.frequencies[-1]) == pytest.approx(
            sweep.inductance[-1], rel=0.05
        )

    def test_passive_by_construction(self, ladder):
        assert ladder.r_dc >= 0
        assert ladder.l_inf >= 0
        assert all(r > 0 and l > 0 for r, l in ladder.branches)

    def test_too_few_points_rejected(self):
        tiny = RLFrequencySweep(
            frequencies=np.array([1e8, 1e9, 1e10]),
            resistance=np.array([1.0, 1.2, 2.0]),
            inductance=np.array([1e-9, 0.9e-9, 0.7e-9]),
        )
        with pytest.raises(SolverError):
            synthesize_ladder(tiny, n_branches=4)


class TestLadderAlgebra:
    def test_low_frequency_inductance_sum(self):
        ladder = WidebandLadder(r_dc=1.0, l_inf=0.5e-9,
                                branches=[(10.0, 0.2e-9), (100.0, 0.1e-9)])
        assert ladder.total_low_frequency_inductance == pytest.approx(0.8e-9)

    def test_high_frequency_resistance_sum(self):
        ladder = WidebandLadder(r_dc=1.0, l_inf=0.5e-9,
                                branches=[(10.0, 0.2e-9)])
        assert ladder.high_frequency_resistance == pytest.approx(11.0)
        assert ladder.resistance(1e14) == pytest.approx(11.0, rel=1e-3)


class TestCircuitIntegration:
    def test_stamped_ladder_matches_model(self, ladder):
        from repro.circuit.ac import input_impedance
        from repro.circuit.netlist import Circuit

        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 0.0, ac_magnitude=1.0)
        ladder.stamp(circuit, "in", "mid", prefix="wb")
        circuit.add_resistor("Rterm", "mid", "0", 1e-3)
        freqs = np.array([1e8, 1e9, 1e10])
        z = input_impedance(circuit, "V1", freqs)
        expected = ladder.impedance(freqs) + 1e-3
        assert np.allclose(z, expected, rtol=1e-6)

    def test_transient_with_wideband_segment(self, ladder):
        """A wideband-modeled line settles correctly and runs stably."""
        from repro.circuit.netlist import Circuit
        from repro.circuit.sources import PulseSource
        from repro.circuit.transient import transient_analysis

        circuit = Circuit()
        circuit.add_voltage_source(
            "V1", "src", "0", PulseSource(0, 1.8, rise=5e-11, width=1.0)
        )
        circuit.add_resistor("Rs", "src", "a", 15.0)
        ladder.stamp(circuit, "a", "b", prefix="seg")
        circuit.add_capacitor("Cline", "b", "0", 0.8e-12)
        circuit.add_capacitor("CL", "b", "0", 30e-15)
        [result] = transient_analysis([circuit], t_stop=3e-9, dt=1e-12)
        wave = result.voltage("b")
        assert wave.final_value == pytest.approx(1.8, rel=0.02)
        assert np.max(np.abs(wave.values)) < 3.0
