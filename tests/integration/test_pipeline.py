"""End-to-end pipelines across subsystem boundaries."""

import numpy as np
import pytest

from repro import (
    ClockBuffer,
    CoplanarWaveguideConfig,
    HTree,
    TableBasedExtractor,
    significant_frequency,
    um,
)
from repro.clocktree.skew import compare_rc_vs_rlc, simulate_clocktree
from repro.constants import GHz, fF, ps
from repro.circuit.transient import transient_analysis


@pytest.fixture(scope="module")
def cpw_config():
    return CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )


@pytest.fixture(scope="module")
def characterized(cpw_config):
    return TableBasedExtractor.characterize(
        cpw_config, frequency=GHz(6.4),
        widths=[um(5), um(10), um(15)],
        lengths=[um(400), um(1000), um(2500)],
    )


class TestCharacterizeExtractSimulate:
    """The full paper flow: field solve -> tables -> netlist -> waveform."""

    def test_tables_to_skew(self, characterized):
        buffer = ClockBuffer(drive_resistance=15.0, input_capacitance=fF(30),
                             supply=1.8, rise_time=ps(50))
        htree = HTree.generate(
            levels=1, root_length=um(2000), config=characterized.config,
            buffer=buffer, sink_capacitance=fF(40),
            branch_scale={"s_L": 1.25},
        )
        extractor = characterized.as_clocktree_extractor()
        comparison = compare_rc_vs_rlc(
            extractor, htree, t_stop=ps(2000), dt=ps(0.5)
        )
        # asymmetric tree: skew exists, and RC mispredicts it
        assert comparison.rlc.skew > 0
        assert comparison.rlc.max_delay > comparison.rc.max_delay

    def test_persisted_tables_equivalent_flow(self, characterized, tmp_path,
                                              cpw_config):
        characterized.save(tmp_path)
        reloaded = TableBasedExtractor.load(tmp_path, cpw_config, GHz(6.4))
        a = characterized.as_clocktree_extractor().segment_rlc(um(1200))
        b = reloaded.as_clocktree_extractor().segment_rlc(um(1200))
        assert b.inductance == pytest.approx(a.inductance, rel=1e-12)
        assert b.resistance == pytest.approx(a.resistance, rel=1e-12)


class TestSignificantFrequencyConsistency:
    def test_buffer_and_rule_agree(self):
        buffer = ClockBuffer(rise_time=ps(100))
        assert buffer.significant_frequency == pytest.approx(
            significant_frequency(ps(100))
        )


class TestPhysicalCrossChecks:
    def test_loop_l_vs_circuit_ac(self, cpw_config):
        """PEEC loop inductance agrees with an AC solve of the same loop
        built as a lumped coupled-inductor circuit."""
        from repro.circuit.netlist import Circuit
        from repro.circuit.ac import input_impedance
        from repro.peec.solver import Conductor, PartialInductanceSolver

        block = cpw_config.trace_block(um(1000))
        conductors = [
            Conductor.from_bar(t.name, t.to_bar()) for t in block.traces
        ]
        solver = PartialInductanceSolver(conductors)
        lp = solver.conductor_lp_matrix()
        resistances = solver.filament_resistances()

        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 0.0, ac_magnitude=1.0)
        # signal: in -> far; grounds: 0 -> far (parallel return)
        nodes = {"GND_L": ("0", "far"), "SIG": ("in", "far"),
                 "GND_R": ("0", "far")}
        inductors = {}
        for i, trace in enumerate(block.traces):
            n1, n2 = nodes[trace.name]
            mid = f"m_{trace.name}"
            circuit.add_resistor(f"R_{trace.name}", n1, mid, resistances[i])
            inductors[trace.name] = circuit.add_inductor(
                f"L_{trace.name}", mid, n2, lp[i, i]
            )
        names = [t.name for t in block.traces]
        for i in range(3):
            for j in range(i + 1, 3):
                circuit.add_mutual(
                    f"K{i}{j}", f"L_{names[i]}", f"L_{names[j]}",
                    mutual=lp[i, j],
                )
        f = 1e6   # low frequency: uniform current, matches conductor Lp
        z = input_impedance(circuit, "V1", [f])[0]
        l_circuit = z.imag / (2 * np.pi * f)

        from repro.peec.loop import LoopProblem
        _, l_peec = LoopProblem(block, n_width=1, n_thickness=1).loop_rl(f)
        assert l_circuit == pytest.approx(l_peec, rel=1e-6)

    def test_cap_extraction_consistent_between_models(self, cpw_config):
        """FD field solver and closed forms agree on the CPW total cap
        within the closed forms' documented accuracy envelope."""
        from repro.rc.capacitance import block_capacitance_matrix
        from repro.rc.fieldsolver2d import FieldSolver2D

        block = cpw_config.trace_block(1.0)
        analytic = block_capacitance_matrix(
            block, cpw_config.capacitance_model()
        )[1, 1]
        solver = FieldSolver2D(cpw_config.cross_section(), nx=100, nz=70)
        matrix = solver.capacitance_matrix()
        fd = matrix[1, 1]
        assert analytic == pytest.approx(fd, rel=0.35)

    def test_transient_final_value_matches_dc(self, characterized):
        """Transient settles to the DC operating point."""
        extractor = characterized.as_clocktree_extractor()
        buffer = ClockBuffer(drive_resistance=20.0, supply=1.8,
                             rise_time=ps(50))
        htree = HTree.generate(levels=1, root_length=um(1000),
                               config=characterized.config, buffer=buffer)
        netlist = extractor.build_netlist(htree)
        [result] = transient_analysis([netlist.circuit], t_stop=ps(2000),
                                      dt=ps(1))
        for node in netlist.sink_nodes.values():
            assert result.voltage(node).final_value == pytest.approx(
                1.8, rel=0.02
            )
