"""The paper's Discussions section, quantified.

Two modeling choices the paper defends qualitatively:

1. "we assume each coupling capacitor to ground wire as a perfect
   grounded capacitor ... This assumption is optimistic.  Therefore, we
   think the over-estimate on the inductance can be compensated ..."
   -- here A/B-tested: the production single-signal model (loop R/L,
   all capacitance to ideal ground) against an explicit-shield netlist
   where the shields are real conductors with their own partial R/L and
   the coupling capacitors land on them.

2. "If there are parallel array of traces ... in layer N+2 or N-2, we
   currently ignore their inductive coupling to layer N traces assuming
   that they are statistically quiet."  -- here quantified: the loop L
   of the Fig. 1 CPW with and without a quiet parallel array two layers
   up.
"""

import numpy as np
from conftest import report, run_once

from repro.bus.extractor import BusRLCExtractor
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource
from repro.circuit.transient import transient_analysis
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor
from repro.constants import GHz, to_nH, to_ps, um
from repro.geometry.primitives import Point3D, RectBar
from repro.geometry.trace import TraceBlock
from repro.peec.loop import LoopProblem
from repro.peec.network import FilamentNetwork
from repro.rc.capacitance import CapacitanceModel

LENGTH = um(2000)
RS = 15.0
SUPPLY = 1.8
RISE = 50e-12
CL = 20e-15


def cpw_config():
    return CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )


def _drive_and_measure(circuit, in_node, out_node):
    circuit.add_voltage_source(
        "Vdrv", "src", "0", PulseSource(0, SUPPLY, rise=RISE, width=1.0)
    )
    circuit.add_resistor("Rdrv", "src", in_node, RS)
    circuit.add_capacitor("CL", out_node, "0", CL)
    [result] = transient_analysis([circuit], t_stop=1.5e-9, dt=0.5e-12)
    wave = result.voltage(out_node)
    return (
        wave.threshold_crossing(SUPPLY / 2.0),
        wave.overshoot(reference=SUPPLY),
    )


def test_ideal_ground_vs_explicit_shield_netlist(benchmark):
    def run():
        config = cpw_config()
        # A: the production model -- loop R/L, every capacitor to node 0
        extractor = ClocktreeRLCExtractor(config, frequency=GHz(6.4))
        rlc = extractor.segment_rlc(LENGTH)
        circuit_a = Circuit("ideal_ground")
        sections = 4
        node = "in"
        for k in range(sections):
            end = f"n{k + 1}"
            circuit_a.add_capacitor(f"Ca{k}", node, "0",
                                    rlc.capacitance / sections / 2)
            circuit_a.add_resistor(f"R{k}", node, f"m{k}",
                                   rlc.resistance / sections)
            circuit_a.add_inductor(f"L{k}", f"m{k}", end,
                                   rlc.inductance / sections)
            circuit_a.add_capacitor(f"Cb{k}", end, "0",
                                    rlc.capacitance / sections / 2)
            node = end
        delay_a, overshoot_a = _drive_and_measure(circuit_a, "in", node)

        # B: explicit shields -- the CPW as a 3-trace coupled bus where
        # the ground wires carry their own partial R/L and the coupling
        # capacitors terminate on them
        block = config.trace_block(LENGTH)
        bus_extractor = BusRLCExtractor(
            frequency=GHz(6.4),
            capacitance_model=config.capacitance_model(),
        )
        bus = bus_extractor.extract(block)
        netlist = bus_extractor.build_netlist(bus, sections=4)
        delay_b, overshoot_b = _drive_and_measure(
            netlist.circuit,
            netlist.input_nodes["SIG"],
            netlist.output_nodes["SIG"],
        )
        return (delay_a, overshoot_a), (delay_b, overshoot_b)

    (delay_a, ovs_a), (delay_b, ovs_b) = run_once(benchmark, run)
    report(
        "Ideal-ground caps + loop L vs explicit-shield partial-L netlist",
        header=("model", "50% delay [ps]", "overshoot"),
        rows=[
            ("loop model (paper flow)", f"{to_ps(delay_a):.2f}",
             f"{ovs_a * 100:.1f} %"),
            ("explicit shields (PEEC)", f"{to_ps(delay_b):.2f}",
             f"{ovs_b * 100:.1f} %"),
        ],
    )
    print(f"  delay difference: "
          f"{abs(delay_a - delay_b) / delay_b * 100:.1f} % -- the paper's "
          "compensation argument in numbers")

    # the paper's claim: the two approximations (optimistic grounded
    # caps, pessimistic loop L) roughly compensate -- the cheap model
    # tracks the explicit-shield reference closely
    assert abs(delay_a - delay_b) / delay_b < 0.25
    # both models agree the line rings with a strong driver
    assert ovs_a > 0.02 and ovs_b > 0.02


def test_quiet_layer_n2_array_ablation(benchmark):
    """How wrong is ignoring a quiet parallel array in layer N+2?"""

    def run():
        block = TraceBlock.coplanar_waveguide(
            signal_width=um(10), ground_width=um(5), spacing=um(1),
            length=LENGTH, thickness=um(2),
        )
        base_problem = LoopProblem(block, n_width=2, n_thickness=1)
        _, l_without = base_problem.loop_rl(GHz(3.2))

        # same CPW plus a quiet (open) 4-trace array 6 um above (N+2)
        network = FilamentNetwork(ground="ret")
        for trace in block.traces:
            node_a = "in" if trace.name == "SIG" else "ret"
            network.add_conductor(trace.name, trace.to_bar(), node_a, "far",
                                  n_width=2, n_thickness=1)
        for i in range(4):
            bar = RectBar(
                Point3D(0.0, um(2 + 6 * i), um(8)), LENGTH, um(3), um(1)
            )
            network.add_conductor(f"quiet{i}", bar, f"q{i}", "far")
        _, l_with = network.loop_rl("in", "ret", GHz(3.2))
        return l_without, l_with

    l_without, l_with = run_once(benchmark, run)
    error = abs(l_with - l_without) / l_without
    report(
        "Quiet parallel array in layer N+2: effect on CPW loop L",
        header=("model", "loop L [nH]"),
        rows=[
            ("array ignored (paper default)", f"{to_nH(l_without):.4f}"),
            ("array present but quiet", f"{to_nH(l_with):.4f}"),
        ],
    )
    print(f"  error of ignoring the quiet array: {error * 100:.2f} %")

    # quiet open traces carry no net current; their presence barely
    # moves the loop inductance -- the assumption the paper relies on
    assert error < 0.02
