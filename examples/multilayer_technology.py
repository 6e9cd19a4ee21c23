#!/usr/bin/env python
"""Per-layer technology characterization and a two-layer H-tree.

The paper: "We assume that each layer has a nominal thickness, and
build tables for different layers."  This example builds a 6-metal
stackup, characterizes loop tables for the two thick top layers the
clock routes on, generates an H-tree that alternates M6 (horizontal)
and M5 (vertical) per level -- which is also why same-layer-only
inductive coupling is exact: orthogonal layers don't couple -- and
extracts/simulates the whole tree through the per-layer tables.

Run:  python examples/multilayer_technology.py
"""

from repro import ClockBuffer, CoplanarWaveguideConfig, HTree, um
from repro.clocktree.multilayer import MultiLayerClocktreeExtractor
from repro.clocktree.skew import simulate_clocktree
from repro.constants import GHz, fF, ps, to_nH, to_ps
from repro.core.technology import TechnologyTables
from repro.geometry.stackup import default_stackup


def config_for_layer(layer):
    """The clock routing rules, instantiated with the layer's metal."""
    return CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=layer.thickness, height_below=um(2),
        resistivity=layer.resistivity,
    )


def main() -> None:
    stackup = default_stackup(6)
    print("stackup:", ", ".join(
        f"{l.name}({l.thickness * 1e6:.1f}um)" for l in stackup
    ))

    technology = TechnologyTables.for_stackup(
        stackup, config_for_layer, frequency=GHz(6.4),
        widths=[um(5), um(10), um(15)],
        lengths=[um(500), um(1000), um(2000), um(4000)],
        layers=("M5", "M6"),
    )
    print(f"characterized layers: {technology.layer_names()}")
    for layer in technology.layer_names():
        l_val = technology.extractor_for(layer).loop_inductance(um(10), um(2000))
        print(f"  {layer}: loop L(10um, 2mm) = {to_nH(l_val):.4f} nH")

    buffer = ClockBuffer(drive_resistance=15.0, input_capacitance=fF(30),
                         supply=1.8, rise_time=ps(50))
    htree = HTree.generate(
        levels=2, root_length=um(3000),
        config=config_for_layer(stackup.layer("M6")),
        buffer=buffer, sink_capacitance=fF(50),
        layers_by_level=("M6", "M5"),
    )
    print()
    print("H-tree routing plan:")
    for segment in htree.segments:
        print(f"  {segment.name}: level {segment.level}, axis {segment.axis}, "
              f"layer {segment.layer}, {segment.length * 1e6:.0f} um")

    extractor = MultiLayerClocktreeExtractor(technology, default_layer="M6")
    netlist = extractor.build_netlist(htree)
    [result] = simulate_clocktree([netlist], supply=1.8,
                                  t_stop=ps(3000), dt=ps(0.5))
    print()
    for sink, delay in sorted(result.delays.items()):
        print(f"  {sink}: insertion delay {to_ps(delay):.2f} ps")
    print(f"  skew: {to_ps(result.skew):.2f} ps")


if __name__ == "__main__":
    main()
