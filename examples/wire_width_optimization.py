#!/usr/bin/env python
"""Clocktree wire-width optimization on extraction tables.

The point of the table methodology is that extraction becomes cheap
enough to sit inside an optimization loop ("clocktree RLC extraction
and optimization", the paper's abstract).  This example characterizes a
CPW family once, then sweeps candidate clock wire widths, estimating
the root-to-sink delay per candidate with the Ismail-Friedman RLC
closed form fed from table lookups -- thousands of candidates per
second instead of one field solve each.  The chosen width is then
validated with a full transient simulation and the netlist is exported
as a SPICE deck.

Run:  python examples/wire_width_optimization.py
"""

import tempfile
import time
from pathlib import Path

from repro import ClockBuffer, CoplanarWaveguideConfig, HTree, um
from repro.circuit.spice_export import write_spice
from repro.clocktree.optimize import WidthOptimizer
from repro.clocktree.skew import simulate_clocktree
from repro.constants import GHz, fF, ps, to_ps
from repro.core.extraction import TableBasedExtractor


def main() -> None:
    config = CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )
    buffer = ClockBuffer(drive_resistance=25.0, input_capacitance=fF(30),
                         supply=1.8, rise_time=ps(50))
    htree = HTree.generate(levels=2, root_length=um(3000), config=config,
                           buffer=buffer, sink_capacitance=fF(50))

    print("characterizing the width/length space once ...")
    t0 = time.perf_counter()
    tables = TableBasedExtractor.characterize(
        config, frequency=GHz(6.4),
        widths=[um(2), um(5), um(9), um(14), um(20)],
        lengths=[um(400), um(800), um(1600), um(3200)],
    )
    print(f"  {time.perf_counter() - t0:.1f} s for 20 field solves")

    optimizer = WidthOptimizer(tables)
    t0 = time.perf_counter()
    result = optimizer.optimize(htree)
    sweep_time = time.perf_counter() - t0
    print(f"  swept {len(result.candidates)} widths in "
          f"{sweep_time * 1e3:.1f} ms (table lookups + closed forms)")

    print()
    print(f"  {'width [um]':>11} {'path delay [ps]':>16} {'rings?':>7}")
    for cand in result.candidates:
        marker = " <-- best" if cand is result.best else ""
        print(f"  {cand.width * 1e6:11.1f} {to_ps(cand.path_delay):16.2f} "
              f"{'yes' if cand.rings else 'no':>7}{marker}")

    # validate the chosen width with a full transient simulation
    best_width = result.best.width
    extractor = tables.as_clocktree_extractor()
    sized = HTree.generate(
        levels=2, root_length=um(3000),
        config=config.with_signal_width(best_width),
        buffer=buffer, sink_capacitance=fF(50),
    )
    netlist = extractor.build_netlist(sized)
    [sim] = simulate_clocktree([netlist], supply=1.8, t_stop=ps(3000),
                               dt=ps(0.5))
    print()
    print(f"chosen width {best_width * 1e6:.1f} um: analytic "
          f"{to_ps(result.best.path_delay):.1f} ps vs simulated max delay "
          f"{to_ps(sim.max_delay):.1f} ps")

    with tempfile.TemporaryDirectory() as tmp:
        deck = write_spice(netlist.circuit, Path(tmp) / "clocktree.sp",
                           title="optimized clocktree",
                           analyses=("tran 0.5p 3n",))
        n_lines = deck.read_text().count("\n")
        print(f"exported SPICE deck ({n_lines} cards) for external "
              "cross-validation")


if __name__ == "__main__":
    main()
