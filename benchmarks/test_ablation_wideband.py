"""Ablation: single-significant-frequency extraction vs a wideband model.

The paper extracts R and L once, at 0.32/t_r.  A fast edge actually
spans a band of frequencies where R rises and L falls; a passive
synthesized ladder (repro.peec.wideband) reproduces the whole band.
This ablation quantifies how much waveform the single-frequency
simplification gives up -- and shows it is small for clock-like edges,
which is why the paper's choice works.
"""

import numpy as np
from conftest import report, run_once

from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource
from repro.circuit.transient import transient_analysis
from repro.constants import GHz, to_nH, to_ps, um
from repro.core.frequency import significant_frequency
from repro.geometry.trace import TraceBlock
from repro.peec.loop import LoopProblem
from repro.peec.sweep import loop_frequency_sweep
from repro.peec.wideband import synthesize_ladder

RISE = 50e-12
SUPPLY = 1.8
C_LINE = 0.8e-12
C_LOAD = 30e-15
RS = 15.0


def build_and_run(stamp_series):
    """Simulate a driver -> series model -> C-loaded line."""
    circuit = Circuit()
    circuit.add_voltage_source(
        "V1", "src", "0", PulseSource(0, SUPPLY, rise=RISE, width=1.0)
    )
    circuit.add_resistor("Rs", "src", "a", RS)
    stamp_series(circuit, "a", "b")
    circuit.add_capacitor("Cline", "b", "0", C_LINE)
    circuit.add_capacitor("CL", "b", "0", C_LOAD)
    [result] = transient_analysis([circuit], t_stop=3e-9, dt=0.5e-12)
    wave = result.voltage("b")
    return (
        wave.threshold_crossing(SUPPLY / 2.0),
        wave.overshoot(reference=SUPPLY),
    )


def test_single_frequency_vs_wideband(benchmark):
    def run():
        block = TraceBlock.coplanar_waveguide(
            signal_width=um(10), ground_width=um(5), spacing=um(1),
            length=um(2000), thickness=um(2),
        )
        problem = LoopProblem(block, n_width=6, n_thickness=3, grading=1.5)
        sweep = loop_frequency_sweep(
            problem, np.logspace(7, np.log10(3e10), 10)
        )
        ladder = synthesize_ladder(sweep, n_branches=4)

        f_sig = significant_frequency(RISE)
        r_sig = sweep.resistance_at(f_sig)
        l_sig = sweep.inductance_at(f_sig)

        def stamp_single(circuit, a, b):
            circuit.add_resistor("Rseg", a, "mid_s", r_sig)
            circuit.add_inductor("Lseg", "mid_s", b, l_sig)

        def stamp_dc(circuit, a, b):
            circuit.add_resistor("Rseg", a, "mid_d", sweep.resistance[0])
            circuit.add_inductor("Lseg", "mid_d", b, sweep.inductance[0])

        def stamp_wide(circuit, a, b):
            ladder.stamp(circuit, a, b, prefix="wb")

        return {
            "wideband ladder": build_and_run(stamp_wide),
            "single f_sig": build_and_run(stamp_single),
            "single DC": build_and_run(stamp_dc),
        }, ladder.fit_error(sweep)

    results, fit_error = run_once(benchmark, run)
    reference_delay, reference_overshoot = results["wideband ladder"]
    report(
        f"Single-frequency vs wideband segment model (50 ps edge; "
        f"ladder fit error {fit_error * 100:.1f} %)",
        header=("model", "50% delay [ps]", "overshoot", "delay err"),
        rows=[
            (name, f"{to_ps(delay):.2f}", f"{ovs * 100:.1f} %",
             f"{abs(delay - reference_delay) / reference_delay * 100:.1f} %")
            for name, (delay, ovs) in results.items()
        ],
    )

    delay_sig, _ = results["single f_sig"]
    delay_dc, _ = results["single DC"]
    err_sig = abs(delay_sig - reference_delay) / reference_delay
    err_dc = abs(delay_dc - reference_delay) / reference_delay
    # the significant-frequency choice is a good one: its delay error vs
    # the full wideband model stays within a few percent ...
    assert err_sig < 0.05
    # ... and it is no worse than naive DC extraction
    assert err_sig <= err_dc + 0.01
