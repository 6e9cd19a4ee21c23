"""Figs. 1-3: the motivating CPW clock-net delay experiment.

The paper's Fig. 1 structure: a 6000 um co-planar waveguide, 10 um
signal, 5 um grounds, 1 um spacing, 2 um thick metal, driven by a clock
buffer with ~40 ohm source resistance, an orthogonal signal layer below.
Simulated without inductance (RC netlist) the buffer-to-sink delay is
28.01 ps; with inductance 47.6 ps, with visible overshoot/undershoot
(Figs. 2 and 3).  This experiment extracts both netlists with the repro
flow and measures the same quantities.

Calibration note: faithfully extracting the stated geometry gives
C ~ 2.4 pF (the 1 um gaps to the 5 um shields couple hard) and loop
L ~ 1.7 nH, i.e. Z0 ~ 27 ohm.  A 40 ohm driver overdamps such a line,
so the paper's waveform shapes imply an effectively lighter-loaded /
stronger-driven net.  The defaults here use the strong-driver regime
the paper's introduction motivates ("large driver and therefore smaller
source impedance"): Rs = 15 ohm, t_r = 50 ps, which reproduces the
paper's shape -- RLC delay ~ 50 ps (paper: 47.6 ps), several times the
RC delay, with clear overshoot and undershoot.  Sweep
``drive_resistance`` to see the effect switch off as Rs crosses Z0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.circuit.diagnostics import TransientDiagnostics
from repro.circuit.lint import NetlistHealthReport, lint_circuit
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource
from repro.circuit.transient import transient_analysis
from repro.circuit.waveform import Waveform
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor, SegmentRLC
from repro.constants import fF, ps, um
from repro.core.frequency import significant_frequency


@dataclass
class Fig1Result:
    """Delays and waveform metrics of the Fig. 1 experiment."""

    rlc: SegmentRLC
    delay_rc: float
    delay_rlc: float
    overshoot_rlc: float
    undershoot_rlc: float
    overshoot_rc: float
    driver_wave_rc: Waveform
    sink_wave_rc: Waveform
    driver_wave_rlc: Waveform
    sink_wave_rlc: Waveform
    #: Per-netlist transient diagnostics + health lint (PR 5).
    diagnostics_rc: Optional[TransientDiagnostics] = None
    diagnostics_rlc: Optional[TransientDiagnostics] = None
    health_rc: Optional[NetlistHealthReport] = None
    health_rlc: Optional[NetlistHealthReport] = None

    @property
    def delay_ratio(self) -> float:
        """RLC delay over RC delay (the paper's is 47.6 / 28.01 = 1.70)."""
        return self.delay_rlc / self.delay_rc

    def simulation_reports(self) -> Dict[str, Any]:
        """Per-netlist diagnostics/health dicts for RunReport v3."""
        sections: Dict[str, Any] = {}
        for label, diag, health in (
            ("rc", self.diagnostics_rc, self.health_rc),
            ("rlc", self.diagnostics_rlc, self.health_rlc),
        ):
            section: Dict[str, Any] = {}
            if diag is not None:
                section["diagnostics"] = diag.to_dict()
            if health is not None:
                section["netlist_health"] = health.to_dict()
            if section:
                sections[label] = section
        return sections


def _single_net_circuit(
    rlc: SegmentRLC,
    drive_resistance: float,
    supply: float,
    rise_time: float,
    sink_capacitance: float,
    sections: int,
    include_inductance: bool,
) -> Circuit:
    """Driver -> guarded-line ladder -> sink load."""
    circuit = Circuit("fig1_rlc" if include_inductance else "fig1_rc")
    source = PulseSource(
        v1=0.0, v2=supply, delay=rise_time, rise=rise_time,
        fall=rise_time, width=1.0,
    )
    circuit.add_voltage_source("Vclk", "src", "0", source)
    circuit.add_resistor("Rdrv", "src", "drv", drive_resistance)
    node = "drv"
    r_per = rlc.resistance / sections
    l_per = rlc.inductance / sections
    c_half = rlc.capacitance / (2.0 * sections)
    for k in range(sections):
        end = f"n{k + 1}"
        circuit.add_capacitor(f"C{k}a", node, "0", c_half)
        if include_inductance:
            mid = f"m{k + 1}"
            circuit.add_resistor(f"R{k}", node, mid, r_per)
            circuit.add_inductor(f"L{k}", mid, end, l_per)
        else:
            circuit.add_resistor(f"R{k}", node, end, r_per)
        circuit.add_capacitor(f"C{k}b", end, "0", c_half)
        node = end
    circuit.add_capacitor("Csink", node, "0", sink_capacitance)
    return circuit


def run_fig1(
    length: float = um(6000),
    signal_width: float = um(10),
    ground_width: float = um(5),
    spacing: float = um(1),
    thickness: float = um(2),
    height_below: float = um(2),
    drive_resistance: float = 15.0,
    supply: float = 1.8,
    rise_time: float = ps(50),
    sink_capacitance: float = fF(20),
    sections: int = 10,
    extractor: Optional[ClocktreeRLCExtractor] = None,
    t_stop: float = ps(1500),
    dt: float = ps(0.25),
    library=None,
) -> Fig1Result:
    """Extract and simulate the Fig. 1 net with and without inductance.

    *library* optionally names a characterization library (path or
    :class:`~repro.library.store.TableLibrary`); when its tables cover
    this structure family the extraction is pure lookups.
    """
    config = CoplanarWaveguideConfig(
        signal_width=signal_width,
        ground_width=ground_width,
        spacing=spacing,
        thickness=thickness,
        height_below=height_below,
    )
    if extractor is None:
        extractor = ClocktreeRLCExtractor(
            config, frequency=significant_frequency(rise_time),
            library=library,
        )
    rlc = extractor.segment_rlc(length, signal_width=signal_width)

    circuits = {
        include_l: _single_net_circuit(
            rlc, drive_resistance, supply, rise_time,
            sink_capacitance, sections, include_l,
        )
        for include_l in (False, True)
    }
    health = {key: lint_circuit(circuit) for key, circuit in circuits.items()}
    # The RC and RLC nets share the grid: one transient batch.
    results = dict(zip(circuits, transient_analysis(
        list(circuits.values()), t_stop=t_stop, dt=dt,
    )))
    sink_node = f"n{sections}"
    diagnostics = {key: result.diagnostics for key, result in results.items()}
    waves = {key: (result.voltage("drv"), result.voltage(sink_node))
             for key, result in results.items()}

    threshold = 0.5 * supply
    delays = {}
    for include_l, (drv, sink) in waves.items():
        t_drv = drv.threshold_crossing(threshold)
        t_sink = sink.threshold_crossing(threshold)
        if t_drv is None or t_sink is None:
            raise RuntimeError("waveforms never cross threshold; extend t_stop")
        delays[include_l] = t_sink - t_drv

    sink_rc = waves[False][1]
    sink_rlc = waves[True][1]
    return Fig1Result(
        rlc=rlc,
        delay_rc=delays[False],
        delay_rlc=delays[True],
        overshoot_rlc=sink_rlc.overshoot(reference=supply),
        undershoot_rlc=sink_rlc.undershoot(reference=supply),
        overshoot_rc=sink_rc.overshoot(reference=supply),
        driver_wave_rc=waves[False][0],
        sink_wave_rc=sink_rc,
        driver_wave_rlc=waves[True][0],
        sink_wave_rlc=sink_rlc,
        diagnostics_rc=diagnostics[False],
        diagnostics_rlc=diagnostics[True],
        health_rc=health[False],
        health_rlc=health[True],
    )
