"""Aggressor-victim crosstalk on extracted bus netlists.

The paper distinguishes the two coupling mechanisms: "the capacitive
effect is a short-range effect ... The inductive effect, however, is a
long-range effect."  This analysis drives one aggressor trace with a
fast edge, terminates the victims, and measures the induced noise --
with the option to disable the mutual-inductance elements so the two
mechanisms can be separated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.bus.extractor import BusRLC, BusRLCExtractor
from repro.circuit.sources import PulseSource
from repro.circuit.transient import transient_analysis
from repro.circuit.waveform import Waveform
from repro.errors import CircuitError


@dataclass
class CrosstalkResult:
    """Victim noise metrics for one aggressor switching event."""

    aggressor: str
    victim_noise_peak: Dict[str, float]
    victim_waveforms: Dict[str, Waveform] = field(repr=False, default_factory=dict)

    def noise_of(self, victim: str) -> float:
        """Peak |noise| at a victim's far end [V]."""
        try:
            return self.victim_noise_peak[victim]
        except KeyError:
            raise CircuitError(f"no victim named {victim!r}") from None

    @property
    def worst_victim(self) -> str:
        """The victim with the largest induced noise."""
        return max(self.victim_noise_peak, key=self.victim_noise_peak.get)


def crosstalk_analysis(
    extractor: BusRLCExtractor,
    bus: BusRLC,
    aggressor: str,
    drive_resistance: float = 25.0,
    termination: float = 50.0,
    load_capacitance: float = 20e-15,
    supply: float = 1.8,
    rise_time: float = 50e-12,
    sections: int = 3,
    include_inductance: bool = True,
    include_mutual: bool = True,
    t_stop: Optional[float] = None,
    dt: Optional[float] = None,
) -> CrosstalkResult:
    """Switch *aggressor* and measure far-end noise on every other signal.

    Victims are held quiet: terminated to ground through *termination*
    at the near end and loaded with *load_capacitance* at the far end.
    """
    netlist = extractor.build_netlist(
        bus, sections=sections,
        include_inductance=include_inductance,
        include_mutual=include_mutual,
    )
    if aggressor not in netlist.input_nodes:
        raise CircuitError(
            f"no signal trace named {aggressor!r}; "
            f"signals: {sorted(netlist.input_nodes)}"
        )
    circuit = netlist.circuit
    source = PulseSource(v1=0.0, v2=supply, delay=rise_time,
                         rise=rise_time, fall=rise_time, width=1.0)
    circuit.add_voltage_source("Vagg", "agg_src", "0", source)
    circuit.add_resistor("Ragg", "agg_src", netlist.input_nodes[aggressor],
                         drive_resistance)
    circuit.add_capacitor("Cagg_load", netlist.output_nodes[aggressor], "0",
                          load_capacitance)

    victims = [name for name in netlist.input_nodes if name != aggressor]
    for victim in victims:
        circuit.add_resistor(f"Rterm_{victim}", netlist.input_nodes[victim],
                             "0", termination)
        circuit.add_capacitor(f"Cload_{victim}", netlist.output_nodes[victim],
                              "0", load_capacitance)

    length = bus.block.length
    flight = float(np.sqrt(
        bus.inductance_matrix[0, 0] * bus.capacitance_matrix[0, 0]
    ))
    if t_stop is None:
        t_stop = max(20.0 * rise_time, 10.0 * flight)
    if dt is None:
        dt = min(rise_time / 50.0, t_stop / 2000.0)

    [result] = transient_analysis([circuit], t_stop=t_stop, dt=dt)
    peaks: Dict[str, float] = {}
    waveforms: Dict[str, Waveform] = {}
    for victim in victims:
        wave = result.voltage(netlist.output_nodes[victim])
        peaks[victim] = float(np.max(np.abs(wave.values)))
        waveforms[victim] = wave
    return CrosstalkResult(
        aggressor=aggressor,
        victim_noise_peak=peaks,
        victim_waveforms=waveforms,
    )


@dataclass
class SwitchingDelayResult:
    """Victim delay under the three classic switching patterns [s]."""

    quiet_delay: float
    in_phase_delay: float
    anti_phase_delay: float

    @property
    def pull_in(self) -> float:
        """Speed-up when neighbours switch with the victim [s]."""
        return self.quiet_delay - self.in_phase_delay

    @property
    def push_out(self) -> float:
        """Slow-down when neighbours switch against the victim [s]."""
        return self.anti_phase_delay - self.quiet_delay

    @property
    def delay_window(self) -> float:
        """Total switching-dependent delay uncertainty [s]."""
        return self.anti_phase_delay - self.in_phase_delay


def switching_delay_analysis(
    extractor: BusRLCExtractor,
    bus: BusRLC,
    victim: str,
    drive_resistance: float = 25.0,
    load_capacitance: float = 20e-15,
    supply: float = 1.8,
    rise_time: float = 50e-12,
    sections: int = 3,
    include_inductance: bool = True,
    include_mutual: bool = True,
    t_stop: Optional[float] = None,
    dt: Optional[float] = None,
) -> SwitchingDelayResult:
    """Victim delay with quiet / in-phase / anti-phase neighbours.

    The classic bus-timing experiment -- with a twist the inductance
    makes interesting.  Capacitively, in-phase neighbours *help* (the
    Miller charge vanishes) and anti-phase neighbours hurt.
    Inductively the signs flip: in-phase currents share return paths so
    every line sees L + M (slower), anti-phase sees L - M (faster).
    Which mechanism wins depends on the geometry; run with
    ``include_mutual=False`` to isolate the capacitive picture.

    All signal traces get identical drivers; the victim's 50 % crossing
    is measured for the three neighbour patterns.
    """
    netlist_template = extractor.build_netlist(
        bus, sections=sections,
        include_inductance=include_inductance,
        include_mutual=include_mutual,
    )
    if victim not in netlist_template.input_nodes:
        raise CircuitError(
            f"no signal trace named {victim!r}; "
            f"signals: {sorted(netlist_template.input_nodes)}"
        )

    flight = float(np.sqrt(
        bus.inductance_matrix[0, 0] * bus.capacitance_matrix[0, 0]
    ))
    if t_stop is None:
        t_stop = max(20.0 * rise_time, 10.0 * flight)
    if dt is None:
        dt = min(rise_time / 50.0, t_stop / 2000.0)

    def switching_deck(neighbour_mode: str):
        netlist = extractor.build_netlist(
            bus, sections=sections,
            include_inductance=include_inductance,
            include_mutual=include_mutual,
        )
        circuit = netlist.circuit
        rising = PulseSource(v1=0.0, v2=supply, delay=rise_time,
                             rise=rise_time, fall=rise_time, width=1.0)
        falling = PulseSource(v1=supply, v2=0.0, delay=rise_time,
                              rise=rise_time, fall=rise_time, width=1.0)
        for name, in_node in netlist.input_nodes.items():
            if name == victim:
                source = rising
            elif neighbour_mode == "quiet":
                source = 0.0
            elif neighbour_mode == "in_phase":
                source = rising
            else:
                source = falling
            circuit.add_voltage_source(f"V_{name}", f"src_{name}", "0", source)
            circuit.add_resistor(f"Rd_{name}", f"src_{name}", in_node,
                                 drive_resistance)
            circuit.add_capacitor(f"Cl_{name}", netlist.output_nodes[name],
                                  "0", load_capacitance)
        return circuit

    # The three switching patterns share the grid: one transient batch.
    modes = ("quiet", "in_phase", "anti_phase")
    results = transient_analysis([switching_deck(mode) for mode in modes],
                                 t_stop=t_stop, dt=dt)
    delays = []
    for result in results:
        wave = result.voltage(netlist_template.output_nodes[victim])
        crossing = wave.threshold_crossing(supply / 2.0)
        if crossing is None:
            raise CircuitError("victim never crosses 50 %; extend t_stop")
        delays.append(crossing)
    return SwitchingDelayResult(*delays)
