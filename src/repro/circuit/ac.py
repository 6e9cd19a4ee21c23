"""Small-signal AC analysis: solve (G + j omega C) x = b over a sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Union

import numpy as np
from scipy import sparse

from repro.circuit.backend import factorize
from repro.circuit.netlist import AssembledCircuit, Circuit
from repro.errors import CircuitError, SolverError


@dataclass
class ACResult:
    """Complex node voltages over a frequency sweep."""

    frequencies: np.ndarray
    node_voltages: Dict[str, np.ndarray]
    branch_currents: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        """Complex voltage phasors at *node* across the sweep."""
        try:
            return self.node_voltages[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def current(self, element: str) -> np.ndarray:
        """Complex branch current through a branch element."""
        try:
            return self.branch_currents[element]
        except KeyError:
            raise CircuitError(f"element {element!r} has no branch current") from None

    def magnitude_db(self, node: str) -> np.ndarray:
        """|V(node)| in dB."""
        return 20.0 * np.log10(np.abs(self.voltage(node)))


def ac_analysis(
    circuit: Union[Circuit, AssembledCircuit],
    frequencies: Sequence[float],
) -> ACResult:
    """Frequency sweep with the registered AC source magnitudes."""
    assembled = circuit.assemble() if isinstance(circuit, Circuit) else circuit
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise CircuitError("frequencies must be a non-empty 1-D sequence")
    if np.any(freqs < 0.0):
        raise CircuitError("frequencies must be non-negative")
    stamps = assembled.stamps
    b = stamps.ac_source_vector()
    if not np.any(b):
        raise CircuitError("no AC sources: set ac_magnitude on a source")

    # G + jC holds G in the real and C in the imaginary part of one
    # pattern, so each frequency only rescales values (no sparse add).
    pattern = (stamps.g_csc() + 1j * stamps.c_csc()).tocsc()
    g, c = pattern.data.real, pattern.data.imag
    solutions = np.empty((freqs.size, assembled.size), dtype=complex)
    for k, f in enumerate(freqs):
        omega = 2.0 * np.pi * f
        system = sparse.csc_matrix(
            (g + 1j * omega * c, pattern.indices, pattern.indptr),
            shape=pattern.shape,
        )
        try:
            solutions[k] = factorize(system).solve(b)
        except SolverError as exc:
            raise SolverError(f"singular AC system at {f} Hz: {exc}") from exc

    node_voltages = {"0": np.zeros(freqs.size, dtype=complex)}
    for node, idx in assembled.node_index.items():
        if idx >= 0:
            node_voltages[node] = solutions[:, idx]
    branch_currents = {
        name: solutions[:, assembled.num_nodes + i]
        for i, name in enumerate(assembled.branch_names)
    }
    return ACResult(
        frequencies=freqs,
        node_voltages=node_voltages,
        branch_currents=branch_currents,
    )


def input_impedance(
    circuit: Union[Circuit, AssembledCircuit],
    source_name: str,
    frequencies: Sequence[float],
) -> np.ndarray:
    """Impedance seen by a unit-AC voltage source: Z = V_ac / I(source).

    The source current flows through the source from + to -, so the
    impedance presented by the rest of the circuit is ``-V/I``.
    """
    assembled = circuit.assemble() if isinstance(circuit, Circuit) else circuit
    result = ac_analysis(assembled, frequencies)
    source = assembled.circuit.element(source_name)
    current = result.current(source_name)
    if np.any(current == 0.0):
        raise SolverError("source current is zero; impedance undefined")
    return -source.ac_magnitude / current
