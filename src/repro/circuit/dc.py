"""DC operating point."""

from __future__ import annotations

from typing import Dict, Union

from repro.circuit.backend import factorize, gmin_loaded
from repro.circuit.netlist import AssembledCircuit, Circuit
from repro.errors import SolverError
from repro.telemetry.registry import SINGULAR_SYSTEM, get_registry
from repro.telemetry.spans import span

#: Tiny conductance added from every node to ground so capacitor-isolated
#: nodes have a defined DC voltage (SPICE's gmin).
GMIN = 1e-12


def operating_point(
    circuit: Union[Circuit, AssembledCircuit],
    time: float = 0.0,
    gmin: float = GMIN,
) -> Dict[str, float]:
    """Solve the DC operating point with sources evaluated at *time*.

    Inductors are shorts (their branch equations enforce V = 0 at DC) and
    capacitors are opens.  Returns node voltages keyed by node name,
    including ground.
    """
    assembled = circuit.assemble() if isinstance(circuit, Circuit) else circuit
    with span("circuit.dc", size=assembled.size, time=time):
        loaded = gmin_loaded(
            assembled.stamps.g_csc(), assembled.num_nodes, gmin
        )
        b = assembled.stamps.source_vector(time)
        try:
            x = factorize(loaded).solve(b)
        except SolverError as exc:
            get_registry().inc(SINGULAR_SYSTEM)
            raise SolverError(f"singular DC system: {exc}") from exc
    voltages = {"0": 0.0}
    for node, idx in assembled.node_index.items():
        if idx >= 0:
            voltages[node] = float(x[idx])
    return voltages
