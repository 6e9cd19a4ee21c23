"""DC operating point."""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.circuit.backend import factorize, gmin_loaded
from repro.circuit.netlist import AssembledCircuit, Circuit
from repro.errors import SolverError
from repro.telemetry.registry import SINGULAR_SYSTEM, get_registry
from repro.telemetry.spans import span

#: Tiny conductance added from every node to ground so capacitor-isolated
#: nodes have a defined DC voltage (SPICE's gmin).
GMIN = 1e-12


def solve_dc(
    assembled: AssembledCircuit,
    g=None,
    time: float = 0.0,
    gmin: float = GMIN,
) -> Tuple[Optional[np.ndarray], object, np.ndarray]:
    """Factor and solve the gmin-loaded DC system ``(G + gmin) x = b(time)``.

    *g* is the deck's stamped ``G`` when the caller already holds it.
    Returns ``(x, loaded_g, b)``; *x* is ``None`` when the loaded matrix
    is singular, so each caller picks its own recovery.
    """
    if g is None:
        g = assembled.stamps.g_csc()
    loaded = gmin_loaded(g, assembled.num_nodes, gmin)
    b = assembled.stamps.source_vector(time)
    try:
        return factorize(loaded).solve(b), loaded, b
    except SolverError:
        return None, loaded, b


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
        x, _, _ = solve_dc(assembled, time=time, gmin=gmin)
    if x is None:
        get_registry().inc(SINGULAR_SYSTEM)
        raise SolverError("singular DC system matrix")
    voltages = {"0": 0.0}
    for node, idx in assembled.node_index.items():
        if idx >= 0:
            voltages[node] = float(x[idx])
    return voltages
