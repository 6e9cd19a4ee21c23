"""Transfer-function moments of MNA circuits (AWE-style analysis).

The interconnect-analysis toolbox of the paper's ref [1] (Lillis, Cheng,
Lin, Chang, *Interconnect Analysis and Synthesis*): expand every node
voltage as a power series in s around s = 0,

    x(s) = m0 + m1 s + m2 s^2 + ...,   (G + sC) x(s) = b,

giving the recursion ``G m0 = b`` and ``G m_k = -C m_{k-1}``.  The first
moment is the (generalized) Elmore delay; a two-pole Pade fit of
(m1, m2, m3) yields delay and damping estimates for RLC netlists that a
single RC moment cannot capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.circuit.backend import factorize, gmin_loaded
from repro.circuit.netlist import AssembledCircuit, Circuit
from repro.errors import CircuitError, SolverError


@dataclass
class MomentExpansion:
    """Power-series moments of every node voltage."""

    moments: np.ndarray           # shape (order + 1, n_unknowns)
    node_index: Dict[str, int]

    @property
    def order(self) -> int:
        """Highest computed moment order."""
        return self.moments.shape[0] - 1

    def node_moments(self, node: str) -> np.ndarray:
        """Moments m0..mk of one node voltage."""
        try:
            idx = self.node_index[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None
        if idx < 0:
            return np.zeros(self.moments.shape[0])
        return self.moments[:, idx]

    def elmore_delay(self, node: str) -> float:
        """First-moment (Elmore) delay estimate at *node* [s].

        ``-m1 / m0`` -- exact for monotone RC step responses, an upper
        bound elsewhere.
        """
        m = self.node_moments(node)
        if m[0] == 0.0:
            raise SolverError(f"node {node!r} has zero DC response")
        return -m[1] / m[0]

    def two_pole_delay(self, node: str, fraction: float = 0.5) -> float:
        """Two-pole Pade 50 % delay estimate at *node* [s].

        Fits ``H(s) ~ m0 / (1 + b1 s + b2 s^2)`` from the first three
        moments and evaluates the step-response threshold crossing in
        closed form; falls back to the Elmore value when the fit is not
        passive (b2 <= 0).
        """
        if self.order < 2:
            raise SolverError("two-pole estimate needs moments up to m2")
        m = self.node_moments(node)
        if m[0] == 0.0:
            raise SolverError(f"node {node!r} has zero DC response")
        # normalized transfer moments: H = m0 (1 + h1 s + h2 s^2 + ...)
        h1 = m[1] / m[0]
        h2 = m[2] / m[0]
        b1 = -h1
        b2 = h1 * h1 - h2
        if b2 <= 0.0:
            return self.elmore_delay(node)
        omega_n = 1.0 / math.sqrt(b2)
        zeta = b1 * omega_n / 2.0
        if zeta <= 0.0:
            return self.elmore_delay(node)
        # Ismail-Friedman-style closed-form 50 % crossing of the
        # normalized two-pole step response
        if fraction != 0.5:
            raise SolverError("closed form implemented for the 50 % point")
        return (math.exp(-2.9 * zeta ** 1.35) + 1.48 * zeta) / omega_n


def compute_moments(
    circuit: Union[Circuit, AssembledCircuit],
    order: int = 3,
    time: float = None,
) -> MomentExpansion:
    """Compute voltage moments m0..m_order for all nodes.

    Sources are evaluated at *time* (default 0) to form the DC excitation;
    for delay analysis drive the circuit with a unit step source.
    """
    if order < 1:
        raise CircuitError("order must be >= 1")
    assembled = circuit.assemble() if isinstance(circuit, Circuit) else circuit
    g, c = assembled.stamps.g_csc(), assembled.stamps.c_csc()
    loaded = gmin_loaded(g, assembled.num_nodes, 1e-12)  # gmin for floating caps
    b = assembled.stamps.source_vector(0.0 if time is None else time)

    try:
        lu = factorize(loaded)
    except SolverError as exc:
        raise SolverError(f"singular conductance matrix: {exc}") from exc

    moments = np.empty((order + 1, assembled.size))
    moments[0] = lu.solve(b)
    for k in range(1, order + 1):
        moments[k] = lu.solve(-(c @ moments[k - 1]))
    return MomentExpansion(moments=moments, node_index=dict(assembled.node_index))
