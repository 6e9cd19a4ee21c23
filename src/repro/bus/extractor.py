"""Coupled RLC extraction and netlist formulation for bus blocks.

The extraction path is precisely the paper's reduction: every self
partial inductance comes from a (width, length) lookup or the exact
1-trace closed form, every mutual from a (w1, w2, spacing, length)
lookup or the exact 2-trace closed form -- never from an n-trace solve.
The resulting netlist carries all traces (signals *and* shield/ground
traces) as coupled R-L ladders so the simulator chooses the return path,
exactly as Sec. II prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.constants import RHO_CU
from repro.errors import GeometryError, TableError
from repro.geometry.trace import TraceBlock
from repro.peec.hoer_love import bar_mutual_inductance, bar_self_inductance
from repro.rc.capacitance import CapacitanceModel, block_capacitance_matrix
from repro.rc.resistance import ac_resistance
from repro.tables.lookup import ExtractionTable


@dataclass
class BusRLC:
    """Extracted electrical model of an n-trace bus block."""

    block: TraceBlock
    resistances: np.ndarray
    inductance_matrix: np.ndarray
    capacitance_matrix: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.block)
        if self.resistances.shape != (n,):
            raise GeometryError("resistance vector shape mismatch")
        if self.inductance_matrix.shape != (n, n):
            raise GeometryError("inductance matrix shape mismatch")
        if self.capacitance_matrix.shape != (n, n):
            raise GeometryError("capacitance matrix shape mismatch")

    @property
    def names(self) -> List[str]:
        """Trace names in block order."""
        return [t.name for t in self.block.traces]

    def coupling_coefficient(self, i: int, j: int) -> float:
        """Inductive coupling coefficient k between traces i and j."""
        l = self.inductance_matrix
        return float(l[i, j] / np.sqrt(l[i, i] * l[j, j]))


@dataclass
class BusNetlist:
    """A formulated coupled bus circuit with its measurement points."""

    circuit: Circuit
    input_nodes: Dict[str, str]
    output_nodes: Dict[str, str]


class BusRLCExtractor:
    """Table-based coupled RLC extraction for bus blocks.

    Parameters
    ----------
    frequency:
        Significant frequency for the resistance skin correction.
    capacitance_model:
        Closed-form capacitance environment (height to the reference
        plane below, permittivity, neighbour range).
    self_table / mutual_table:
        Optional partial-inductance tables from
        :class:`~repro.library.jobs.PartialSelfInductanceJob` /
        :class:`~repro.library.jobs.PartialMutualInductanceJob`;
        without them the exact closed forms are evaluated directly
        (which *is* the 1-/2-trace numerical extraction).
    resistivity:
        Trace metal resistivity.
    """

    def __init__(
        self,
        frequency: float,
        capacitance_model: CapacitanceModel,
        self_table: Optional[ExtractionTable] = None,
        mutual_table: Optional[ExtractionTable] = None,
        cap_ground_table: Optional[ExtractionTable] = None,
        cap_coupling_table: Optional[ExtractionTable] = None,
        resistivity: float = RHO_CU,
    ):
        if frequency <= 0.0:
            raise GeometryError("frequency must be positive")
        if (cap_ground_table is None) != (cap_coupling_table is None):
            raise TableError(
                "provide both FD capacitance tables (ground + coupling) "
                "or neither"
            )
        self.frequency = frequency
        self.capacitance_model = capacitance_model
        self.self_table = self_table
        self.mutual_table = mutual_table
        self.cap_ground_table = cap_ground_table
        self.cap_coupling_table = cap_coupling_table
        self.resistivity = resistivity

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def _self_inductance(self, trace) -> float:
        if self.self_table is not None:
            return self.self_table.lookup(width=trace.width, length=trace.length)
        return bar_self_inductance(trace.to_bar())

    def _mutual_inductance(self, trace_a, trace_b) -> float:
        if self.mutual_table is not None:
            return self.mutual_table.lookup(
                width1=trace_a.width,
                width2=trace_b.width,
                spacing=trace_a.edge_to_edge_spacing(trace_b),
                length=trace_a.length,
            )
        return bar_mutual_inductance(trace_a.to_bar(), trace_b.to_bar())

    def extract(self, block: TraceBlock) -> BusRLC:
        """Extract R vector, partial-L matrix and Maxwell-C matrix."""
        n = len(block)
        resistances = np.array([
            ac_resistance(t.length, t.width, t.thickness,
                          self.frequency, self.resistivity)
            for t in block.traces
        ])
        inductance = np.zeros((n, n))
        for i, trace in enumerate(block.traces):
            inductance[i, i] = self._self_inductance(trace)
        for i in range(n):
            for j in range(i + 1, n):
                m = self._mutual_inductance(block.traces[i], block.traces[j])
                inductance[i, j] = m
                inductance[j, i] = m
        capacitance = self._capacitance_matrix(block)
        return BusRLC(
            block=block,
            resistances=resistances,
            inductance_matrix=inductance,
            capacitance_matrix=capacitance,
        )

    def _capacitance_matrix(self, block: TraceBlock) -> np.ndarray:
        """Maxwell C matrix: FD 3-trace tables when given, else closed forms."""
        if self.cap_ground_table is None:
            return block_capacitance_matrix(block, self.capacitance_model)
        n = len(block)
        matrix = np.zeros((n, n))
        traces = block.traces
        for i, trace in enumerate(traces):
            spacings = []
            if i > 0:
                spacings.append(block.spacing(i - 1))
            if i < n - 1:
                spacings.append(block.spacing(i))
            spacing = min(spacings) if spacings else trace.width
            matrix[i, i] += (
                self.cap_ground_table.lookup(width=trace.width, spacing=spacing)
                * trace.length
            )
        for i in range(n - 1):
            spacing = block.spacing(i)
            width = min(traces[i].width, traces[i + 1].width)
            coupling = (
                self.cap_coupling_table.lookup(width=width, spacing=spacing)
                * traces[i].length
            )
            matrix[i, i + 1] -= coupling
            matrix[i + 1, i] -= coupling
            matrix[i, i] += coupling
            matrix[i + 1, i + 1] += coupling
        return matrix

    # ------------------------------------------------------------------
    # netlist formulation
    # ------------------------------------------------------------------
    def build_netlist(
        self,
        bus: BusRLC,
        sections: int = 3,
        include_inductance: bool = True,
        include_mutual: bool = True,
    ) -> BusNetlist:
        """Formulate the coupled ladder netlist of a bus block.

        Every trace -- including AC-ground shields -- becomes an R-L
        ladder; shields tie to node 0 at both ends so the simulator can
        route return current through them (the PEEC convention).
        Matching sections of different traces couple through mutual
        inductances ``M_ij / sections``; capacitances split per section
        (ground portion to node 0, coupling portions between traces).
        """
        if sections < 1:
            raise GeometryError("sections must be >= 1")
        block = bus.block
        n = len(block)
        circuit = Circuit("bus")
        names = bus.names

        def node(i: int, k: int) -> str:
            trace = block.traces[i]
            if k == 0:
                return "0" if trace.is_ground else f"in_{names[i]}"
            if k == sections:
                return "0" if trace.is_ground else f"out_{names[i]}"
            return f"{names[i]}_n{k}"

        # ladders with per-section series R (+ L)
        inductor_names: Dict[Tuple[int, int], str] = {}
        for i in range(n):
            r_per = bus.resistances[i] / sections
            l_per = bus.inductance_matrix[i, i] / sections
            for k in range(sections):
                start, end = node(i, k), node(i, k + 1)
                if include_inductance:
                    mid = f"{names[i]}_m{k}"
                    circuit.add_resistor(f"R_{names[i]}_{k}", start, mid, r_per)
                    name = f"L_{names[i]}_{k}"
                    circuit.add_inductor(name, mid, end, l_per)
                    inductor_names[(i, k)] = name
                else:
                    circuit.add_resistor(f"R_{names[i]}_{k}", start, end, r_per)

        # mutual coupling between matching sections
        if include_inductance and include_mutual:
            for i in range(n):
                for j in range(i + 1, n):
                    m_per = bus.inductance_matrix[i, j] / sections
                    if m_per == 0.0:
                        continue
                    for k in range(sections):
                        circuit.add_mutual(
                            f"K_{names[i]}_{names[j]}_{k}",
                            inductor_names[(i, k)],
                            inductor_names[(j, k)],
                            mutual=m_per,
                        )

        # capacitance: Maxwell matrix split over section boundaries
        c = bus.capacitance_matrix
        boundary_weights = [0.5] + [1.0] * (sections - 1) + [0.5]
        for i in range(n):
            c_ground = c[i, i] + sum(c[i, j] for j in range(n) if j != i)
            for k, weight in enumerate(boundary_weights):
                value = c_ground * weight / sections
                n_i = node(i, k)
                if n_i == "0" or value <= 0.0:
                    continue
                circuit.add_capacitor(f"Cg_{names[i]}_{k}", n_i, "0", value)
            for j in range(i + 1, n):
                c_mutual = -c[i, j]
                if c_mutual <= 0.0:
                    continue
                for k, weight in enumerate(boundary_weights):
                    n_i, n_j = node(i, k), node(j, k)
                    if n_i == n_j:
                        continue
                    name = f"Cc_{names[i]}_{names[j]}_{k}"
                    if n_j == "0" or n_i == "0":
                        top = n_i if n_j == "0" else n_j
                        circuit.add_capacitor(
                            name, top, "0", c_mutual * weight / sections
                        )
                    else:
                        circuit.add_capacitor(
                            name, n_i, n_j, c_mutual * weight / sections
                        )

        input_nodes = {
            names[i]: node(i, 0)
            for i in range(n) if not block.traces[i].is_ground
        }
        output_nodes = {
            names[i]: node(i, sections)
            for i in range(n) if not block.traces[i].is_ground
        }
        return BusNetlist(
            circuit=circuit,
            input_nodes=input_nodes,
            output_nodes=output_nodes,
        )
