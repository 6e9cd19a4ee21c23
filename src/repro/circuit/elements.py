"""Circuit elements and their MNA stamps.

Each element knows how to stamp itself into the conductance matrix G,
the reactance matrix C (so the system reads ``G x + C dx/dt = b(t)``)
and the source vector.  Inductors, voltage sources and controlled
voltage sources carry an extra branch-current unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from repro.errors import CircuitError


@dataclass
class Element:
    """Base class: a named element between two nodes."""

    name: str
    node1: str
    node2: str

    #: True when the element adds a branch-current unknown to the MNA system.
    has_branch = False

    def __post_init__(self) -> None:
        if not self.name:
            raise CircuitError("element name must be non-empty")
        if self.node1 == self.node2:
            raise CircuitError(f"element {self.name!r} connects a node to itself")


@dataclass
class Resistor(Element):
    """A linear resistor [ohm]."""

    resistance: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resistance <= 0.0:
            raise CircuitError(f"resistor {self.name!r} must be positive")

    def stamp(self, stamps: "Stamps") -> None:
        g = 1.0 / self.resistance
        stamps.add_conductance(self.node1, self.node2, g)


@dataclass
class Capacitor(Element):
    """A linear capacitor [F] with optional initial voltage."""

    capacitance: float = 1e-15
    initial_voltage: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.capacitance <= 0.0:
            raise CircuitError(f"capacitor {self.name!r} must be positive")

    def stamp(self, stamps: "Stamps") -> None:
        stamps.add_capacitance(self.node1, self.node2, self.capacitance)


@dataclass
class Inductor(Element):
    """A linear inductor [H]; couples to others via mutual terms."""

    inductance: float = 1e-12
    initial_current: float = 0.0

    has_branch = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inductance <= 0.0:
            raise CircuitError(f"inductor {self.name!r} must be positive")

    def stamp(self, stamps: "Stamps") -> None:
        k = stamps.branch_index(self.name)
        stamps.add_branch_voltage(k, self.node1, self.node2)
        stamps.add_branch_reactance(k, k, -self.inductance)


@dataclass
class MutualInductance:
    """Mutual coupling M [H] between two named inductors.

    Use :meth:`from_coupling` for the SPICE ``K`` coefficient form
    ``M = k sqrt(L1 L2)``.
    """

    name: str
    inductor1: str
    inductor2: str
    mutual: float

    def __post_init__(self) -> None:
        if self.inductor1 == self.inductor2:
            raise CircuitError(f"mutual {self.name!r} couples an inductor to itself")

    @classmethod
    def from_coupling(
        cls, name: str, l1: Inductor, l2: Inductor, k: float
    ) -> "MutualInductance":
        """Build from a coupling coefficient ``|k| < 1``."""
        if not (-1.0 < k < 1.0):
            raise CircuitError(f"coupling {name!r}: |k| must be < 1, got {k}")
        mutual = k * float(np.sqrt(l1.inductance * l2.inductance))
        return cls(name=name, inductor1=l1.name, inductor2=l2.name, mutual=mutual)

    def stamp(self, stamps: "Stamps") -> None:
        k1 = stamps.branch_index(self.inductor1)
        k2 = stamps.branch_index(self.inductor2)
        stamps.add_branch_reactance(k1, k2, -self.mutual)
        stamps.add_branch_reactance(k2, k1, -self.mutual)


@dataclass
class VoltageSource(Element):
    """An independent voltage source with a time-domain waveform.

    *ac_magnitude* sets the phasor amplitude used by AC analysis.
    """

    waveform: Callable[[float], float] = field(default=lambda t: 0.0)
    ac_magnitude: float = 0.0

    has_branch = True

    def stamp(self, stamps: "Stamps") -> None:
        k = stamps.branch_index(self.name)
        stamps.add_branch_voltage(k, self.node1, self.node2)
        stamps.set_branch_source(k, self.waveform, self.ac_magnitude)


@dataclass
class CurrentSource(Element):
    """An independent current source flowing node1 -> node2."""

    waveform: Callable[[float], float] = field(default=lambda t: 0.0)
    ac_magnitude: float = 0.0

    def stamp(self, stamps: "Stamps") -> None:
        stamps.add_node_source(
            self.node1, self.node2, self.waveform, self.ac_magnitude
        )


@dataclass
class VCVS(Element):
    """Voltage-controlled voltage source: V(n1,n2) = gain * V(c1,c2)."""

    control1: str = "0"
    control2: str = "0"
    gain: float = 1.0

    has_branch = True

    def stamp(self, stamps: "Stamps") -> None:
        k = stamps.branch_index(self.name)
        stamps.add_branch_voltage(k, self.node1, self.node2)
        stamps.add_branch_control(k, self.control1, self.control2, -self.gain)


class Stamps:
    """Mutable MNA matrices an element stamps itself into.

    The unknown vector is ``x = [node voltages (ground excluded);
    branch currents]`` and the system reads ``G x + C dx/dt = b(t)``.

    Entries accumulate as COO triplets so a chip-scale netlist never
    materializes an ``size x size`` array just to be stamped: every
    analysis reads the CSC matrices :meth:`g_csc` / :meth:`c_csc`.
    """

    def __init__(self, node_index, branch_names):
        self._node_index = node_index  # name -> matrix row (ground -> -1)
        self._branch_index = {name: i for i, name in enumerate(branch_names)}
        n = len([i for i in node_index.values() if i >= 0])
        m = len(branch_names)
        self.size = n + m
        self.num_nodes = n
        # COO triplets (duplicates allowed; summed on materialization).
        self._g_rows: list = []
        self._g_cols: list = []
        self._g_vals: list = []
        self._c_rows: list = []
        self._c_cols: list = []
        self._c_vals: list = []
        # b(t) is assembled from static entries plus per-source callables.
        self._sources = []  # (row, sign, waveform, ac_magnitude)

    def branch_index(self, name: str) -> int:
        try:
            return self._branch_index[name]
        except KeyError:
            raise CircuitError(f"unknown branch element {name!r}") from None

    def _row(self, node: str) -> int:
        return self._node_index[node]

    def _add_g(self, row: int, col: int, value: float) -> None:
        self._g_rows.append(row)
        self._g_cols.append(col)
        self._g_vals.append(value)

    def _add_c(self, row: int, col: int, value: float) -> None:
        self._c_rows.append(row)
        self._c_cols.append(col)
        self._c_vals.append(value)

    def add_conductance(self, node1: str, node2: str, g: float) -> None:
        """Stamp a conductance between two nodes into G."""
        i, j = self._row(node1), self._row(node2)
        if i >= 0:
            self._add_g(i, i, g)
        if j >= 0:
            self._add_g(j, j, g)
        if i >= 0 and j >= 0:
            self._add_g(i, j, -g)
            self._add_g(j, i, -g)

    def add_capacitance(self, node1: str, node2: str, c: float) -> None:
        """Stamp a capacitance between two nodes into C."""
        i, j = self._row(node1), self._row(node2)
        if i >= 0:
            self._add_c(i, i, c)
        if j >= 0:
            self._add_c(j, j, c)
        if i >= 0 and j >= 0:
            self._add_c(i, j, -c)
            self._add_c(j, i, -c)

    def add_branch_voltage(self, branch: int, node1: str, node2: str) -> None:
        """Couple branch current into KCL and node voltages into the branch row."""
        row = self.num_nodes + branch
        i, j = self._row(node1), self._row(node2)
        if i >= 0:
            self._add_g(i, row, 1.0)   # current leaves node1
            self._add_g(row, i, 1.0)   # +V(node1) in branch equation
        if j >= 0:
            self._add_g(j, row, -1.0)
            self._add_g(row, j, -1.0)

    def add_branch_reactance(self, branch1: int, branch2: int, value: float) -> None:
        """Stamp -L or -M into the branch block of C."""
        self._add_c(self.num_nodes + branch1, self.num_nodes + branch2, value)

    def add_branch_control(
        self, branch: int, control1: str, control2: str, gain: float
    ) -> None:
        """Add controlled-voltage terms to a branch equation."""
        row = self.num_nodes + branch
        i, j = self._row(control1), self._row(control2)
        if i >= 0:
            self._add_g(row, i, gain)
        if j >= 0:
            self._add_g(row, j, -gain)

    # ------------------------------------------------------------------
    # matrix materialization
    # ------------------------------------------------------------------
    def _csc(self, rows, cols, vals):
        from scipy import sparse

        return sparse.coo_matrix(
            (np.asarray(vals, dtype=float),
             (np.asarray(rows, dtype=np.intp),
              np.asarray(cols, dtype=np.intp))),
            shape=(self.size, self.size),
        ).tocsc()

    def g_csc(self):
        """Sparse CSC conductance matrix (duplicate triplets summed)."""
        return self._csc(self._g_rows, self._g_cols, self._g_vals)

    def c_csc(self):
        """Sparse CSC reactance matrix (duplicate triplets summed)."""
        return self._csc(self._c_rows, self._c_cols, self._c_vals)

    @property
    def nnz(self) -> int:
        """Structural non-zeros of the combined G/C sparsity pattern."""
        pattern = set(zip(self._g_rows, self._g_cols))
        pattern.update(zip(self._c_rows, self._c_cols))
        return len(pattern)

    def set_branch_source(self, branch: int, waveform, ac_magnitude: float) -> None:
        """Register a branch-row source (voltage source value)."""
        self._sources.append((self.num_nodes + branch, 1.0, waveform, ac_magnitude))

    def add_node_source(
        self, node1: str, node2: str, waveform, ac_magnitude: float
    ) -> None:
        """Register a nodal current injection (current source)."""
        i, j = self._row(node1), self._row(node2)
        if i >= 0:
            self._sources.append((i, -1.0, waveform, ac_magnitude))
        if j >= 0:
            self._sources.append((j, 1.0, waveform, ac_magnitude))

    def source_vector(self, t: float) -> np.ndarray:
        """Evaluate b(t)."""
        b = np.zeros(self.size)
        for row, sign, waveform, _ in self._sources:
            b[row] += sign * waveform(t)
        return b

    def source_samples(
        self, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of b(t) that carry a source, and b there at *times*.

        Returns ``(rows, values)`` with ``values[k, j]`` equal to
        ``source_vector(times[k])[rows[j]]``: sources sharing a row are
        summed in stamp order, as :meth:`source_vector` sums them.
        """
        rows = list(dict.fromkeys(row for row, _, _, _ in self._sources))
        column = {row: j for j, row in enumerate(rows)}
        values = np.zeros((len(times), len(rows)))
        for row, sign, waveform, _ in self._sources:
            values[:, column[row]] += sign * np.array(
                [waveform(t) for t in times], dtype=float
            )
        return np.array(rows, dtype=np.intp), values

    def ac_source_vector(self) -> np.ndarray:
        """Phasor source vector for AC analysis."""
        b = np.zeros(self.size, dtype=complex)
        for row, sign, _, ac_magnitude in self._sources:
            b[row] += sign * ac_magnitude
        return b
