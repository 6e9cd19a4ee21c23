"""Partial-inductance matrix assembly and conductor-level reduction.

:class:`PartialInductanceSolver` is the table-characterization engine: it
assembles the exact filament partial-inductance matrix for a set of
conductors and reduces it to conductor-level quantities, either with a
uniform current assumption (the low-frequency Lp of the paper's
Foundations) or with the frequency-dependent current redistribution that
captures skin and proximity effects at the significant frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import RHO_CU
from repro.errors import GeometryError, SolverError
from repro.telemetry import PARTIAL_SOLVE, get_registry, span
from repro.geometry.primitives import RectBar
from repro.peec.kernel import (
    ImpedanceFactorization,
    assemble_partial_inductance_matrix,
)
from repro.peec.mesh import FilamentMesh, mesh_bar

__all__ = [
    "assemble_partial_inductance_matrix",
    "Conductor",
    "PartialInductanceSolver",
]


@dataclass
class Conductor:
    """A named conductor participating in an extraction problem."""

    name: str
    mesh: FilamentMesh
    resistivity: float = RHO_CU

    @classmethod
    def from_bar(
        cls,
        name: str,
        bar: RectBar,
        resistivity: float = RHO_CU,
        n_width: int = 1,
        n_thickness: int = 1,
        grading: float = 1.0,
    ) -> "Conductor":
        """Mesh *bar* and wrap it as a conductor."""
        return cls(
            name=name,
            mesh=mesh_bar(bar, n_width=n_width, n_thickness=n_thickness, grading=grading),
            resistivity=resistivity,
        )

    @property
    def bar(self) -> RectBar:
        """The unmeshed conductor volume."""
        return self.mesh.parent


class PartialInductanceSolver:
    """Filament-level PEEC solver for a set of parallel conductors.

    Parameters
    ----------
    conductors:
        The conductors of the problem.  Names must be unique.
    """

    def __init__(self, conductors: Sequence[Conductor]):
        if not conductors:
            raise GeometryError("need at least one conductor")
        names = [c.name for c in conductors]
        if len(set(names)) != len(names):
            raise GeometryError(f"conductor names must be unique, got {names}")
        self.conductors = list(conductors)
        self._names = names
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self._lp: Optional[np.ndarray] = None
        self._factorization: Optional[ImpedanceFactorization] = None
        self._projected_incidence: Optional[np.ndarray] = None

        self._filaments: List[RectBar] = []
        owner: List[int] = []
        self._resistance = []
        for ci, cond in enumerate(self.conductors):
            for fil in cond.mesh.filaments:
                self._filaments.append(fil)
                owner.append(ci)
            self._resistance.extend(cond.mesh.resistances(cond.resistivity))
        self._resistance = np.array(self._resistance, dtype=float)
        self._owner = np.array(owner, dtype=int)

    @property
    def names(self) -> List[str]:
        """Conductor names in problem order."""
        return list(self._names)

    @property
    def num_filaments(self) -> int:
        """Total number of filaments in the meshed problem."""
        return len(self._filaments)

    def index_of(self, name: str) -> int:
        """Position of the named conductor (O(1) dict lookup)."""
        try:
            return self._index[name]
        except KeyError:
            raise GeometryError(f"unknown conductor {name!r}") from None

    def filament_lp_matrix(self) -> np.ndarray:
        """Exact filament partial-inductance matrix [H] (cached)."""
        if self._lp is None:
            self._lp = assemble_partial_inductance_matrix(self._filaments)
        return self._lp

    def filament_resistances(self) -> np.ndarray:
        """DC resistance of every filament [ohm]."""
        return self._resistance.copy()

    def incidence(self) -> np.ndarray:
        """Filament-to-conductor incidence matrix (n_fil x n_cond)."""
        p = np.zeros((self.num_filaments, len(self.conductors)))
        p[np.arange(self.num_filaments), self._owner] = 1.0
        return p

    def factorization(self) -> ImpedanceFactorization:
        """Factor-once decomposition of ``diag(R) + j*w*Lp`` (cached).

        Built on first use; every subsequent frequency point reuses it,
        turning an m-point impedance sweep from m LU factorizations into
        one eigendecomposition plus m diagonal scalings.
        """
        if self._factorization is None:
            self._factorization = ImpedanceFactorization(
                self._resistance, self.filament_lp_matrix()
            )
        return self._factorization

    def conductor_lp_matrix(self) -> np.ndarray:
        """Conductor partial-inductance matrix under uniform current [H].

        ``Lp[i, j] = sum_{f in i, g in j} (a_f / A_i)(a_g / A_j) lp[f, g]``
        -- the low-frequency limit where current fills the cross-section
        uniformly.  For single-filament meshes this is the exact bar Lp.
        """
        lp = self.filament_lp_matrix()
        incidence = self.incidence()
        areas = np.array([f.cross_section_area for f in self._filaments])
        conductor_areas = incidence.T @ areas
        weights = incidence * areas[:, None] / conductor_areas[None, :]
        return weights.T @ lp @ weights

    def _conductor_modal_projection(self) -> np.ndarray:
        """``P^T U``: incidence projected onto the impedance modes (cached)."""
        if self._projected_incidence is None:
            self._projected_incidence = (
                self.incidence().T @ self.factorization().u
            )
        return self._projected_incidence

    def conductor_impedance_matrix(self, frequency: float) -> np.ndarray:
        """Frequency-dependent conductor impedance matrix [ohm].

        All filaments of a conductor are connected in parallel between its
        two terminals, so the conductor-level impedance is the Schur
        reduction ``Z_cond = (P^T Z^-1 P)^-1`` with
        ``Z = diag(R) + j omega Lp``.  Captures skin and proximity
        current redistribution.

        ``Z^-1`` is applied through the cached factor-once
        eigendecomposition (see :meth:`factorization`), so repeated calls
        at different frequencies cost O(n_cond^2 * n_fil) each instead of
        a fresh O(n_fil^3) LU factorization.
        """
        if frequency < 0.0:
            raise SolverError("frequency must be non-negative")
        omega = 2.0 * np.pi * frequency
        projected = self._conductor_modal_projection()
        scale = self.factorization().modal_scale(omega)
        y_cond = (projected * scale[None, :]) @ projected.T
        identity = np.eye(y_cond.shape[0], dtype=complex)
        try:
            # Solve against the identity instead of forming an explicit
            # inverse: one triangular backsubstitution per column and
            # better conditioning.
            return np.linalg.solve(y_cond, identity)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular conductor admittance matrix: {exc}") from exc

    def effective_rl(self, frequency: float) -> Tuple[np.ndarray, np.ndarray]:
        """Conductor resistance and inductance matrices at *frequency*.

        Returns ``(R, L)`` with ``R = Re(Z_cond)`` [ohm] and
        ``L = Im(Z_cond) / omega`` [H].
        """
        if frequency <= 0.0:
            raise SolverError("frequency must be positive for an R/L split")
        get_registry().inc(PARTIAL_SOLVE)
        with span("peec.partial_solve", frequency=frequency):
            z = self.conductor_impedance_matrix(frequency)
        omega = 2.0 * np.pi * frequency
        return z.real, z.imag / omega
