"""2-D finite-difference Laplace solver for per-unit-length capacitance.

This is the numerical capacitance extractor of the paper's Sec. II: long
uniform traces reduce to a 2-D cross-section problem, and the 3-trace
subproblems the short-range decomposition produces are solved here
exactly (to grid resolution).  The solver computes the Maxwell
capacitance matrix by setting each conductor to 1 V in turn and
integrating induced charge.

The grid is boundary-fitted: every conductor edge coincides with a grid
line, so refinement converges smoothly instead of jittering with
rasterization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from repro.constants import EPS_0, EPS_R_SIO2
from repro.errors import GeometryError, SolverError
from repro.telemetry import FIELD_SOLVE_2D, get_registry, span
from repro.geometry.trace import TraceBlock


@dataclass(frozen=True)
class ConductorRect:
    """A conductor cross-section rectangle in the (y, z) plane [m]."""

    name: str
    y0: float
    y1: float
    z0: float
    z1: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.y0, self.y1, self.z0, self.z1)):
            raise GeometryError(f"conductor {self.name!r} has a non-finite edge")
        if self.y1 <= self.y0 or self.z1 <= self.z0:
            raise GeometryError(f"conductor {self.name!r} has non-positive extent")

    def overlaps(self, other: "ConductorRect") -> bool:
        """Whether the two rectangles share interior area (touching
        edges do not count)."""
        return (self.y0 < other.y1 and other.y0 < self.y1
                and self.z0 < other.z1 and other.z0 < self.z1)


@dataclass
class CrossSection2D:
    """A 2-D dielectric window with embedded conductors.

    The window spans ``[0, width] x [0, height]``; the bottom edge is a
    grounded plane (Dirichlet 0), the remaining edges approximate open
    space with Dirichlet 0 as well, so leave generous margins around the
    conductors.
    """

    width: float
    height: float
    conductors: List[ConductorRect] = field(default_factory=list)
    eps_r: float = EPS_R_SIO2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.width) and math.isfinite(self.height)
                and self.width > 0.0 and self.height > 0.0):
            raise GeometryError("window extents must be positive and finite")
        names = [c.name for c in self.conductors]
        if len(set(names)) != len(names):
            raise GeometryError("conductor names must be unique")
        for cond in self.conductors:
            if cond.y0 < 0 or cond.y1 > self.width or cond.z0 < 0 or cond.z1 > self.height:
                raise GeometryError(f"conductor {cond.name!r} outside the window")
        # Rasterization labels each grid node with one conductor, so
        # overlapping rectangles would silently merge into one.
        for i, first in enumerate(self.conductors):
            for second in self.conductors[i + 1:]:
                if first.overlaps(second):
                    raise GeometryError(
                        f"conductors {first.name!r} and {second.name!r} overlap")

    @classmethod
    def from_block(
        cls,
        block: TraceBlock,
        plane_gap: float,
        margin_factor: float = 5.0,
        eps_r: float = EPS_R_SIO2,
    ) -> "CrossSection2D":
        """Build a cross-section from a trace block over a ground plane.

        The block's traces sit *plane_gap* above the grounded bottom edge;
        lateral and top margins scale with the block size so the Dirichlet
        walls do not disturb the fields.
        """
        if plane_gap <= 0.0:
            raise GeometryError("plane_gap must be positive")
        traces = block.traces
        thickness = traces[0].thickness
        margin = margin_factor * max(block.total_width, plane_gap + thickness)
        y_shift = margin - traces[0].y_offset
        conductors = [
            ConductorRect(
                name=t.name or f"T{i + 1}",
                y0=t.y_offset + y_shift,
                y1=t.y_offset + t.width + y_shift,
                z0=plane_gap,
                z1=plane_gap + t.thickness,
            )
            for i, t in enumerate(traces)
        ]
        return cls(
            width=block.total_width + 2.0 * margin,
            height=plane_gap + thickness + margin,
            conductors=conductors,
            eps_r=eps_r,
        )


def _fitted_axis(total: float, edges: List[float], target_points: int) -> np.ndarray:
    """Grid coordinates over [0, total] including every edge exactly.

    Each interval between consecutive edges is subdivided close to the
    global target spacing, so conductor boundaries always land on grid
    lines.
    """
    anchors = sorted({0.0, total, *(e for e in edges if 0.0 < e < total)})
    spacing = total / max(target_points - 1, 1)
    coords: List[float] = [anchors[0]]
    for lo, hi in zip(anchors, anchors[1:]):
        n_sub = max(1, int(round((hi - lo) / spacing)))
        step = (hi - lo) / n_sub
        coords.extend(lo + step * (k + 1) for k in range(n_sub))
    return np.array(coords)


class _LaplaceSystem(NamedTuple):
    """The drive-independent part of a :class:`FieldSolver2D` solve."""

    lu: SuperLU                  # factor of the free-cell Laplacian
    free: np.ndarray             # flat grid index of each unknown
    dirichlet: Tuple[tuple, ...]  # per direction: (rows, coeff, fixed cell)
    flux: Tuple[tuple, ...]      # per conductor: see ``_flux_stencils``


class FieldSolver2D:
    """Finite-difference Laplace solver over a :class:`CrossSection2D`.

    Parameters
    ----------
    cross_section:
        The geometry to solve.
    nx, nz:
        Target grid resolution along width and height (the fitted grid
        may differ slightly).  The Laplacian is assembled and sparse-LU
        factored once per solver; each driven conductor then costs one
        pair of triangular solves.  160 x 120 runs in a fraction of a
        second.
    """

    def __init__(self, cross_section: CrossSection2D, nx: int = 160, nz: int = 120):
        if nx < 8 or nz < 8:
            raise SolverError("grid must be at least 8 x 8")
        if not cross_section.conductors:
            raise GeometryError("cross-section has no conductors")
        self.cs = cross_section
        y_edges = [e for c in cross_section.conductors for e in (c.y0, c.y1)]
        z_edges = [e for c in cross_section.conductors for e in (c.z0, c.z1)]
        self.ys = _fitted_axis(cross_section.width, y_edges, nx)
        self.zs = _fitted_axis(cross_section.height, z_edges, nz)
        self.nx = self.ys.size
        self.nz = self.zs.size
        self._labels = self._rasterize()
        self._check_rasterization()
        self._factored: Optional[_LaplaceSystem] = None

    def _rasterize(self) -> np.ndarray:
        """Label grid nodes: -1 free, >= 0 conductor index."""
        tol_y = 1e-9 * max(self.cs.width, 1e-12)
        tol_z = 1e-9 * max(self.cs.height, 1e-12)
        labels = -np.ones((self.nz, self.nx), dtype=int)
        for ci, cond in enumerate(self.cs.conductors):
            y_mask = (self.ys >= cond.y0 - tol_y) & (self.ys <= cond.y1 + tol_y)
            z_mask = (self.zs >= cond.z0 - tol_z) & (self.zs <= cond.z1 + tol_z)
            labels[np.ix_(z_mask, y_mask)] = ci
        return labels

    def _check_rasterization(self) -> None:
        present = set(np.unique(self._labels)) - {-1}
        missing = [
            cond.name
            for ci, cond in enumerate(self.cs.conductors)
            if ci not in present
        ]
        if missing:
            raise SolverError(
                f"grid too coarse: conductors {missing} rasterized to "
                "zero cells; increase nx/nz"
            )

    def _system(self) -> _LaplaceSystem:
        """The factored free-cell Laplacian, built on first use.

        The stencil depends only on the grid and the conductor labels,
        not on which conductor is driven, so it is assembled and
        LU-factored once per solver and every drive reuses the factor.
        """
        if self._factored is not None:
            return self._factored
        nz, nx = self.nz, self.nx
        labels = self._labels
        fixed_mask = labels >= 0
        fixed_mask[0, :] = True          # grounded bottom plane
        fixed_mask[-1, :] = True         # open-space approximation
        fixed_mask[:, 0] = True
        fixed_mask[:, -1] = True
        iz, ix = np.nonzero(~fixed_mask)  # row-major, the unknowns' order
        n_free = iz.size
        if n_free == 0:
            raise SolverError("no free cells: conductors fill the window")
        free_idx = np.full((nz, nx), -1)
        free_idx[iz, ix] = np.arange(n_free)

        ys, zs = self.ys, self.zs
        h_w = ys[ix] - ys[ix - 1]
        h_e = ys[ix + 1] - ys[ix]
        h_s = zs[iz] - zs[iz - 1]
        h_n = zs[iz + 1] - zs[iz]
        # W, E, S, N: the order the diagonal and the Dirichlet terms
        # accumulate in.
        stencil = (
            (iz, ix - 1, 2.0 / (h_w * (h_w + h_e))),
            (iz, ix + 1, 2.0 / (h_e * (h_w + h_e))),
            (iz - 1, ix, 2.0 / (h_s * (h_s + h_n))),
            (iz + 1, ix, 2.0 / (h_n * (h_s + h_n))),
        )
        rows = np.arange(n_free)
        diag = np.zeros(n_free)
        entries = []
        dirichlet = []
        for jz, jx, coeff in stencil:
            diag -= coeff
            on_fixed = fixed_mask[jz, jx]
            coupled = ~on_fixed
            entries.append((rows[coupled], free_idx[jz, jx][coupled],
                            coeff[coupled]))
            dirichlet.append((rows[on_fixed], coeff[on_fixed],
                              jz[on_fixed] * nx + jx[on_fixed]))
        entries.append((rows, rows, diag))
        r, c, v = (np.concatenate(parts) for parts in zip(*entries))
        matrix = sparse.csr_matrix((v, (r, c)), shape=(n_free, n_free))
        # SuperLU factors the CSC transpose of a CSR matrix and solves
        # with trans="T" -- the same factorization ``spsolve`` performs
        # on ``matrix``, so the potentials match it bit for bit.
        lu = splu(matrix.T, permc_spec="COLAMD")
        self._factored = _LaplaceSystem(
            lu, iz * nx + ix, tuple(dirichlet), self._flux_stencils())
        return self._factored

    def _flux_stencils(self) -> tuple:
        """Per conductor: (cell, neighbour, eps * tangent, normal step).

        One entry per boundary edge of the conductor -- a neighbour of
        one of its cells in the window that belongs to something else --
        ordered cell by cell (row-major) and E, W, N, S within a cell,
        the order the induced-charge sum runs in.
        """
        labels = self._labels
        nz, nx = self.nz, self.nx
        eps = EPS_0 * self.cs.eps_r
        ys, zs = self.ys, self.zs
        w_y = self._tangential_weights(ys)
        w_z = self._tangential_weights(zs)
        stencils = []
        for index in range(len(self.cs.conductors)):
            iz, ix = np.nonzero(labels == index)
            cz, cx = np.repeat(iz, 4), np.repeat(ix, 4)
            jz = cz + np.tile([0, 0, 1, -1], iz.size)    # E, W, N, S
            jx = cx + np.tile([1, -1, 0, 0], iz.size)
            keep = (jz >= 0) & (jz < nz) & (jx >= 0) & (jx < nx)
            cz, cx, jz, jx = cz[keep], cx[keep], jz[keep], jx[keep]
            keep = labels[jz, jx] != index
            cz, cx, jz, jx = cz[keep], cx[keep], jz[keep], jx[keep]
            lateral = jz == cz
            h_normal = np.where(lateral, np.abs(ys[jx] - ys[cx]),
                                np.abs(zs[jz] - zs[cz]))
            tangent = np.where(lateral, w_z[cz], w_y[cx])
            stencils.append((cz * nx + cx, jz * nx + jx, eps * tangent,
                             h_normal))
        return tuple(stencils)

    def solve_potential(self, drive_index: int) -> np.ndarray:
        """Potential field with conductor *drive_index* at 1 V, rest 0 V."""
        system = self._system()
        fixed = (self._labels == drive_index).astype(float).ravel()
        rhs = np.zeros(system.free.size)
        for rows, coeff, neighbour in system.dirichlet:
            rhs[rows] -= coeff * fixed[neighbour]
        potential = fixed.copy()
        potential[system.free] = system.lu.solve(rhs, trans="T")
        return potential.reshape(self.nz, self.nx)

    def _tangential_weights(self, coords: np.ndarray) -> np.ndarray:
        """Half-cell widths each grid line controls along an axis."""
        weights = np.empty_like(coords)
        weights[0] = (coords[1] - coords[0]) / 2.0
        weights[-1] = (coords[-1] - coords[-2]) / 2.0
        weights[1:-1] = (coords[2:] - coords[:-2]) / 2.0
        return weights

    def _conductor_charge(self, potential: np.ndarray, index: int) -> float:
        """Induced charge per unit length on conductor *index* [C/m]."""
        cell, neighbour, eps_tangent, h_normal = self._system().flux[index]
        flat = potential.ravel()
        terms = eps_tangent * (flat[cell] - flat[neighbour]) / h_normal
        # Summed strictly left to right from 0.0, the order of the
        # per-edge loop this replaced (np.sum would pair terms up and
        # move the last bits of the Maxwell matrix).
        return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])

    def capacitance_matrix(self) -> np.ndarray:
        """Per-unit-length Maxwell capacitance matrix [F/m].

        ``C[i][j]`` is the charge on conductor j with conductor i driven
        to 1 V and every other conductor grounded; diagonals are positive,
        off-diagonals negative.
        """
        n = len(self.cs.conductors)
        matrix = np.zeros((n, n))
        get_registry().inc(FIELD_SOLVE_2D)
        with span("rc.field_solve_2d", conductors=n):
            for i in range(n):
                potential = self.solve_potential(i)
                for j in range(n):
                    matrix[i, j] = self._conductor_charge(potential, j)
        # Enforce the symmetry the continuous problem guarantees.
        return 0.5 * (matrix + matrix.T)
