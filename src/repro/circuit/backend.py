"""Sparse factorization backend for the MNA analyses.

Every analysis (``dc``, ``ac``, the fixed-dt ``transient`` and the
diagnostics half-step LTE probe) reduces to "factor one system matrix
once, then solve it against one or many right-hand sides".  All of them
factor the CSC ``G`` / ``C`` pair that
:class:`~repro.circuit.elements.Stamps` assembles with
:func:`scipy.sparse.linalg.splu`.  An MNA matrix of an extracted
clocktree holds a handful of entries per row, so one path serves every
size: a 10^5-unknown netlist factorizes in memory a dense matrix could
not even allocate (10^5 squared doubles is 80 GB), and on paper-scale
H-trees (80-400 unknowns) ``splu`` beats dense LAPACK LU as well.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.errors import SolverError
from repro.telemetry.registry import SOLVER_FACTOR_SPARSE, get_registry

__all__ = [
    "factorize",
    "SparseFactorization",
    "gmin_loaded",
]


class SparseFactorization:
    """Factor-once sparse LU (:func:`scipy.sparse.linalg.splu` on CSC)."""

    def __init__(self, matrix):
        if not sparse.issparse(matrix):
            raise SolverError("SparseFactorization needs a scipy.sparse matrix")
        csc = matrix.tocsc()
        if csc.shape[0] != csc.shape[1]:
            raise SolverError(f"matrix must be square, got {csc.shape}")
        self.n = csc.shape[0]
        try:
            self._lu = splu(csc)
        except (RuntimeError, ValueError) as exc:
            raise SolverError(f"singular system matrix: {exc}") from exc
        get_registry().inc(SOLVER_FACTOR_SPARSE)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against one vector or an ``(n, k)`` column stack."""
        return self._lu.solve(np.asarray(rhs))

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Explicit multi-RHS solve: *rhs* is ``(n, k)``, columns."""
        rhs = np.asarray(rhs)
        if rhs.ndim != 2 or rhs.shape[0] != self.n:
            raise SolverError(
                f"multi-RHS stack must be ({self.n}, k), got {rhs.shape}"
            )
        return self._lu.solve(rhs)


def factorize(matrix) -> SparseFactorization:
    """Factor the :mod:`scipy.sparse` *matrix* once.

    Raises :class:`~repro.errors.SolverError` when the matrix is
    singular or not sparse.
    """
    return SparseFactorization(matrix)


def gmin_loaded(g, num_nodes: int, gmin: float):
    """CSC ``G`` with *gmin* added on the node-voltage diagonal."""
    diagonal = np.zeros(g.shape[0])
    diagonal[:num_nodes] = gmin
    return (g + sparse.diags(diagonal)).tocsc()
