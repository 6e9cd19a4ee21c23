"""Unit tests of the sparse MNA factorization backend.

Dense numpy (``np.linalg.solve``, hand-stamped arrays) is the oracle
throughout; the backend itself has no dense path.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.circuit.backend import SparseFactorization, factorize, gmin_loaded
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource
from repro.errors import SolverError
from repro.telemetry import (
    SOLVER_FACTOR_DENSE,
    SOLVER_FACTOR_SPARSE,
    get_registry,
)


def spd_matrix(n, seed=0):
    """A well-conditioned random SPD test matrix."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestSparseFactorization:
    def test_solve_matches_dense(self):
        a = spd_matrix(20)
        a[np.abs(a) < 0.5] = 0.0  # sparsify off-diagonals
        np.fill_diagonal(a, np.diag(spd_matrix(20)))
        b = np.linspace(-1, 1, 20)
        lu = SparseFactorization(sparse.csc_matrix(a))
        np.testing.assert_allclose(lu.solve(b), np.linalg.solve(a, b),
                                   rtol=1e-10)

    def test_solve_many_columns(self):
        a = sparse.eye(6, format="csc") * 3.0
        rhs = np.random.default_rng(2).standard_normal((6, 4))
        out = SparseFactorization(a).solve_many(rhs)
        np.testing.assert_allclose(out, rhs / 3.0, rtol=1e-12)

    def test_solve_many_rejects_bad_shape(self):
        lu = SparseFactorization(sparse.eye(4, format="csc"))
        with pytest.raises(SolverError, match="multi-RHS"):
            lu.solve_many(np.zeros((3, 2)))

    def test_rejects_dense_input(self):
        with pytest.raises(SolverError, match="scipy.sparse"):
            SparseFactorization(np.eye(3))

    def test_singular_raises_solver_error(self):
        singular = sparse.csc_matrix(
            np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SolverError, match="singular"):
            SparseFactorization(singular)

    def test_tiny_diagonal_still_pivots(self):
        # Symmetric mode prefers diagonal pivots; the threshold must still
        # swap a 1e-14 diagonal for its unit off-diagonal.  Taking the
        # diagonal as it comes (diag_pivot_thresh=0) is off by ~1e-4.
        n = 6
        a = (np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
             + np.diag([1e-14] * (n - 1) + [1.0]))
        b = np.arange(1.0, n + 1)
        expected = np.linalg.solve(a, b)
        x = SparseFactorization(sparse.csc_matrix(a)).solve(b)
        assert (np.max(np.abs(x - expected))
                <= 1e-12 * np.max(np.abs(expected)))

    def test_factor_counter_ticks(self):
        registry = get_registry()
        registry.reset()
        SparseFactorization(sparse.eye(3, format="csc"))
        assert registry.counter_value(SOLVER_FACTOR_SPARSE) == 1
        assert registry.counter_value(SOLVER_FACTOR_DENSE) == 0


class TestFactorize:
    def test_dispatches_on_representation(self):
        assert isinstance(factorize(sparse.eye(3, format="csc")),
                          SparseFactorization)
        assert isinstance(factorize(sparse.eye(3, format="csr")),
                          SparseFactorization)
        with pytest.raises(SolverError, match="scipy.sparse"):
            factorize(np.eye(3))

    def test_both_paths_agree(self):
        a = spd_matrix(15, seed=4)
        b = np.random.default_rng(4).standard_normal(15)
        sp = factorize(sparse.csc_matrix(a)).solve(b)
        np.testing.assert_allclose(sp, np.linalg.solve(a, b), rtol=1e-11)


class TestSystemMatrices:
    def test_sparse_matches_dense_assembly(self):
        circuit = Circuit()
        circuit.add_voltage_source(
            "V1", "in", "0", PulseSource(0.0, 1.0, rise=1e-12, width=1.0))
        circuit.add_resistor("R1", "in", "out", 50.0)
        circuit.add_inductor("L1", "out", "m", 1e-9)
        circuit.add_capacitor("C1", "m", "0", 1e-12)
        assembled = circuit.assemble()
        stamps = assembled.stamps
        g_sparse, c_sparse = stamps.g_csc(), stamps.c_csc()
        assert sparse.issparse(g_sparse) and sparse.issparse(c_sparse)

        # Hand-stamped dense reference, textbook MNA.
        n = assembled.size
        i_in, i_out, i_m = (assembled.node_row(x) for x in ("in", "out", "m"))
        k_v, k_l = assembled.branch_row("V1"), assembled.branch_row("L1")
        g = np.zeros((n, n))
        c = np.zeros((n, n))
        for a, b in ((i_in, i_in), (i_out, i_out)):
            g[a, b] += 1.0 / 50.0
        g[i_in, i_out] -= 1.0 / 50.0
        g[i_out, i_in] -= 1.0 / 50.0
        g[i_in, k_v] = g[k_v, i_in] = 1.0
        g[i_out, k_l] = g[k_l, i_out] = 1.0
        g[i_m, k_l] = g[k_l, i_m] = -1.0
        c[i_m, i_m] = 1e-12
        c[k_l, k_l] = -1e-9
        np.testing.assert_array_equal(g_sparse.toarray(), g)
        np.testing.assert_array_equal(c_sparse.toarray(), c)


class TestGminLoaded:
    def test_dense_matches_seed_recipe(self):
        g = spd_matrix(6, seed=5)
        n_nodes, gmin = 4, 1e-12
        expected = g.copy()
        expected[:n_nodes, :n_nodes] += np.eye(n_nodes) * gmin
        loaded = gmin_loaded(sparse.csc_matrix(g), n_nodes, gmin)
        assert loaded.format == "csc"
        np.testing.assert_array_equal(loaded.toarray(), expected)

    def test_sparse_matches_dense(self):
        # Structurally empty diagonal entries must gain gmin too.
        g = np.array([[0.0, 1.0, 0.0],
                      [1.0, 0.0, 2.0],
                      [0.0, 2.0, 5.0]])
        loaded = gmin_loaded(sparse.csc_matrix(g), 2, 1e-9)
        assert sparse.issparse(loaded)
        np.testing.assert_array_equal(
            loaded.toarray(), g + np.diag([1e-9, 1e-9, 0.0]))

    def test_input_not_mutated(self):
        g = sparse.csc_matrix(spd_matrix(4, seed=7))
        before = g.toarray()
        gmin_loaded(g, 2, 1e-6)
        np.testing.assert_array_equal(g.toarray(), before)
