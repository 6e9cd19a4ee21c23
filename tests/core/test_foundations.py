"""Numerical verification of the extraction Foundations."""

import numpy as np
import pytest

from repro.constants import GHz, um
from repro.core.foundations import (
    foundation1_check,
    foundation2_check,
    loop_inductance_matrix,
)
from repro.errors import GeometryError
from repro.geometry.trace import TraceBlock
from repro.peec.ground_plane import plane_under_block


@pytest.fixture(scope="module")
def array_and_plane():
    block = TraceBlock.from_widths_and_spacings(
        widths=[um(5)] * 4, spacings=[um(5)] * 3, length=um(1000),
        thickness=um(1), ground_flags=[False] * 4,
    )
    plane = plane_under_block(block, gap=um(5), n_strips=9)
    return block, plane


class TestLoopMatrix:
    def test_shape_and_symmetry(self, array_and_plane):
        block, plane = array_and_plane
        matrix = loop_inductance_matrix(block, plane, GHz(1))
        assert matrix.shape == (4, 4)
        assert np.allclose(matrix, matrix.T)

    def test_diagonal_dominates(self, array_and_plane):
        block, plane = array_and_plane
        matrix = loop_inductance_matrix(block, plane, GHz(1))
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert matrix[i, i] > matrix[i, j] > 0

    def test_mutual_decays_with_separation(self, array_and_plane):
        block, plane = array_and_plane
        matrix = loop_inductance_matrix(block, plane, GHz(1))
        assert matrix[0, 1] > matrix[0, 2] > matrix[0, 3]

    def test_mirror_symmetry(self, array_and_plane):
        block, plane = array_and_plane
        matrix = loop_inductance_matrix(block, plane, GHz(1))
        assert matrix[0, 0] == pytest.approx(matrix[3, 3], rel=1e-6)

    def test_ground_traces_rejected(self):
        block = TraceBlock.coplanar_waveguide(
            signal_width=um(5), ground_width=um(5), spacing=um(2),
            length=um(500), thickness=um(1),
        )
        plane = plane_under_block(block, gap=um(3))
        with pytest.raises(GeometryError):
            loop_inductance_matrix(block, plane, GHz(1))


class TestLoopFoundations:
    def test_foundation1_small_error(self, array_and_plane):
        block, plane = array_and_plane
        check = foundation1_check(block, plane, GHz(1))
        # the paper's claim: the 1-trace reduction holds to a few percent
        assert check.relative_error < 0.02
        assert check.full_value > 0

    def test_foundation2_small_error(self, array_and_plane):
        block, plane = array_and_plane
        check = foundation2_check(block, plane, GHz(1))
        assert check.relative_error < 0.05
        assert check.full_value > 0

    def test_foundation2_needs_distinct_traces(self, array_and_plane):
        block, plane = array_and_plane
        with pytest.raises(GeometryError):
            foundation2_check(block, plane, GHz(1), index_a=0, index_b=0)

    def test_check_error_properties(self):
        from repro.core.foundations import FoundationCheck

        same = FoundationCheck("x", 1.0, 1.0)
        assert same.relative_error == 0.0
        off = FoundationCheck("x", 1.0, 1.1)
        assert off.relative_error == pytest.approx(0.1)
        degenerate = FoundationCheck("x", 0.0, 0.0)
        assert degenerate.relative_error == 0.0
        infinite = FoundationCheck("x", 0.0, 1.0)
        assert infinite.relative_error == float("inf")
