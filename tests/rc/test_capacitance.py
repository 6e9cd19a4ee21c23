"""Closed-form capacitance models and the 3-trace decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import EPS_0, EPS_R_SIO2, um
from repro.errors import GeometryError
from repro.geometry.trace import TraceBlock
from repro.rc.capacitance import (
    CapacitanceModel,
    block_capacitance_matrix,
    coupling_capacitance,
    ground_capacitance,
    shielded_ground_capacitance,
)


def block(n=3, width=um(2), spacing=um(2), grounds=False):
    return TraceBlock.from_widths_and_spacings(
        widths=[width] * n, spacings=[spacing] * (n - 1),
        length=um(1000), thickness=um(1),
        ground_flags=None if grounds else [False] * n,
    )


class TestGroundCapacitance:
    def test_exceeds_parallel_plate(self):
        c = ground_capacitance(um(10), um(1), um(1), 1.0)
        plate = EPS_0 * EPS_R_SIO2 * um(10) / um(1) * 1.0
        assert c > plate

    def test_wide_line_approaches_parallel_plate(self):
        w = um(100)
        c = ground_capacitance(w, um(1), um(1), 1.0)
        plate = EPS_0 * EPS_R_SIO2 * w / um(1) * 1.0
        assert c == pytest.approx(plate, rel=0.1)

    def test_scales_linearly_with_length(self):
        c1 = ground_capacitance(um(5), um(1), um(2), um(1000))
        c2 = ground_capacitance(um(5), um(1), um(2), um(2000))
        assert c2 == pytest.approx(2 * c1)

    def test_higher_dielectric_more_cap(self):
        base = ground_capacitance(um(5), um(1), um(2), 1.0, eps_r=3.9)
        high = ground_capacitance(um(5), um(1), um(2), 1.0, eps_r=7.8)
        assert high == pytest.approx(2 * base)

    def test_rejects_nonpositive(self):
        with pytest.raises(GeometryError):
            ground_capacitance(0.0, um(1), um(1), 1.0)

    @given(st.floats(0.5, 20), st.floats(0.3, 3), st.floats(0.5, 5))
    @settings(max_examples=40)
    def test_monotone_in_width(self, w, t, h):
        narrow = ground_capacitance(um(w), um(t), um(h), 1.0)
        wide = ground_capacitance(um(w * 1.5), um(t), um(h), 1.0)
        assert wide > narrow


class TestCouplingCapacitance:
    def test_decays_with_spacing(self):
        values = [
            coupling_capacitance(um(2), um(1), um(1), um(s), 1.0)
            for s in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_grows_with_thickness(self):
        thin = coupling_capacitance(um(2), um(0.5), um(1), um(1), 1.0)
        thick = coupling_capacitance(um(2), um(2), um(1), um(1), 1.0)
        assert thick > thin

    def test_never_negative(self):
        c = coupling_capacitance(um(0.5), um(0.3), um(5), um(10), 1.0)
        assert c >= 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(GeometryError):
            coupling_capacitance(um(1), um(1), um(1), 0.0, 1.0)


class TestShieldedGround:
    def test_neighbours_steal_fringe(self):
        isolated = ground_capacitance(um(2), um(1), um(1), 1.0)
        shielded = shielded_ground_capacitance(um(2), um(1), um(1), um(0.5), 1.0)
        assert shielded < isolated

    def test_far_neighbours_no_effect(self):
        isolated = ground_capacitance(um(2), um(1), um(1), 1.0)
        shielded = shielded_ground_capacitance(um(2), um(1), um(1), um(50), 1.0)
        assert shielded == pytest.approx(isolated, rel=1e-6)


class TestBlockMatrix:
    def test_maxwell_structure(self):
        m = block_capacitance_matrix(block(3), CapacitanceModel(um(1)))
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) > 0)
        off = m - np.diag(np.diag(m))
        assert np.all(off <= 0)

    def test_diagonally_dominant(self):
        m = block_capacitance_matrix(block(4), CapacitanceModel(um(1)))
        for i in range(4):
            assert m[i, i] >= -np.sum(m[i]) + m[i, i] - 1e-20

    def test_short_range_coupling_only(self):
        m = block_capacitance_matrix(
            block(4), CapacitanceModel(um(1), neighbour_range=1)
        )
        assert m[0, 2] == 0.0
        assert m[0, 3] == 0.0
        assert m[0, 1] < 0.0

    def test_neighbour_range_two(self):
        m = block_capacitance_matrix(
            block(4), CapacitanceModel(um(1), neighbour_range=2)
        )
        assert m[0, 2] < 0.0
        assert m[0, 3] == 0.0

    def test_symmetric_block_symmetric_matrix(self):
        m = block_capacitance_matrix(block(3), CapacitanceModel(um(1)))
        assert m[0, 0] == pytest.approx(m[2, 2])

    def test_invalid_model(self):
        with pytest.raises(GeometryError):
            CapacitanceModel(height_below=0.0)
        with pytest.raises(GeometryError):
            CapacitanceModel(height_below=um(1), neighbour_range=0)
