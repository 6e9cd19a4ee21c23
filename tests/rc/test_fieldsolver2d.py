"""2-D finite-difference capacitance solver against analytic references."""

import numpy as np
import pytest

from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.constants import EPS_0, EPS_R_SIO2, um
from repro.errors import GeometryError, SolverError
from repro.geometry.trace import TraceBlock
from repro.rc.capacitance import ground_capacitance
from repro.rc import fieldsolver2d
from repro.rc.fieldsolver2d import ConductorRect, CrossSection2D, FieldSolver2D


def single_line_cs(width=um(1), thickness=um(1), gap=um(1)):
    block = TraceBlock.from_widths_and_spacings(
        widths=[width], spacings=[], length=1.0, thickness=thickness,
        ground_flags=[False],
    )
    return CrossSection2D.from_block(block, plane_gap=gap)


def three_line_cs(width=um(1), spacing=um(1), gap=um(1)):
    block = TraceBlock.from_widths_and_spacings(
        widths=[width] * 3, spacings=[spacing] * 2, length=1.0,
        thickness=um(1), ground_flags=[False] * 3,
    )
    return CrossSection2D.from_block(block, plane_gap=gap)


class TestGeometryValidation:
    def test_conductor_must_fit_window(self):
        with pytest.raises(GeometryError):
            CrossSection2D(
                width=um(10), height=um(10),
                conductors=[ConductorRect("c", -um(1), um(1), um(1), um(2))],
            )

    def test_degenerate_conductor_rejected(self):
        with pytest.raises(GeometryError):
            ConductorRect("c", um(1), um(1), um(1), um(2))

    def test_duplicate_names_rejected(self):
        with pytest.raises(GeometryError):
            CrossSection2D(
                width=um(10), height=um(10),
                conductors=[
                    ConductorRect("c", um(1), um(2), um(1), um(2)),
                    ConductorRect("c", um(4), um(5), um(1), um(2)),
                ],
            )

    @pytest.mark.parametrize("edges", [
        (np.nan, um(2), um(1), um(2)),
        (um(1), np.inf, um(1), um(2)),
        (um(1), um(2), -np.inf, um(2)),
        (um(1), um(2), um(1), np.nan),
    ])
    def test_non_finite_conductor_rejected(self, edges):
        with pytest.raises(GeometryError, match="non-finite"):
            ConductorRect("c", *edges)

    @pytest.mark.parametrize("width, height", [
        (np.nan, um(10)), (um(10), np.nan), (np.inf, um(10)), (um(10), np.inf),
    ])
    def test_non_finite_window_rejected(self, width, height):
        with pytest.raises(GeometryError, match="finite"):
            CrossSection2D(width=width, height=height)

    def test_overlapping_conductors_rejected(self):
        # 5 um^2 of shared area would rasterize into one conductor and
        # come back as a 2 x 2 "Maxwell matrix"
        with pytest.raises(GeometryError, match="overlap"):
            CrossSection2D(
                width=um(20), height=um(10),
                conductors=[
                    ConductorRect("a", um(2), um(7), um(2), um(4)),
                    ConductorRect("b", um(4.5), um(9), um(1), um(6)),
                ],
            )

    def test_contained_conductor_rejected(self):
        with pytest.raises(GeometryError, match="overlap"):
            CrossSection2D(
                width=um(20), height=um(10),
                conductors=[
                    ConductorRect("outer", um(2), um(9), um(1), um(6)),
                    ConductorRect("inner", um(4), um(5), um(2), um(3)),
                ],
            )

    def test_touching_conductors_allowed(self):
        cs = CrossSection2D(
            width=um(20), height=um(10),
            conductors=[
                ConductorRect("a", um(2), um(5), um(2), um(3)),
                ConductorRect("b", um(5), um(8), um(2), um(3)),
                ConductorRect("c", um(5), um(8), um(3), um(4)),
            ],
        )
        assert len(cs.conductors) == 3

    def test_tiny_conductor_still_resolved(self):
        # the boundary-fitted grid guarantees every conductor lands on
        # grid lines, even when far smaller than the target spacing
        cs = single_line_cs(width=um(0.1))
        solver = FieldSolver2D(cs, nx=16, nz=16)
        assert solver.capacitance_matrix()[0, 0] > 0

    def test_minimum_grid_size(self):
        with pytest.raises(SolverError):
            FieldSolver2D(single_line_cs(), nx=4, nz=4)

    def test_needs_conductors(self):
        with pytest.raises(GeometryError):
            FieldSolver2D(CrossSection2D(width=um(10), height=um(10)), 32, 32)


class TestSingleLine:
    def test_matches_sakurai_fit(self):
        # The Sakurai-Tamaru fit itself is only good to ~6 %.
        solver = FieldSolver2D(single_line_cs(), nx=160, nz=120)
        c_fd = solver.capacitance_matrix()[0, 0]
        c_analytic = ground_capacitance(um(1), um(1), um(1), 1.0)
        assert c_fd == pytest.approx(c_analytic, rel=0.08)

    def test_grid_refinement_converges(self):
        cs = single_line_cs()
        coarse = FieldSolver2D(cs, nx=60, nz=45).capacitance_matrix()[0, 0]
        fine = FieldSolver2D(cs, nx=180, nz=135).capacitance_matrix()[0, 0]
        assert abs(fine - coarse) / fine < 0.05

    def test_closer_plane_more_capacitance(self):
        near = FieldSolver2D(single_line_cs(gap=um(0.5)), 120, 90)
        far = FieldSolver2D(single_line_cs(gap=um(2.0)), 120, 90)
        assert near.capacitance_matrix()[0, 0] > far.capacitance_matrix()[0, 0]


class TestThreeLines:
    @pytest.fixture(scope="class")
    def matrix(self):
        solver = FieldSolver2D(three_line_cs(), nx=160, nz=100)
        return solver.capacitance_matrix()

    def test_maxwell_form(self, matrix):
        assert np.allclose(matrix, matrix.T, rtol=1e-8)
        assert np.all(np.diag(matrix) > 0)
        off = matrix - np.diag(np.diag(matrix))
        assert np.all(off <= 1e-15)

    def test_mirror_symmetry(self, matrix):
        assert matrix[0, 0] == pytest.approx(matrix[2, 2], rel=1e-3)
        assert matrix[0, 1] == pytest.approx(matrix[1, 2], rel=1e-3)

    def test_adjacent_coupling_dominates_distant(self, matrix):
        assert abs(matrix[0, 1]) > 5 * abs(matrix[0, 2])

    def test_middle_line_shielded_from_plane(self, matrix):
        # the middle line gives more of its charge to neighbours
        c_self_to_ground_mid = matrix[1, 1] + matrix[1, 0] + matrix[1, 2]
        c_self_to_ground_outer = matrix[0, 0] + matrix[0, 1] + matrix[0, 2]
        assert c_self_to_ground_mid < c_self_to_ground_outer

    def test_diagonally_dominant(self, matrix):
        for i in range(3):
            assert matrix[i, i] >= -np.sum(matrix[i]) + matrix[i, i] - 1e-18


class TestFactorOnce:
    def test_three_conductors_one_factorization(self, monkeypatch):
        calls = []
        real_splu = fieldsolver2d.splu

        def counting_splu(*args, **kwargs):
            calls.append(args[0].shape)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(fieldsolver2d, "splu", counting_splu)
        solver = FieldSolver2D(three_line_cs(), nx=48, nz=36)
        first = solver.capacitance_matrix()
        assert len(calls) == 1
        # the factor belongs to the geometry: a second solve reuses it
        again = solver.capacitance_matrix()
        assert len(calls) == 1
        assert first.tobytes() == again.tobytes()


class TestGolden:
    """Maxwell matrix of the standard CPW (10 um signal, 5 um grounds,
    1 um spacing, 2 um thick, 2 um over the plane) at the 48 x 36 kit
    grid, recorded from the per-drive ``spsolve`` implementation the
    factor-once solver replaced."""

    GOLDEN = np.array([
        [3.596873188369531e-10, -1.7720657754002996e-10, -2.9920433250195972e-12],
        [-1.7720657754002996e-10, 5.605914935944885e-10, -1.7720657754002996e-10],
        [-2.9920433250195972e-12, -1.7720657754002996e-10, 3.596873188369529e-10],
    ])

    def test_standard_cpw_48x36(self):
        config = CoplanarWaveguideConfig(
            signal_width=um(10), ground_width=um(5), spacing=um(1),
            thickness=um(2), height_below=um(2),
        )
        cross_section = config.cross_section()
        assert [c.name for c in cross_section.conductors] == [
            "GND_L", "SIG", "GND_R"]
        matrix = FieldSolver2D(cross_section, nx=48, nz=36).capacitance_matrix()
        np.testing.assert_allclose(matrix, self.GOLDEN, rtol=1e-12, atol=0.0)
