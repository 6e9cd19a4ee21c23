"""Exact Hoer-Love volume integrals against independent references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import um
from repro.errors import GeometryError
from repro.geometry.primitives import Point3D, RectBar
from repro.peec.analytic import (
    grover_self_inductance,
    mutual_inductance_filaments,
)
from repro.peec.hoer_love import (
    _PAIR_CHUNK,
    bar_mutual_inductance,
    bar_self_inductance,
    mutual_inductance_batch,
)


def bar(x=0.0, y=0.0, z=0.0, l=1e-3, w=um(1), t=um(1), axis="x"):
    return RectBar(Point3D(x, y, z), l, w, t, axis)


class TestSelfInductance:
    def test_against_grover_thin_wire(self):
        b = bar()
        exact = bar_self_inductance(b)
        approx = grover_self_inductance(1e-3, um(1), um(1))
        assert exact == pytest.approx(approx, rel=0.01)

    def test_against_grover_wide_trace(self):
        b = bar(l=6e-3, w=um(10), t=um(2))
        exact = bar_self_inductance(b)
        approx = grover_self_inductance(6e-3, um(10), um(2))
        assert exact == pytest.approx(approx, rel=0.01)

    def test_scale_invariance(self):
        # M scales linearly with uniform geometric scaling
        small = bar_self_inductance(bar(l=1e-3, w=um(1), t=um(1)))
        big = bar_self_inductance(bar(l=2e-3, w=um(2), t=um(2)))
        assert big == pytest.approx(2.0 * small, rel=1e-9)

    def test_axis_invariance(self):
        lx = bar_self_inductance(bar(axis="x"))
        ly = bar_self_inductance(bar(axis="y"))
        lz = bar_self_inductance(bar(axis="z"))
        assert lx == pytest.approx(ly, rel=1e-12)
        assert lx == pytest.approx(lz, rel=1e-12)

    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_positive_for_all_aspect_ratios(self, w, t):
        assert bar_self_inductance(bar(w=w * um(1), t=t * um(1))) > 0


class TestMutualInductance:
    def test_thin_bars_match_filament_formula(self):
        # 0.1 um square bars 10 um apart behave like filaments
        b1 = bar(w=um(0.1), t=um(0.1))
        b2 = bar(y=um(10), w=um(0.1), t=um(0.1))
        exact = bar_mutual_inductance(b1, b2)
        filament = mutual_inductance_filaments(1e-3, um(10))
        assert exact == pytest.approx(filament, rel=1e-3)

    def test_symmetry(self):
        b1 = bar(w=um(3))
        b2 = bar(y=um(8), w=um(1))
        assert bar_mutual_inductance(b1, b2) == pytest.approx(
            bar_mutual_inductance(b2, b1), rel=1e-12
        )

    def test_orthogonal_bars_have_zero_mutual(self):
        b1 = bar(axis="x")
        b2 = bar(z=um(3), axis="y")
        assert bar_mutual_inductance(b1, b2) == 0.0

    def test_mutual_below_self(self):
        b1 = bar()
        b2 = bar(y=um(2))
        assert 0 < bar_mutual_inductance(b1, b2) < bar_self_inductance(b1)

    def test_mutual_decays_with_spacing(self):
        b1 = bar()
        values = [
            bar_mutual_inductance(b1, bar(y=d)) for d in (um(2), um(10), um(50))
        ]
        assert values[0] > values[1] > values[2] > 0

    def test_vertical_offset_equivalent_to_lateral(self):
        # mutual depends on distance, not direction, for square bars
        lateral = bar_mutual_inductance(bar(), bar(y=um(10)))
        vertical = bar_mutual_inductance(bar(), bar(z=um(10)))
        assert lateral == pytest.approx(vertical, rel=1e-9)

    def test_longitudinal_offset_reduces_coupling(self):
        aligned = bar_mutual_inductance(bar(), bar(y=um(5)))
        shifted = bar_mutual_inductance(bar(), bar(x=0.5e-3, y=um(5)))
        assert shifted < aligned

    def test_collinear_bars_positive_coupling(self):
        b1 = bar(l=0.5e-3)
        b2 = bar(x=0.6e-3, l=0.5e-3)
        m = bar_mutual_inductance(b1, b2)
        assert m > 0

    def test_y_axis_bars_equivalent(self):
        m_x = bar_mutual_inductance(bar(), bar(y=um(10)))
        m_y = bar_mutual_inductance(
            bar(axis="y"), bar(x=um(10), axis="y")
        )
        assert m_x == pytest.approx(m_y, rel=1e-9)


class TestBatchEvaluation:
    def test_batch_matches_scalar(self):
        ys = np.array([um(2), um(5), um(20)])
        batch = mutual_inductance_batch(
            0.0, 1e-3, 0.0, um(1), 0.0, um(1),
            0.0, 1e-3, ys, um(1), 0.0, um(1),
        )
        for yi, value in zip(ys, batch):
            scalar = bar_mutual_inductance(bar(), bar(y=float(yi)))
            assert value == pytest.approx(scalar, rel=1e-12)

    def test_matrix_broadcast_symmetric(self):
        y = np.array([0.0, um(3), um(7)])
        m = mutual_inductance_batch(
            0.0, 1e-3, y[:, None], um(1), 0.0, um(1),
            0.0, 1e-3, y[None, :], um(1), 0.0, um(1),
        )
        assert m.shape == (3, 3)
        assert np.allclose(m, m.T, rtol=1e-12)
        # diagonal entries are the exact self inductance
        assert m[0, 0] == pytest.approx(bar_self_inductance(bar()), rel=1e-12)

    def test_zero_extents_rejected(self):
        with pytest.raises(GeometryError):
            mutual_inductance_batch(
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            )

    def test_no_nan_for_touching_bars(self):
        # bars sharing a face exercise the degenerate primitive arguments
        value = mutual_inductance_batch(
            0.0, 1e-3, 0.0, um(1), 0.0, um(1),
            0.0, 1e-3, um(1), um(1), 0.0, um(1),
        )
        assert np.isfinite(value)
        assert value > 0


class TestNonFiniteInput:
    """The batch API rejects what :class:`RectBar` already rejects."""

    GOOD = (0.0, 1e-3, 0.0, um(1), 0.0, um(1),
            0.0, 1e-3, um(3), um(1), 0.0, um(1))

    def _with(self, index, value):
        args = list(self.GOOD)
        args[index] = value
        return args

    def test_infinite_length_rejected(self):
        with pytest.raises(GeometryError, match="finite"):
            mutual_inductance_batch(*self._with(7, np.inf))

    def test_nan_offset_rejected(self):
        with pytest.raises(GeometryError, match="finite"):
            mutual_inductance_batch(*self._with(8, np.nan))

    def test_infinite_offset_rejected(self):
        with pytest.raises(GeometryError, match="finite"):
            mutual_inductance_batch(*self._with(0, -np.inf))

    def test_one_bad_pair_in_a_batch_rejected(self):
        ys = np.array([um(3), np.nan, um(9)])
        with pytest.raises(GeometryError, match="finite"):
            mutual_inductance_batch(*self._with(8, ys))


def _mixed_pairs(n, seed=0):
    """*n* pairs spanning near, touching, self and far (filament) cases."""
    rng = np.random.default_rng(seed)
    l1 = rng.uniform(um(5), um(3000), n)
    w1 = rng.uniform(um(0.2), um(12), n)
    t1 = rng.uniform(um(0.2), um(3), n)
    l2 = np.where(rng.random(n) < 0.3, l1, rng.uniform(um(5), um(3000), n))
    w2 = rng.uniform(um(0.2), um(12), n)
    t2 = rng.uniform(um(0.2), um(3), n)
    x1 = rng.uniform(-um(50), um(50), n)
    y1 = rng.uniform(-um(50), um(50), n)
    z1 = rng.uniform(-um(5), um(5), n)
    reach = np.where(rng.random(n) < 0.2, um(5000), um(30))
    x2 = x1 + rng.uniform(-1, 1, n) * reach
    y2 = y1 + rng.uniform(-1, 1, n) * reach
    z2 = z1 + rng.uniform(-1, 1, n) * um(6)
    same = rng.random(n) < 0.1
    x2, y2, z2 = (np.where(same, a, b) for a, b in ((x1, x2), (y1, y2), (z1, z2)))
    l2, w2, t2 = (np.where(same, a, b) for a, b in ((l1, l2), (w1, w2), (t1, t2)))
    return [x1, l1, y1, w1, z1, t1, x2, l2, y2, w2, z2, t2]


class TestStackedEvaluationBitwise:
    """The 64 corner evaluations of a chunk are stacked, and large
    batches are split into chunks; neither may change any bit."""

    def test_whole_reversed_and_pairwise_agree(self):
        args = _mixed_pairs(300)
        whole = mutual_inductance_batch(*args)
        reversed_ = mutual_inductance_batch(*(a[::-1] for a in args))[::-1]
        pairwise = np.array([
            mutual_inductance_batch(*(float(a[i]) for a in args))
            for i in range(300)
        ])
        assert np.all(np.isfinite(whole))
        assert whole.tobytes() == reversed_.tobytes()
        assert whole.tobytes() == pairwise.tobytes()

    @pytest.mark.parametrize("size", [_PAIR_CHUNK - 1, _PAIR_CHUNK,
                                      _PAIR_CHUNK + 1])
    def test_chunk_boundaries(self, size):
        args = _mixed_pairs(2 * _PAIR_CHUNK + 3, seed=1)
        whole = mutual_inductance_batch(*args)
        part = mutual_inductance_batch(*(a[:size] for a in args))
        tail = mutual_inductance_batch(*(a[size:] for a in args))
        assert part.shape == (size,)
        assert whole[:size].tobytes() == part.tobytes()
        assert whole[size:].tobytes() == tail.tobytes()

    def test_broadcast_shape_preserved(self):
        # a 2-D batch larger than one chunk, walked in flat order
        cols = _PAIR_CHUNK // 2 + 1
        args = _mixed_pairs(3 * cols, seed=2)
        flat = mutual_inductance_batch(*args)
        grid = mutual_inductance_batch(*(a.reshape(3, cols) for a in args))
        assert grid.shape == (3, cols)
        assert grid.ravel().tobytes() == flat.tobytes()

    def test_empty_batch(self):
        empty = np.zeros(0)
        out = mutual_inductance_batch(*([empty] * 12))
        assert out.shape == (0,)


class TestEnergyConsistency:
    def test_two_bar_matrix_positive_definite(self):
        b1 = bar()
        b2 = bar(y=um(3))
        l11 = bar_self_inductance(b1)
        l22 = bar_self_inductance(b2)
        m = bar_mutual_inductance(b1, b2)
        matrix = np.array([[l11, m], [m, l22]])
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert np.all(eigenvalues > 0)

    def test_merged_bar_consistency(self):
        # A 2w-wide bar equals two w-wide halves: L = (L1 + L2 + 2M) / 4
        # (parallel combination of equal coupled halves carrying I/2 each).
        half1 = bar(w=um(2))
        half2 = bar(y=um(2), w=um(2))
        whole = bar(w=um(4))
        l_half = bar_self_inductance(half1)
        m = bar_mutual_inductance(half1, half2)
        combined = (l_half + m) / 2.0
        assert bar_self_inductance(whole) == pytest.approx(combined, rel=1e-10)
