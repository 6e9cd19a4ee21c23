"""Analytic resistance with skin-effect correction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import RHO_CU, um
from repro.errors import GeometryError
from repro.peec.analytic import skin_depth
from repro.rc.resistance import (
    ac_resistance,
    dc_resistance,
    effective_conduction_area,
)


class TestDCResistance:
    def test_fig1_signal_value(self):
        # 6000 um x 10 um x 2 um copper: rho l / A ~ 5.16 ohm
        r = dc_resistance(um(6000), um(10), um(2))
        assert r == pytest.approx(5.16, rel=0.01)

    def test_scales_linearly_with_length(self):
        assert dc_resistance(um(2000), um(5), um(1)) == pytest.approx(
            2.0 * dc_resistance(um(1000), um(5), um(1))
        )

    def test_scales_inversely_with_area(self):
        assert dc_resistance(um(1000), um(10), um(2)) == pytest.approx(
            0.25 * dc_resistance(um(1000), um(5), um(1))
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(GeometryError):
            dc_resistance(0.0, um(1), um(1))
        with pytest.raises(GeometryError):
            dc_resistance(um(1), um(1), um(1), resistivity=-1.0)


class TestEffectiveArea:
    def test_full_area_when_thin(self):
        # skin depth bigger than half the thickness: everything conducts
        area = effective_conduction_area(um(10), um(1), um(2))
        assert area == pytest.approx(um(10) * um(1))

    def test_shell_when_thick(self):
        w, t, delta = um(10), um(10), um(1)
        area = effective_conduction_area(w, t, delta)
        expected = w * t - (w - 2 * delta) * (t - 2 * delta)
        assert area == pytest.approx(expected)
        assert area < w * t

    def test_rejects_bad_delta(self):
        with pytest.raises(GeometryError):
            effective_conduction_area(um(1), um(1), 0.0)

    @given(st.floats(0.1, 20), st.floats(0.1, 20), st.floats(0.05, 5))
    @settings(max_examples=40)
    def test_never_exceeds_geometric_area(self, w, t, d):
        area = effective_conduction_area(um(w), um(t), um(d))
        assert 0 < area <= um(w) * um(t) * (1 + 1e-12)


class TestACResistance:
    def test_reduces_to_dc_at_zero_frequency(self):
        assert ac_resistance(um(1000), um(5), um(2), 0.0) == pytest.approx(
            dc_resistance(um(1000), um(5), um(2))
        )

    def test_low_frequency_equals_dc(self):
        # 10 MHz: skin depth ~ 21 um >> conductor
        assert ac_resistance(um(1000), um(5), um(2), 1e7) == pytest.approx(
            dc_resistance(um(1000), um(5), um(2)), rel=1e-12
        )

    def test_monotone_in_frequency(self):
        values = [
            ac_resistance(um(2000), um(10), um(2), f)
            for f in (1e8, 1e9, 1e10, 1e11)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_high_frequency_limit_scales_with_skin_depth(self):
        # very high f: R ~ rho l / (perimeter * delta) approximately
        f = 1e12
        delta = skin_depth(RHO_CU, f)
        r = ac_resistance(um(1000), um(10), um(2), f)
        approx = RHO_CU * um(1000) / (
            um(10) * um(2) - (um(10) - 2 * delta) * (um(2) - 2 * delta)
        )
        assert r == pytest.approx(approx)

    def test_rejects_negative_frequency(self):
        with pytest.raises(GeometryError):
            ac_resistance(um(1000), um(5), um(2), -1.0)
