"""Unit helpers and physical constants."""

import math

import pytest

from repro import constants as c


def test_mu0_matches_definition():
    assert c.MU_0 == pytest.approx(4.0e-7 * math.pi)


def test_eps0_value():
    assert c.EPS_0 == pytest.approx(8.854e-12, rel=1e-3)


def test_speed_of_light_consistency():
    # c = 1 / sqrt(mu0 eps0)
    derived = 1.0 / math.sqrt(c.MU_0 * c.EPS_0)
    assert derived == pytest.approx(c.C_0, rel=1e-6)


def test_copper_less_resistive_than_aluminium():
    assert c.RHO_CU < c.RHO_AL


@pytest.mark.parametrize(
    "forward,inverse,value",
    [
        (c.nH, c.to_nH, 3.3),
        (c.pF, c.to_pF, 0.8),
        (c.fF, c.to_fF, 47.0),
        (c.ps, c.to_ps, 28.01),
        (c.GHz, c.to_GHz, 3.2),
    ],
)
def test_unit_roundtrips(forward, inverse, value):
    assert inverse(forward(value)) == pytest.approx(value)


def test_um_scale():
    assert c.um(1.0) == 1e-6


def test_mm_scale():
    assert c.mm(1.0) == 1e-3
