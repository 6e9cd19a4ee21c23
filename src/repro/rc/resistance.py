"""Analytic trace resistance, with skin-effect correction.

The paper computes resistance analytically (ref [4]); at the significant
frequency the current retreats to a skin-depth-deep shell of the
cross-section, which this module models with the standard
effective-area correction.
"""

from __future__ import annotations

from repro.constants import RHO_CU
from repro.errors import GeometryError
from repro.peec.analytic import skin_depth


def dc_resistance(
    length: float,
    width: float,
    thickness: float,
    resistivity: float = RHO_CU,
) -> float:
    """DC resistance of a rectangular trace [ohm]: rho l / (w t)."""
    if min(length, width, thickness, resistivity) <= 0.0:
        raise GeometryError("all resistance arguments must be positive")
    return resistivity * length / (width * thickness)


def effective_conduction_area(
    width: float,
    thickness: float,
    delta: float,
) -> float:
    """Cross-section area conducting at skin depth *delta* [m^2].

    Current occupies a shell of depth *delta* around the perimeter; when
    the conductor is thinner than two skin depths in either dimension the
    full area conducts.
    """
    if delta <= 0.0:
        raise GeometryError("skin depth must be positive")
    core_w = max(width - 2.0 * delta, 0.0)
    core_t = max(thickness - 2.0 * delta, 0.0)
    return width * thickness - core_w * core_t


def ac_resistance(
    length: float,
    width: float,
    thickness: float,
    frequency: float,
    resistivity: float = RHO_CU,
) -> float:
    """Skin-effect-corrected resistance at *frequency* [ohm].

    Reduces to :func:`dc_resistance` when the skin depth exceeds half the
    smaller cross-section dimension.
    """
    if frequency < 0.0:
        raise GeometryError("frequency must be non-negative")
    if frequency == 0.0:
        return dc_resistance(length, width, thickness, resistivity)
    delta = skin_depth(resistivity, frequency)
    area = effective_conduction_area(width, thickness, delta)
    return resistivity * length / area
