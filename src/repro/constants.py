"""Physical constants and unit helpers.

All internal computation in :mod:`repro` uses SI units (metres, henries,
farads, ohms, seconds, hertz).  The helpers here make the unit conversions
at API boundaries explicit and readable, e.g. ``um(10)`` for a 10 micron
width or ``to_nH(L)`` when reporting an inductance.
"""

from __future__ import annotations

import math

#: Vacuum permeability [H/m].
MU_0 = 4.0e-7 * math.pi

#: Vacuum permittivity [F/m].
EPS_0 = 8.8541878128e-12

#: Relative permittivity of SiO2 (typical on-chip interlayer dielectric).
EPS_R_SIO2 = 3.9

#: Resistivity of copper at room temperature [ohm*m].
RHO_CU = 1.72e-8

#: Resistivity of aluminium at room temperature [ohm*m].
RHO_AL = 2.82e-8

#: Speed of light in vacuum [m/s].
C_0 = 299_792_458.0


def um(value: float) -> float:
    """Convert microns to metres."""
    return value * 1e-6


def mm(value: float) -> float:
    """Convert millimetres to metres."""
    return value * 1e-3


def nH(value: float) -> float:
    """Convert nanohenries to henries."""
    return value * 1e-9


def to_nH(value: float) -> float:
    """Convert henries to nanohenries."""
    return value * 1e9


def fF(value: float) -> float:
    """Convert femtofarads to farads."""
    return value * 1e-15


def pF(value: float) -> float:
    """Convert picofarads to farads."""
    return value * 1e-12


def to_fF(value: float) -> float:
    """Convert farads to femtofarads."""
    return value * 1e15


def to_pF(value: float) -> float:
    """Convert farads to picofarads."""
    return value * 1e12


def ps(value: float) -> float:
    """Convert picoseconds to seconds."""
    return value * 1e-12


def to_ps(value: float) -> float:
    """Convert seconds to picoseconds."""
    return value * 1e12


def GHz(value: float) -> float:
    """Convert gigahertz to hertz."""
    return value * 1e9


def to_GHz(value: float) -> float:
    """Convert hertz to gigahertz."""
    return value * 1e-9
