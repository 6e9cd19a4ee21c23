"""Resistance and capacitance extraction substrate.

Resistance is analytic (sheet resistance plus a skin-effect correction at
the significant frequency), capacitance comes from closed-form
area/fringe/coupling models validated against a 2-D finite-difference
Laplace field solver, and :mod:`repro.rc.statistical` implements the
statistically-based worst-case RC generation of the paper's ref [4].
"""

from repro.rc.capacitance import (
    CapacitanceModel,
    block_capacitance_matrix,
    coupling_capacitance,
    ground_capacitance,
)
from repro.rc.fieldsolver2d import CrossSection2D, FieldSolver2D
from repro.rc.resistance import ac_resistance, dc_resistance
from repro.rc.statistical import (
    ProcessCorners,
    ProcessVariation,
    StatisticalRC,
    monte_carlo_rc,
)

__all__ = [
    "CapacitanceModel",
    "block_capacitance_matrix",
    "coupling_capacitance",
    "ground_capacitance",
    "CrossSection2D",
    "FieldSolver2D",
    "ac_resistance",
    "dc_resistance",
    "ProcessCorners",
    "ProcessVariation",
    "StatisticalRC",
    "monte_carlo_rc",
]
