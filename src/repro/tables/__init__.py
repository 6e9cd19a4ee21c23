"""Table-based extraction: precompute, store, interpolate.

The paper's central efficiency idea (Sec. III): run the expensive field
solver offline over a grid of geometries, store self- and mutual-
inductance (and capacitance) tables, and answer extraction queries with
bicubic-spline interpolation -- orders of magnitude faster than a fresh
field solve with no loss of accuracy inside the characterized grid.
The tables themselves are computed by the characterization jobs of
:mod:`repro.library.jobs`.
"""

from repro.tables.grid import TensorSplineInterpolator
from repro.tables.lookup import ExtractionTable
from repro.tables.spline import BicubicSpline, CubicSpline1D

__all__ = [
    "TensorSplineInterpolator",
    "ExtractionTable",
    "BicubicSpline",
    "CubicSpline1D",
]
