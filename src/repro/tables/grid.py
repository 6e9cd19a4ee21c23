"""Tensor-product spline interpolation on N-dimensional grids.

The mutual-inductance table has four dimensions (two widths, spacing,
length); the bicubic spline of Numerical Recipes generalizes to N
dimensions by the same successive-1-D construction, which is what
:class:`TensorSplineInterpolator` does.  As in NR ``splie2``, the
second derivatives of every row along the innermost axis are computed
once, at construction; a query evaluates all those rows at its last
coordinate in one vectorized step, then reduces the outer axes one at a
time with splines solved per query (NR ``splin2``, generalized to N-D).
Axes with fewer than three knots automatically fall back to linear
interpolation.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExtrapolationWarning, TableError
from repro.quality.coverage import POINT_EXTRAPOLATED, classify_point, record_lookup
from repro.tables.spline import CubicSpline1D, splint


def _second_derivatives(x: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
    """Spline second derivatives of every row of *y* along its last axis
    (None for the linear fallback of axes with fewer than three knots)."""
    return CubicSpline1D._second_derivatives(x, y) if x.size >= 3 else None


def _reduce_last(x: np.ndarray, y: np.ndarray, y2: Optional[np.ndarray],
                 q: float) -> np.ndarray:
    """Interpolate every row of *y* at *q* along its last axis: cubic
    spline when enough knots, linear otherwise."""
    if y2 is not None:
        return splint(x, y, y2, np.atleast_1d(np.asarray(q, dtype=float)))[..., 0]
    if x.size == 2:
        t = (q - x[0]) / (x[1] - x[0])
        return (1.0 - t) * y[..., 0] + t * y[..., 1]
    return y[..., 0]


class TensorSplineInterpolator:
    """Interpolate values on a rectangular N-D grid with cubic splines.

    Parameters
    ----------
    axes:
        One strictly increasing coordinate array per dimension.
    values:
        Array of shape ``tuple(len(axis) for axis in axes)``.
    warn_on_extrapolation:
        Emit :class:`~repro.errors.ExtrapolationWarning` when a query
        leaves the characterized grid (the spline still answers, using
        the edge polynomial).  The warning message is deliberately
        *stable* (no per-point coordinates), so the stdlib ``warnings``
        dedup shows it to a human once; the per-event record lives in
        the ``table_lookup_extrapolated`` telemetry counters and the
        coverage map, which see every occurrence.
    name:
        Optional table identity; when given, every lookup also feeds
        the process-wide coverage tracker
        (:mod:`repro.quality.coverage`) under this name.
    axis_names:
        Optional per-dimension names used for the per-axis extrapolation
        counters and the coverage map (default: ``axis0``, ``axis1``...).
    """

    def __init__(
        self,
        axes: Sequence[Sequence[float]],
        values,
        warn_on_extrapolation: bool = True,
        name: Optional[str] = None,
        axis_names: Optional[Sequence[str]] = None,
    ):
        self.axes: List[np.ndarray] = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=float)
        if not self.axes:
            raise TableError("need at least one axis")
        expected = tuple(a.size for a in self.axes)
        if self.values.shape != expected:
            raise TableError(
                f"values shape {self.values.shape} does not match axes {expected}"
            )
        for i, axis in enumerate(self.axes):
            if axis.ndim != 1 or axis.size < 1:
                raise TableError(f"axis {i} must be a 1-D array")
            if axis.size > 1 and not np.all(np.diff(axis) > 0.0):
                raise TableError(f"axis {i} must be strictly increasing")
        self.warn_on_extrapolation = warn_on_extrapolation
        self.name = name
        if axis_names is not None and len(axis_names) != len(self.axes):
            raise TableError("axis_names and axes must have the same length")
        self.axis_names: Tuple[str, ...] = tuple(
            str(n) for n in axis_names
        ) if axis_names is not None else tuple(
            f"axis{i}" for i in range(len(self.axes))
        )
        self._inner_y2 = _second_derivatives(self.axes[-1], self.values)

    @property
    def ndim(self) -> int:
        """Number of table dimensions."""
        return len(self.axes)

    def in_range(self, point: Sequence[float]) -> bool:
        """True when *point* lies inside the grid on every axis."""
        return all(
            axis[0] <= q <= axis[-1] for axis, q in zip(self.axes, point)
        )

    def classify(self, point: Sequence[float]) -> Tuple[str, Tuple[str, ...]]:
        """(overall, per-axis) domain classification of a query point.

        Overall is ``interior`` / ``edge`` / ``extrapolated``; per-axis
        entries are ``interior`` / ``edge`` / ``low`` / ``high``.  The
        classifier agrees exactly with :meth:`in_range` on boundary
        points: a query *on* the first or last knot is in range (edge),
        never extrapolated.
        """
        return classify_point(self.axes, point)

    def __call__(self, *point: float) -> float:
        """Evaluate the interpolant at *point* (one coordinate per axis)."""
        if len(point) == 1 and isinstance(point[0], (tuple, list, np.ndarray)):
            point = tuple(point[0])
        if len(point) != self.ndim:
            raise TableError(
                f"expected {self.ndim} coordinates, got {len(point)}"
            )
        overall, _ = record_lookup(
            self.axes, point, name=self.name, axis_names=self.axis_names
        )
        if overall == POINT_EXTRAPOLATED and self.warn_on_extrapolation:
            # Stable message (no coordinates): stdlib warnings dedup
            # keeps the human channel to one line per table while the
            # telemetry counters and coverage hot-spots record every
            # event with the offending geometry.
            warnings.warn(
                f"lookup outside the characterized grid of "
                f"{self.name or 'table'}; extrapolating with the edge "
                "spline (see table_lookup_extrapolated counters / "
                "coverage map for every occurrence)",
                ExtrapolationWarning,
                stacklevel=2,
            )
        reduced = _reduce_last(
            self.axes[-1], self.values, self._inner_y2, point[-1]
        )
        for depth in range(self.ndim - 2, -1, -1):
            axis = self.axes[depth]
            reduced = _reduce_last(
                axis, reduced, _second_derivatives(axis, reduced), point[depth]
            )
        return float(reduced)
