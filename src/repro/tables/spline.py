"""Natural cubic and bicubic splines (Numerical Recipes 3.3 / 3.6).

The paper interpolates its inductance tables with "a bi-cubic spline
algorithm [10]" citing Numerical Recipes; this module implements exactly
those routines: a natural cubic spline (``spline``/``splint``) and the
successive-1-D bicubic construction (``splie2``/``splin2``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import TableError


def splint(x: np.ndarray, y: np.ndarray, y2: np.ndarray,
           xq: np.ndarray) -> np.ndarray:
    """Evaluate natural splines at the 1-D query array *xq* (NR ``splint``).

    *y* and *y2* are knot values and second derivatives of one spline
    ``(n,)`` or of a batch ``(..., n)`` sharing the knots *x*; the result
    is ``(m,)`` or ``(..., m)``.  The interval terms (``a``, ``b``,
    ``h``) depend on the query alone and are computed once for every
    row.  Outside the knot range the edge interval's cubic is used.
    """
    # locate intervals; clip so extrapolation reuses the edge cubics
    hi = np.clip(np.searchsorted(x, xq), 1, x.size - 1)
    lo = hi - 1
    h = x[hi] - x[lo]
    a = (x[hi] - xq) / h
    b = (xq - x[lo]) / h
    return (
        a * y[..., lo]
        + b * y[..., hi]
        + ((a ** 3 - a) * y2[..., lo] + (b ** 3 - b) * y2[..., hi])
        * (h ** 2) / 6.0
    )


class CubicSpline1D:
    """Natural cubic spline through ``(x, y)`` knots.

    Outside the knot range the cubic of the nearest interval is used,
    which for a natural spline degrades gracefully toward linear
    extrapolation.
    """

    def __init__(self, x: Sequence[float], y: Sequence[float]):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise TableError("x and y must be 1-D arrays of equal length")
        if x.size < 2:
            raise TableError("need at least two knots")
        if not np.all(np.diff(x) > 0.0):
            raise TableError("knots must be strictly increasing")
        self.x = x
        self.y = y
        self.y2 = self._second_derivatives(x, y)

    @staticmethod
    def _second_derivatives(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Tridiagonal solve for natural-spline second derivatives.

        *y* holds the knot values of one spline ``(n,)`` or of a batch
        of splines sharing the knots *x* ``(rows, n)``; the recurrence
        runs across every row at once (NR ``splie2``) and the result has
        the shape of *y*.
        """
        n = x.size
        y2 = np.zeros(y.shape)
        if n == 2:
            return y2  # natural spline through two points is a line
        u = np.zeros(y.shape)
        for i in range(1, n - 1):
            sig = (x[i] - x[i - 1]) / (x[i + 1] - x[i - 1])
            p = sig * y2[..., i - 1] + 2.0
            y2[..., i] = (sig - 1.0) / p
            u[..., i] = (
                (y[..., i + 1] - y[..., i]) / (x[i + 1] - x[i])
                - (y[..., i] - y[..., i - 1]) / (x[i] - x[i - 1])
            )
            u[..., i] = (
                6.0 * u[..., i] / (x[i + 1] - x[i - 1]) - sig * u[..., i - 1]
            ) / p
        for k in range(n - 2, -1, -1):
            y2[..., k] = y2[..., k] * y2[..., k + 1] + u[..., k]
        return y2

    def __call__(self, x_query):
        """Evaluate the spline (scalar or array input)."""
        xq = np.asarray(x_query, dtype=float)
        scalar = xq.ndim == 0
        result = splint(self.x, self.y, self.y2, np.atleast_1d(xq))
        return float(result[0]) if scalar else result

    def in_range(self, x_query: float) -> bool:
        """True when *x_query* lies inside the knot range."""
        return bool(self.x[0] <= x_query <= self.x[-1])


class BicubicSpline:
    """Bicubic spline on a rectangular grid (NR ``splie2``/``splin2``).

    Precomputes a row of 1-D splines along the second axis; evaluation
    splines the row results along the first axis.
    """

    def __init__(self, x1: Sequence[float], x2: Sequence[float], values):
        values = np.asarray(values, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if values.shape != (x1.size, x2.size):
            raise TableError(
                f"values shape {values.shape} does not match grid "
                f"({x1.size}, {x2.size})"
            )
        self.x1 = x1
        self.x2 = x2
        self.values = values
        self._row_splines = [CubicSpline1D(x2, row) for row in values]

    def __call__(self, q1: float, q2: float) -> float:
        """Evaluate at ``(q1, q2)``."""
        column = np.array([spline(q2) for spline in self._row_splines])
        return float(CubicSpline1D(self.x1, column)(q1))

    def in_range(self, q1: float, q2: float) -> bool:
        """True when the query lies inside the characterized grid."""
        return bool(
            self.x1[0] <= q1 <= self.x1[-1] and self.x2[0] <= q2 <= self.x2[-1]
        )
