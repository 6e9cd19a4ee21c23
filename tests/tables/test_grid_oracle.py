"""Bitwise oracle for the tensor-product interpolator.

:class:`TensorSplineInterpolator` precomputes the innermost axis's
second derivatives once (NR ``splie2``) and reduces the outer axes with
batched per-query splines (NR ``splin2``, N-D).  The reference below is
the plain recursive successive-1-D construction, written here with
scalar code that shares nothing with the production splines: one
tridiagonal solve per grid row per query.  Both must agree to the
last bit -- ``==``, not approx -- on every grid shape, including the
linear fallbacks of 1- and 2-knot axes, and on on-knot, edge and
extrapolated queries.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ExtrapolationWarning
from repro.tables.grid import TensorSplineInterpolator
from repro.tables.spline import CubicSpline1D


def _natural_y2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Scalar NR ``spline`` recurrence for one row."""
    n = x.size
    y2 = np.zeros(n)
    if n == 2:
        return y2
    u = np.zeros(n)
    for i in range(1, n - 1):
        sig = (x[i] - x[i - 1]) / (x[i + 1] - x[i - 1])
        p = sig * y2[i - 1] + 2.0
        y2[i] = (sig - 1.0) / p
        u[i] = (
            (y[i + 1] - y[i]) / (x[i + 1] - x[i])
            - (y[i] - y[i - 1]) / (x[i] - x[i - 1])
        )
        u[i] = (6.0 * u[i] / (x[i + 1] - x[i - 1]) - sig * u[i - 1]) / p
    for k in range(n - 2, -1, -1):
        y2[k] = y2[k] * y2[k + 1] + u[k]
    return y2


def _spline_at(x: np.ndarray, y: np.ndarray, q: float) -> float:
    """Scalar NR ``splint`` of the natural spline through one row."""
    y2 = _natural_y2(x, y)
    xq = np.atleast_1d(np.asarray(q, dtype=float))
    hi = np.clip(np.searchsorted(x, xq), 1, x.size - 1)
    lo = hi - 1
    h = x[hi] - x[lo]
    a = (x[hi] - xq) / h
    b = (xq - x[lo]) / h
    result = (
        a * y[lo]
        + b * y[hi]
        + ((a ** 3 - a) * y2[lo] + (b ** 3 - b) * y2[hi])
        * (h ** 2) / 6.0
    )
    return float(result[0])


def _interp_1d(x: np.ndarray, y: np.ndarray, q: float) -> float:
    """Cubic spline when enough knots, linear otherwise."""
    if x.size >= 3:
        return _spline_at(x, y, q)
    if x.size == 2:
        t = (q - x[0]) / (x[1] - x[0])
        return float((1.0 - t) * y[0] + t * y[1])
    return float(y[0])


def reference(axes, values: np.ndarray, point, depth: int = 0) -> float:
    """Recursive successive-1-D evaluation (no precomputation)."""
    axis = axes[depth]
    if depth == len(axes) - 1:
        return _interp_1d(axis, values, point[depth])
    reduced = np.array([
        reference(axes, values[i], point, depth + 1)
        for i in range(axis.size)
    ])
    return _interp_1d(axis, reduced, point[depth])


def _random_axis(rng, size: int) -> np.ndarray:
    """Strictly increasing, unevenly spaced knots."""
    return np.cumsum(rng.uniform(0.2, 3.0, size)) - rng.uniform(0.0, 5.0)


def _queries(rng, axes, count: int):
    """On-knot, first/last-knot (edge) and off-grid (extrapolated) points
    mixed per coordinate, plus interior ones."""
    for _ in range(count):
        point = []
        for axis in axes:
            kind = rng.integers(4)
            if kind == 0:
                point.append(float(axis[rng.integers(axis.size)]))
            elif kind == 1:
                point.append(float(axis[0] if rng.integers(2) else axis[-1]))
            elif kind == 2:
                span = max(axis[-1] - axis[0], 1.0)
                offset = rng.uniform(0.01, 1.0) * span
                point.append(float(axis[0] - offset if rng.integers(2)
                                   else axis[-1] + offset))
            else:
                point.append(float(rng.uniform(axis[0], axis[-1])))
        yield tuple(point)


SHAPES = [
    (1,), (2,), (3,), (9,),
    (1, 5), (2, 4), (4, 2), (3, 3), (6, 1),
    (3, 2, 5), (1, 4, 3), (4, 3, 6),
    (3, 3, 4, 7), (2, 3, 1, 4), (3, 2, 2, 3),
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_interpolator_is_bitwise_equal_to_recursive_reference(shape):
    rng = np.random.default_rng(sum(shape) * 31 + len(shape))
    axes = [_random_axis(rng, n) for n in shape]
    values = rng.normal(size=shape) * 10.0 ** rng.uniform(-12.0, 3.0)
    interp = TensorSplineInterpolator(axes, values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        for point in _queries(rng, axes, 60):
            assert interp(*point) == reference(axes, values, point), point


def test_integer_coordinates_match_reference():
    axes = [np.array([0.0, 1.0, 3.0, 4.0]), np.array([1.0, 2.0])]
    values = np.arange(8.0).reshape(4, 2) ** 1.5
    interp = TensorSplineInterpolator(axes, values)
    for point in [(0, 1), (2, 2), (3, 1)]:
        assert interp(*point) == reference(axes, values, point)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_row_batched_second_derivatives_equal_per_row(n):
    rng = np.random.default_rng(n)
    x = _random_axis(rng, n)
    rows = rng.normal(size=(2, 5, n)) * 1e-9
    batched = CubicSpline1D._second_derivatives(x, rows)
    assert batched.shape == rows.shape
    for index in np.ndindex(rows.shape[:-1]):
        per_row = _natural_y2(x, rows[index])
        assert np.array_equal(batched[index], per_row)
        assert np.array_equal(
            CubicSpline1D._second_derivatives(x, rows[index]), per_row)
