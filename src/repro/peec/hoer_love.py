"""Exact partial inductance of rectangular bars (Hoer-Love closed form).

This module is the numerical kernel of the RI3/FastHenry-equivalent field
solver: the six-fold Neumann volume integral between two parallel
rectangular conductors with uniform current density has an exact closed
form (C. Hoer and C. Love, *Exact inductance equations for rectangular
conductors with applications to more complicated geometries*, J. Res. NBS,
1965; restated by Ruehli 1972 and Zhong & Koh 2003).  The same expression
with both volumes coincident yields the exact self partial inductance.

All evaluations are vectorized over NumPy arrays so that the PEEC solver
can assemble full partial-inductance matrices in a handful of array
operations.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.constants import MU_0
from repro.errors import GeometryError
from repro.geometry.primitives import RectBar


def _log_term(a, b, c, rho):
    """(b^2 c^2/4 - b^4/24 - c^4/24) * a * ln((a + rho) / sqrt(b^2 + c^2)).

    Degenerate evaluation points (a == 0 or b == c == 0) contribute zero;
    they are masked out instead of letting log(0) poison the sum.
    """
    coeff = (b * b * c * c) / 4.0 - (b ** 4) / 24.0 - (c ** 4) / 24.0
    den_sq = b * b + c * c
    safe_den = np.where(den_sq > 0.0, np.sqrt(den_sq), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_part = np.log((a + rho) / safe_den)
        log_part = np.where(np.isfinite(log_part), log_part, 0.0)
        term = coeff * a * log_part
    return np.where((a > 0.0) & (den_sq > 0.0), term, 0.0)


def _atan_term(a, b, c, rho):
    """-(a b^3 c / 6) * atan(a c / (b rho)); zero when any factor vanishes."""
    mask = (a > 0.0) & (b > 0.0) & (c > 0.0)
    safe_b = np.where(mask, b, 1.0)
    safe_rho = np.where(rho > 0.0, rho, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        atan_part = np.arctan((a * c) / (safe_b * safe_rho))
        atan_part = np.where(np.isfinite(atan_part), atan_part, 0.0)
        term = -(a * b ** 3 * c) / 6.0 * atan_part
    return np.where(mask, term, 0.0)


def _primitive(x, y, z):
    """The Hoer-Love primitive f(x, y, z) (even in each argument)."""
    x = np.abs(np.asarray(x, dtype=float))
    y = np.abs(np.asarray(y, dtype=float))
    z = np.abs(np.asarray(z, dtype=float))
    rho = np.sqrt(x * x + y * y + z * z)
    result = (
        (x ** 4 + y ** 4 + z ** 4
         - 3.0 * (x * x * y * y + y * y * z * z + z * z * x * x))
        * rho / 60.0
    )
    result = result + _log_term(x, y, z, rho)
    result = result + _log_term(y, x, z, rho)
    result = result + _log_term(z, x, y, rho)
    result = result + _atan_term(x, y, z, rho)
    result = result + _atan_term(y, x, z, rho)
    result = result + _atan_term(x, z, y, rho)
    return result


#: Separation-to-size ratio above which the filament approximation is
#: used instead of the closed form.  The quadruple second-difference of
#: the Hoer-Love primitive cancels catastrophically when the
#: cross-sections are tiny compared to the separation (relative error
#: >1 % below ratio ~0.01 in float64), while the filament/GMD
#: approximation's error there is O((size/d)^2) < 1e-4 -- the same
#: switch-over FastHenry applies.
_FILAMENT_SWITCH_RATIO = 0.05


def _filament_mutual(x1, l1, x2, l2, distance):
    """Neumann mutual of two parallel filaments with longitudinal offset."""
    def primitive(u):
        root = np.sqrt(u * u + distance * distance)
        return u * np.arcsinh(u / np.maximum(distance, 1e-300)) - root

    total = (
        primitive(x1 + l1 - x2)
        - primitive(x1 - x2)
        - primitive(x1 + l1 - x2 - l2)
        + primitive(x1 - x2 - l2)
    )
    return (MU_0 / (4.0 * math.pi)) * total


def _axis_points(p, extent_p, q, extent_q):
    """Second-difference evaluation points and signs for one axis.

    The double integral over ``[p, p+P] x [q, q+Q]`` of a kernel g(u - v)
    equals ``G(p+P-q) - G(p-q) - G(p+P-q-Q) + G(p-q-Q)`` where G is the
    second antiderivative of g.
    """
    return (
        (p + extent_p - q, 1.0),
        (p - q, -1.0),
        (p + extent_p - q - extent_q, -1.0),
        (p - q - extent_q, 1.0),
    )


def canonical_pair_parameters(l1, w1, t1, l2, w2, t2, ox, oy, oz):
    """Canonical relative-geometry parameters of parallel-bar pairs.

    A pair of x-directed bars is fully described -- up to a translation
    the Neumann integral is invariant under -- by the two cross-section
    extents plus the offset ``(ox, oy, oz)`` of bar 2's origin relative
    to bar 1's.  The mutual inductance is also symmetric under swapping
    the bars, which maps ``(dims1, dims2, o)`` to ``(dims2, dims1, -o)``.
    This helper picks the lexicographically smaller of the two
    orientations (and normalizes ``-0.0`` offsets to ``+0.0``) so that

    * ``M(bar1, bar2)`` and ``M(bar2, bar1)`` evaluate bit-identical
      floating-point expressions (exactly symmetric Lp matrices), and
    * geometrically congruent pairs share one bitwise-unique parameter
      tuple -- the deduplication key of the fast assembly path in
      :mod:`repro.peec.kernel`.

    All nine arguments broadcast together; returns the nine canonical
    arrays in the same order.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in
                                 (l1, w1, t1, l2, w2, t2, ox, oy, oz)))
    l1, w1, t1, l2, w2, t2, ox, oy, oz = args
    swap = np.zeros(np.shape(ox), dtype=bool)
    undecided = np.ones(np.shape(ox), dtype=bool)
    # Columns 4-6 of the swapped tuple mirror columns 1-3, so comparing
    # (dims2 vs dims1) then (-o vs o) decides the full lexicographic order.
    for a, b in ((l2, l1), (w2, w1), (t2, t1),
                 (-ox, ox), (-oy, oy), (-oz, oz)):
        less = undecided & (a < b)
        swap = swap | less
        undecided = undecided & ~(less | (a > b))
    out_l1 = np.where(swap, l2, l1)
    out_w1 = np.where(swap, w2, w1)
    out_t1 = np.where(swap, t2, t1)
    out_l2 = np.where(swap, l1, l2)
    out_w2 = np.where(swap, w1, w2)
    out_t2 = np.where(swap, t1, t2)
    out_ox = np.where(swap, -ox, ox) + 0.0
    out_oy = np.where(swap, -oy, oy) + 0.0
    out_oz = np.where(swap, -oz, oz) + 0.0
    return out_l1, out_w1, out_t1, out_l2, out_w2, out_t2, out_ox, out_oy, out_oz


#: Pairs per stacked evaluation.  A chunk's 64 second-difference
#: corners go through one :func:`_primitive` call, so every temporary
#: holds ``64 * _PAIR_CHUNK`` floats (512 KiB); large broadcasts (a naive
#: n x n assembly) are walked chunk by chunk to keep that bound.
_PAIR_CHUNK = 1024


def mutual_inductance_batch(
    x1, l1, y1, w1, z1, t1,
    x2, l2, y2, w2, z2, t2,
):
    """Exact mutual partial inductance for arrays of parallel-bar pairs [H].

    Both bars of every pair carry current along x; each bar ``i`` occupies
    ``[xi, xi+li] x [yi, yi+wi] x [zi, zi+ti]``.  All twelve arguments
    broadcast together, so a full Lp matrix can be assembled with one call
    on meshgrid-style inputs.  Passing the same geometry for both bars
    yields the exact self partial inductance.  Non-finite arguments raise
    :class:`~repro.errors.GeometryError`.

    Every pair is evaluated in a canonical frame: bar 1 is re-anchored at
    the origin (the integral is translation invariant, and forming the
    relative offsets *first* keeps the second differences away from
    absolute-coordinate rounding noise), the two bars are ordered by
    :func:`canonical_pair_parameters` (so the result is exactly symmetric
    under operand swap), and each pair is scaled by its own largest
    extent.  The value therefore depends only on the pair's relative
    geometry -- bit-for-bit -- no matter how the surrounding batch is
    composed, which is what makes the deduplicating assembly and the memo
    cache of :mod:`repro.peec.kernel` exact rather than approximate.
    """
    args = [np.asarray(a, dtype=float) for a in
            (x1, l1, y1, w1, z1, t1, x2, l2, y2, w2, z2, t2)]
    if not all(np.all(np.isfinite(a)) for a in args):
        raise GeometryError("bar positions and extents must be finite")
    args = np.broadcast_arrays(*args)
    shape = args[0].shape
    chunks = [
        _mutual_chunk(*(a.flat[start:start + _PAIR_CHUNK] for a in args))
        for start in range(0, args[0].size, _PAIR_CHUNK)
    ]
    exact = np.concatenate(chunks) if chunks else np.zeros(0)
    if not shape:
        return float(exact[0])
    return exact.reshape(shape)


def _mutual_chunk(x1, l1, y1, w1, z1, t1, x2, l2, y2, w2, z2, t2):
    """:func:`mutual_inductance_batch` on 1-D arrays of at most
    :data:`_PAIR_CHUNK` pairs."""
    ox = x2 - x1 + 0.0
    oy = y2 - y1 + 0.0
    oz = z2 - z1 + 0.0
    l1, w1, t1, l2, w2, t2, ox, oy, oz = canonical_pair_parameters(
        l1, w1, t1, l2, w2, t2, ox, oy, oz)
    # Scale each pair to its characteristic length: f ~ length^5 over
    # areas ~ length^4, so M scales linearly and scaling improves
    # floating-point conditioning.  The scale is a per-pair quantity so
    # the result is independent of the batch composition.
    scale = np.maximum.reduce(
        [np.abs(a) for a in (l1, l2, w1, w2, t1, t2)])
    if not np.all(scale > 0.0):
        raise GeometryError("bars must have positive extents")
    inv = 1.0 / scale
    zero = np.zeros(np.shape(ox))
    x1, y1, z1 = zero, zero, zero
    l1, w1, t1 = l1 * inv, w1 * inv, t1 * inv
    x2, y2, z2 = ox * inv, oy * inv, oz * inv
    l2, w2, t2 = l2 * inv, w2 * inv, t2 * inv

    # The 4 x 4 x 4 corners of the sextuple second difference, stacked
    # x-major into one (4, 4, 4, m) evaluation of the primitive.  The
    # corner coordinates enter as broadcast (4, 1, 1, m)-style arrays,
    # so per-axis powers are computed once per axis corner.
    axes = (_axis_points(x1, l1, x2, l2),
            _axis_points(y1, w1, y2, w2),
            _axis_points(z1, t1, z2, t2))
    vx, vy, vz = (np.stack([value for value, _ in axis]) for axis in axes)
    values = _primitive(vx[:, None, None], vy[None, :, None],
                        vz[None, None, :]).reshape(64, ox.size)
    # Signed rows summed one at a time in corner order: the float sum
    # does not depend on how the pairs were chunked or batched.  Adding
    # -v is subtracting v, so the +-1 signs need no multiply.
    total = 0.0
    corner = 0
    for _, sx in axes[0]:
        for _, sy in axes[1]:
            for _, sz in axes[2]:
                if sx * sy * sz > 0.0:
                    total = total + values[corner]
                else:
                    total = total - values[corner]
                corner += 1

    area_product = w1 * t1 * w2 * t2
    exact = (MU_0 / (4.0 * math.pi)) * total / area_product * scale

    # Far pairs: the closed form cancels catastrophically, the filament
    # approximation (centre-to-centre distance) is essentially exact.
    dy = (y1 + w1 / 2.0) - (y2 + w2 / 2.0)
    dz = (z1 + t1 / 2.0) - (z2 + t2 / 2.0)
    distance = np.sqrt(dy * dy + dz * dz)
    size = np.maximum(w1 + t1, w2 + t2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(distance > 0.0, size / np.maximum(distance, 1e-300), np.inf)
    use_filament = ratio < _FILAMENT_SWITCH_RATIO
    if np.any(use_filament):
        filament = _filament_mutual(x1, l1, x2, l2, distance) * scale
        exact = np.where(use_filament, filament, exact)
    return exact


def _bar_to_x_frame(bar: RectBar) -> Tuple[float, float, float, float, float, float]:
    """Map a bar to (x0, l, y0, w, z0, t) with current along x.

    Bars along y or z are rotated into the x-frame by a coordinate
    permutation, which leaves the Neumann integral invariant.
    """
    o = bar.origin
    if bar.axis == "x":
        return (o.x, bar.length, o.y, bar.width, o.z, bar.thickness)
    if bar.axis == "y":
        # current axis y -> x; transverse (x -> y, z -> z)
        return (o.y, bar.length, o.x, bar.width, o.z, bar.thickness)
    # axis z: current axis z -> x; transverse (x -> y, y -> z)
    return (o.z, bar.length, o.x, bar.width, o.y, bar.thickness)


def bar_mutual_inductance(bar1: RectBar, bar2: RectBar) -> float:
    """Exact mutual partial inductance between two parallel bars [H].

    Orthogonal bars have (exactly) zero mutual partial inductance under
    the PEEC model -- the property the paper uses to ignore adjacent
    orthogonal routing layers -- and this function returns 0.0 for them.
    """
    if bar1.is_orthogonal_to(bar2):
        return 0.0
    g1 = _bar_to_x_frame(bar1)
    g2 = _bar_to_x_frame(bar2)
    value = mutual_inductance_batch(
        g1[0], g1[1], g1[2], g1[3], g1[4], g1[5],
        g2[0], g2[1], g2[2], g2[3], g2[4], g2[5],
    )
    return float(value)


def bar_self_inductance(bar: RectBar) -> float:
    """Exact self partial inductance of a rectangular bar [H]."""
    return bar_mutual_inductance(bar, bar)
