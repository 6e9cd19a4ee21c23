"""Closed-form on-chip capacitance models and the 3-trace decomposition.

The paper treats capacitance as a short-range effect: for any trace only
the couplings to its two nearest neighbours and to the plane/orthogonal
layer below matter, so the n-trace capacitance problem decomposes into
3-trace subproblems (Sec. II).  The closed forms here follow the classic
Sakurai-Tamaru fits (T. Sakurai, K. Tamaru, "Simple formulas for two- and
three-dimensional capacitances", IEEE T-ED 1983), which are accurate to a
few percent over on-chip aspect ratios and are validated in the test
suite against the 2-D finite-difference solver in
:mod:`repro.rc.fieldsolver2d`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import EPS_0, EPS_R_SIO2
from repro.errors import GeometryError
from repro.geometry.trace import TraceBlock


def ground_capacitance(
    width: float,
    thickness: float,
    height: float,
    length: float,
    eps_r: float = EPS_R_SIO2,
) -> float:
    """Capacitance of an isolated line to a ground plane below [F].

    Sakurai-Tamaru single-line fit (area + fringe):

        C / (eps l) = w/h + 0.77 + 1.06 (w/h)^0.25 + 1.06 (t/h)^0.5
    """
    _require_positive(width=width, thickness=thickness, height=height, length=length)
    eps = EPS_0 * eps_r
    w_h = width / height
    t_h = thickness / height
    per_length = w_h + 0.77 + 1.06 * w_h ** 0.25 + 1.06 * t_h ** 0.5
    return eps * length * per_length


def coupling_capacitance(
    width: float,
    thickness: float,
    height: float,
    spacing: float,
    length: float,
    eps_r: float = EPS_R_SIO2,
) -> float:
    """Line-to-line coupling capacitance of two parallel lines [F].

    Sakurai-Tamaru coupled-line fit for the mutual term between two equal
    lines over a ground plane:

        C21 / (eps l) = (0.03 w/h + 0.83 t/h - 0.07 (t/h)^0.222)
                        * (s/h)^-1.34
    """
    _require_positive(
        width=width, thickness=thickness, height=height,
        spacing=spacing, length=length,
    )
    eps = EPS_0 * eps_r
    w_h = width / height
    t_h = thickness / height
    s_h = spacing / height
    per_length = (0.03 * w_h + 0.83 * t_h - 0.07 * t_h ** 0.222) * s_h ** -1.34
    return max(per_length, 0.0) * eps * length


def shielded_ground_capacitance(
    width: float,
    thickness: float,
    height: float,
    spacing: float,
    length: float,
    eps_r: float = EPS_R_SIO2,
) -> float:
    """Ground capacitance of a line flanked by neighbours at *spacing* [F].

    Neighbours steal fringe field; Sakurai's three-line correction reduces
    the isolated-line fringe as the neighbours close in:

        C / (eps l) = w/h + 0.77 + 1.06 (w/h)^0.25 + 1.06 (t/h)^0.5
                      - 2 * fringe_shield(s/h)

    modeled with an exponential shielding factor that vanishes for
    s >> h and removes most of the lateral fringe for s << h.
    """
    isolated = ground_capacitance(width, thickness, height, length, eps_r)
    _require_positive(spacing=spacing)
    eps = EPS_0 * eps_r
    # Lateral fringe component of the isolated line (everything except the
    # parallel-plate term and the top fringe).
    w_h = width / height
    lateral_fringe = eps * length * (0.77 + 1.06 * w_h ** 0.25) * 0.5
    shielding = np.exp(-1.5 * spacing / height)
    return isolated - 2.0 * lateral_fringe * float(shielding)


@dataclass
class CapacitanceModel:
    """Capacitance extraction settings for a routing environment.

    Parameters
    ----------
    height_below:
        Dielectric distance from trace bottom to the reference below
        (local ground plane, or the orthogonal signal layer treated as an
        AC ground in the paper's Fig. 1 setup) [m].
    eps_r:
        Relative permittivity of the dielectric.
    neighbour_range:
        How many neighbours on each side couple capacitively; the paper's
        short-range argument uses 1 (adjacent only).
    """

    height_below: float
    eps_r: float = EPS_R_SIO2
    neighbour_range: int = 1

    def __post_init__(self) -> None:
        if self.height_below <= 0.0:
            raise GeometryError("height_below must be positive")
        if self.neighbour_range < 1:
            raise GeometryError("neighbour_range must be >= 1")


def block_capacitance_matrix(
    block: TraceBlock,
    model: CapacitanceModel,
) -> np.ndarray:
    """Maxwell capacitance matrix of a trace block [F].

    Implements the paper's short-range decomposition: every trace gets a
    ground capacitance (shielded by its nearest neighbours) plus coupling
    capacitances to neighbours within ``model.neighbour_range``.  The
    result is the standard Maxwell form: ``C[i][i]`` is the total
    capacitance of trace i, ``C[i][j] = -C_coupling(i, j)``.
    """
    n = len(block)
    matrix = np.zeros((n, n))
    traces = block.traces
    for i, trace in enumerate(traces):
        neighbour_spacings = []
        if i > 0:
            neighbour_spacings.append(block.spacing(i - 1))
        if i < n - 1:
            neighbour_spacings.append(block.spacing(i))
        if neighbour_spacings:
            spacing = min(neighbour_spacings)
            cg = shielded_ground_capacitance(
                trace.width, trace.thickness, model.height_below,
                spacing, trace.length, model.eps_r,
            )
        else:
            cg = ground_capacitance(
                trace.width, trace.thickness, model.height_below,
                trace.length, model.eps_r,
            )
        matrix[i, i] += cg
        for j in range(i + 1, min(i + 1 + model.neighbour_range, n)):
            spacing = traces[i].edge_to_edge_spacing(traces[j])
            width_pair = min(traces[i].width, traces[j].width)
            cc = coupling_capacitance(
                width_pair, trace.thickness, model.height_below,
                spacing, trace.length, model.eps_r,
            )
            matrix[i, j] -= cc
            matrix[j, i] -= cc
            matrix[i, i] += cc
            matrix[j, j] += cc
    return matrix


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (value > 0.0):
            raise GeometryError(f"{name} must be positive, got {value!r}")
