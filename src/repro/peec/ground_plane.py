"""Local ground planes for microstrip / stripline inductance extraction.

The paper's extension of the Foundations covers blocks with wide
power/ground wires in layer N+2 or N-2 acting as local ground planes.  A
continuous (or densely meshed) plane is modeled in the PEEC solver as an
array of parallel strips, all joining the merged return nodes at both
ends -- exactly the "merged ground nodes with the far end sink nodes"
construction of Sec. II-B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.constants import RHO_CU
from repro.errors import GeometryError
from repro.geometry.primitives import Point3D, RectBar
from repro.geometry.trace import TraceBlock


@dataclass(frozen=True)
class GroundPlane:
    """A rectangular ground plane, meshed into strips along the signal axis.

    Parameters
    ----------
    length:
        Extent along the current direction (x) [m].
    width:
        Transverse extent (y) [m].
    thickness:
        Metal thickness [m].
    z_bottom:
        Elevation of the bottom face [m].
    y_offset:
        Transverse position of the left edge [m].
    x_offset:
        Longitudinal position of the near edge [m].
    resistivity:
        Conductor resistivity [ohm*m].
    n_strips:
        Number of strips used to discretize the plane.
    """

    length: float
    width: float
    thickness: float
    z_bottom: float
    y_offset: float = 0.0
    x_offset: float = 0.0
    resistivity: float = RHO_CU
    n_strips: int = 11

    def __post_init__(self) -> None:
        if self.length <= 0.0 or self.width <= 0.0 or self.thickness <= 0.0:
            raise GeometryError("plane extents must be positive")
        if self.n_strips < 1:
            raise GeometryError("plane needs at least one strip")

    def to_strips(self) -> List[RectBar]:
        """Discretize the plane into equal-width strips carrying x current."""
        strip_width = self.width / self.n_strips
        strips = []
        for i in range(self.n_strips):
            strips.append(
                RectBar(
                    origin=Point3D(
                        self.x_offset,
                        self.y_offset + i * strip_width,
                        self.z_bottom,
                    ),
                    length=self.length,
                    width=strip_width,
                    thickness=self.thickness,
                    axis="x",
                )
            )
        return strips


def plane_under_block(
    block: TraceBlock,
    gap: float,
    margin: float = None,
    thickness: float = None,
    resistivity: float = RHO_CU,
    n_strips: int = 11,
) -> GroundPlane:
    """A local ground plane centred under a trace block (microstrip).

    Parameters
    ----------
    block:
        The trace block the plane shields.
    gap:
        Dielectric gap between the bottom of the block's traces and the
        top of the plane [m].
    margin:
        Extra plane width beyond each side of the block (defaults to the
        block's total width, i.e. the plane is three block-widths wide).
    thickness:
        Plane metal thickness (defaults to the trace thickness).
    """
    if gap <= 0.0:
        raise GeometryError("plane gap must be positive")
    first = block.traces[0]
    if margin is None:
        margin = block.total_width
    if thickness is None:
        thickness = first.thickness
    z_top = first.z_bottom - gap
    z_bottom = z_top - thickness
    if z_bottom < -1.0:  # sanity: planes metres below the die are a bug
        raise GeometryError("plane ends up implausibly far below the block")
    return GroundPlane(
        length=block.length,
        width=block.total_width + 2.0 * margin,
        thickness=thickness,
        z_bottom=z_bottom,
        y_offset=first.y_offset - margin,
        x_offset=first.x_offset,
        resistivity=resistivity,
        n_strips=n_strips,
    )


def plane_over_block(
    block: TraceBlock,
    gap: float,
    margin: float = None,
    thickness: float = None,
    resistivity: float = RHO_CU,
    n_strips: int = 11,
) -> GroundPlane:
    """A local ground plane centred above a trace block.

    Combine with :func:`plane_under_block` for a stripline configuration.
    """
    if gap <= 0.0:
        raise GeometryError("plane gap must be positive")
    first = block.traces[0]
    if margin is None:
        margin = block.total_width
    if thickness is None:
        thickness = first.thickness
    z_bottom = first.z_bottom + first.thickness + gap
    return GroundPlane(
        length=block.length,
        width=block.total_width + 2.0 * margin,
        thickness=thickness,
        z_bottom=z_bottom,
        y_offset=first.y_offset - margin,
        x_offset=first.x_offset,
        resistivity=resistivity,
        n_strips=n_strips,
    )
