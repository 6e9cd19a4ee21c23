"""Clocktree interconnect configurations (paper Figs. 8 and 9).

Two basic building blocks route the clock:

* :class:`CoplanarWaveguideConfig` -- ground / signal / ground in one
  layer (Fig. 8); returns flow in the coplanar shields.  An optional
  local ground plane two layers down adds a microstrip-style return.
* :class:`MicrostripConfig` -- a signal wire over a local ground plane
  (Fig. 9); the return flows in the plane.

Each configuration produces the three artefacts extraction needs: a
:class:`~repro.geometry.trace.TraceBlock` (inductance geometry), a
:class:`~repro.peec.loop.LoopProblem` factory (for loop-L table
characterization) and a 2-D :class:`~repro.rc.fieldsolver2d.CrossSection2D`
(for capacitance characterization).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.constants import EPS_R_SIO2, RHO_CU
from repro.errors import GeometryError
from repro.geometry.trace import TraceBlock
from repro.peec.ground_plane import plane_over_block, plane_under_block
from repro.peec.loop import LoopProblem
from repro.rc.capacitance import CapacitanceModel
from repro.rc.fieldsolver2d import ConductorRect, CrossSection2D


@dataclass(frozen=True)
class CoplanarWaveguideConfig:
    """Ground-signal-ground clock routing (Fig. 8, and the Fig. 1 example).

    Parameters
    ----------
    signal_width, ground_width, spacing, thickness:
        The coplanar cross-section [m].
    height_below:
        Distance to the capacitive reference underneath: the orthogonal
        signal layer the paper's Fig. 1 assumes, or a real ground plane
        [m].
    plane_gap:
        When set, a *local ground plane* this far below the traces also
        carries return current (the common shielding practice of Sec. V);
        ``None`` leaves returns purely coplanar (orthogonal routing below
        contributes no inductive coupling).
    """

    signal_width: float
    ground_width: float
    spacing: float
    thickness: float
    height_below: float
    plane_gap: Optional[float] = None
    plane_n_strips: int = 9
    resistivity: float = RHO_CU
    eps_r: float = EPS_R_SIO2

    def __post_init__(self) -> None:
        required = (
            self.signal_width, self.ground_width, self.spacing,
            self.thickness, self.height_below,
        )
        if min(required) <= 0.0:
            raise GeometryError("all CPW dimensions must be positive")
        if self.plane_gap is not None and self.plane_gap <= 0.0:
            raise GeometryError("plane_gap must be positive when given")

    def with_signal_width(self, signal_width: float) -> "CoplanarWaveguideConfig":
        """A copy routed with a different signal width."""
        return replace(self, signal_width=signal_width)

    def trace_block(self, length: float, signal_width: Optional[float] = None) -> TraceBlock:
        """The three-trace block for a segment of *length*."""
        return TraceBlock.coplanar_waveguide(
            signal_width=signal_width if signal_width is not None else self.signal_width,
            ground_width=self.ground_width,
            spacing=self.spacing,
            length=length,
            thickness=self.thickness,
        )

    def loop_problem(
        self,
        signal_width: float,
        length: float,
        n_width: int = 4,
        n_thickness: int = 2,
        grading: float = 1.5,
    ) -> LoopProblem:
        """Loop-L extraction problem (the table-builder factory)."""
        block = self.trace_block(length, signal_width=signal_width)
        plane = None
        if self.plane_gap is not None:
            plane = plane_under_block(
                block, gap=self.plane_gap, n_strips=self.plane_n_strips,
                resistivity=self.resistivity,
            )
        return LoopProblem(
            block,
            plane=plane,
            n_width=n_width,
            n_thickness=n_thickness,
            grading=grading,
            resistivity=self.resistivity,
        )

    def cross_section(
        self,
        signal_width: Optional[float] = None,
        spacing: Optional[float] = None,
    ) -> CrossSection2D:
        """Unit-length 2-D cross-section for capacitance extraction.

        The grounded bottom edge sits *height_below* under the traces
        (the orthogonal layer / plane); the coplanar shield traces are
        explicit conductors so the field solve captures their shielding.
        """
        width = signal_width if signal_width is not None else self.signal_width
        gap = spacing if spacing is not None else self.spacing
        block = TraceBlock.coplanar_waveguide(
            signal_width=width,
            ground_width=self.ground_width,
            spacing=gap,
            length=1.0,
            thickness=self.thickness,
        )
        return CrossSection2D.from_block(block, plane_gap=self.height_below,
                                         eps_r=self.eps_r)

    def capacitance_model(self) -> CapacitanceModel:
        """Closed-form capacitance settings for this environment."""
        return CapacitanceModel(height_below=self.height_below, eps_r=self.eps_r)

    def ground_conductor_names(self) -> List[str]:
        """Names of the AC-grounded conductors in the cross-section."""
        return ["GND_L", "GND_R"]


@dataclass(frozen=True)
class MicrostripConfig:
    """A signal wire over a local ground plane (Fig. 9).

    Optional same-layer neighbours (at *neighbour_spacing*) model the
    other signal wires of Fig. 9 for coupling studies; they are open
    (statistically quiet) for extraction purposes.
    """

    signal_width: float
    thickness: float
    plane_gap: float
    plane_thickness: Optional[float] = None
    plane_n_strips: int = 11
    neighbour_count: int = 0
    neighbour_spacing: Optional[float] = None
    resistivity: float = RHO_CU
    eps_r: float = EPS_R_SIO2

    def __post_init__(self) -> None:
        if min(self.signal_width, self.thickness, self.plane_gap) <= 0.0:
            raise GeometryError("all microstrip dimensions must be positive")
        if self.neighbour_count < 0:
            raise GeometryError("neighbour_count must be non-negative")
        if self.neighbour_count > 0 and (
            self.neighbour_spacing is None or self.neighbour_spacing <= 0.0
        ):
            raise GeometryError("neighbours need a positive neighbour_spacing")

    def with_signal_width(self, signal_width: float) -> "MicrostripConfig":
        """A copy routed with a different signal width."""
        return replace(self, signal_width=signal_width)

    @property
    def height_below(self) -> float:
        """Capacitive reference distance (the plane gap)."""
        return self.plane_gap

    def trace_block(self, length: float, signal_width: Optional[float] = None) -> TraceBlock:
        """Signal trace plus optional quiet neighbours, no coplanar grounds."""
        width = signal_width if signal_width is not None else self.signal_width
        count = 1 + 2 * self.neighbour_count
        widths = [width] * count
        spacings = [self.neighbour_spacing] * (count - 1)
        names = []
        for i in range(count):
            offset = i - self.neighbour_count
            if offset == 0:
                names.append("SIG")
            else:
                names.append(f"N{offset:+d}")
        return TraceBlock.from_widths_and_spacings(
            widths=widths,
            spacings=spacings,
            length=length,
            thickness=self.thickness,
            ground_flags=[False] * count,
            names=names,
        )

    def loop_problem(
        self,
        signal_width: float,
        length: float,
        n_width: int = 4,
        n_thickness: int = 2,
        grading: float = 1.5,
    ) -> LoopProblem:
        """Loop-L problem with the plane as the only return."""
        block = self.trace_block(length, signal_width=signal_width)
        plane_thickness = self.plane_thickness or self.thickness
        plane = plane_under_block(
            block,
            gap=self.plane_gap,
            thickness=plane_thickness,
            n_strips=self.plane_n_strips,
            resistivity=self.resistivity,
        )
        return LoopProblem(
            block,
            signal="SIG",
            plane=plane,
            n_width=n_width,
            n_thickness=n_thickness,
            grading=grading,
            resistivity=self.resistivity,
        )

    def pair_problem(
        self,
        separation: float,
        length: float,
        n_width: int = 2,
        n_thickness: int = 1,
    ) -> LoopProblem:
        """Two traces over the plane: drive one, open-circuit the other.

        :class:`~repro.library.jobs.MutualLoopJob` expects the victim
        trace to be named ``"VICTIM"``.
        """
        if separation <= 0.0:
            raise GeometryError("separation must be positive")
        block = TraceBlock.from_widths_and_spacings(
            widths=[self.signal_width, self.signal_width],
            spacings=[separation],
            length=length,
            thickness=self.thickness,
            ground_flags=[False, False],
            names=["SIG", "VICTIM"],
        )
        plane_thickness = self.plane_thickness or self.thickness
        plane = plane_under_block(
            block, gap=self.plane_gap, thickness=plane_thickness,
            n_strips=self.plane_n_strips, resistivity=self.resistivity,
        )
        return LoopProblem(
            block, signal="SIG", plane=plane,
            n_width=n_width, n_thickness=n_thickness,
            resistivity=self.resistivity,
        )

    def cross_section(
        self,
        signal_width: Optional[float] = None,
        spacing: Optional[float] = None,
    ) -> CrossSection2D:
        """Unit-length 2-D cross-section over the grounded plane edge."""
        width = signal_width if signal_width is not None else self.signal_width
        block = self.trace_block(1.0, signal_width=width)
        if spacing is not None and self.neighbour_count > 0:
            block = replace_spacings(block, spacing)
        return CrossSection2D.from_block(block, plane_gap=self.plane_gap,
                                         eps_r=self.eps_r)

    def capacitance_model(self) -> CapacitanceModel:
        """Closed-form capacitance settings for this environment."""
        return CapacitanceModel(height_below=self.plane_gap, eps_r=self.eps_r)


@dataclass(frozen=True)
class StriplineConfig:
    """A signal wire between two local ground planes (Sec. II-B).

    The third basic transmission-line form the paper's extension covers:
    return current splits between the plane below (``gap_below``) and
    the plane above (``gap_above``).  Loop-inductance tables built for
    this structure fold both plane returns in.
    """

    signal_width: float
    thickness: float
    gap_below: float
    gap_above: float
    plane_thickness: Optional[float] = None
    plane_n_strips: int = 11
    resistivity: float = RHO_CU
    eps_r: float = EPS_R_SIO2

    def __post_init__(self) -> None:
        dims = (self.signal_width, self.thickness, self.gap_below, self.gap_above)
        if min(dims) <= 0.0:
            raise GeometryError("all stripline dimensions must be positive")

    def with_signal_width(self, signal_width: float) -> "StriplineConfig":
        """A copy routed with a different signal width."""
        return replace(self, signal_width=signal_width)

    @property
    def height_below(self) -> float:
        """Capacitive reference distance to the lower plane."""
        return self.gap_below

    def trace_block(self, length: float, signal_width: Optional[float] = None) -> TraceBlock:
        """The lone signal trace (planes are added by the loop problem)."""
        width = signal_width if signal_width is not None else self.signal_width
        return TraceBlock.from_widths_and_spacings(
            widths=[width], spacings=[], length=length,
            thickness=self.thickness, ground_flags=[False], names=["SIG"],
        )

    def loop_problem(
        self,
        signal_width: float,
        length: float,
        n_width: int = 4,
        n_thickness: int = 2,
        grading: float = 1.5,
    ) -> LoopProblem:
        """Loop-L problem with both planes in the return group."""
        block = self.trace_block(length, signal_width=signal_width)
        plane_thickness = self.plane_thickness or self.thickness
        below = plane_under_block(
            block, gap=self.gap_below, thickness=plane_thickness,
            n_strips=self.plane_n_strips, resistivity=self.resistivity,
        )
        above = plane_over_block(
            block, gap=self.gap_above, thickness=plane_thickness,
            n_strips=self.plane_n_strips, resistivity=self.resistivity,
        )
        return LoopProblem(
            block,
            signal="SIG",
            plane=below,
            extra_planes=(above,),
            n_width=n_width,
            n_thickness=n_thickness,
            grading=grading,
            resistivity=self.resistivity,
        )

    def cross_section(
        self,
        signal_width: Optional[float] = None,
        spacing: Optional[float] = None,
    ) -> CrossSection2D:
        """Unit-length 2-D cross-section between the grounded planes.

        The window's grounded bottom edge is the lower plane; the upper
        plane is approximated by the grounded top edge placed exactly
        ``gap_above`` over the trace.
        """
        width = signal_width if signal_width is not None else self.signal_width
        margin = 5.0 * max(width, self.gap_below + self.thickness)
        return CrossSection2D(
            width=width + 2.0 * margin,
            height=self.gap_below + self.thickness + self.gap_above,
            conductors=[
                ConductorRect(
                    name="SIG",
                    y0=margin,
                    y1=margin + width,
                    z0=self.gap_below,
                    z1=self.gap_below + self.thickness,
                )
            ],
            eps_r=self.eps_r,
        )

    def capacitance_model(self) -> CapacitanceModel:
        """Closed-form settings (lower plane only; upper adds ~2x)."""
        return CapacitanceModel(height_below=self.gap_below, eps_r=self.eps_r)


def replace_spacings(block: TraceBlock, spacing: float) -> TraceBlock:
    """Rebuild a block with a uniform inter-trace spacing."""
    widths = [t.width for t in block.traces]
    return TraceBlock.from_widths_and_spacings(
        widths=widths,
        spacings=[spacing] * (len(widths) - 1),
        length=block.length,
        thickness=block.traces[0].thickness,
        ground_flags=[t.is_ground for t in block.traces],
        names=[t.name for t in block.traces],
        layer=block.layer,
    )
