"""Table-driven clocktree RLC extraction and netlist formulation (Sec. V).

For every H-tree segment the extractor obtains:

* **R** -- analytic with skin-effect correction (or a characterized loop
  resistance table),
* **L** -- loop inductance from a characterized table with bicubic-spline
  lookup (or a direct field solve as fallback), extracted for the *whole
  segment length* because inductance is super-linear in length,
* **C** -- per-unit-length capacitance from a field-solver table (or the
  closed-form models).

An H-tree repeats its branch lengths level by level, so a netlist is
stamped from one extraction per distinct (layer, length) of the tree's
segments (:meth:`ClocktreeRLCExtractor.extract_htree`), not one per
segment.

Segments are then linearly cascaded into one RLC netlist for the whole
passive tree between buffer levels, each segment realized as a short
ladder whose total L equals the table value (splitting the table total
across sections rather than extracting sections individually avoids the
underestimation the paper warns about).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.circuit.lint import NetlistHealthReport, lint_circuit
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.htree import HTree, HTreeSegment
from repro.errors import CircuitError, GeometryError
from repro.rc.capacitance import block_capacitance_matrix
from repro.rc.resistance import ac_resistance
from repro.tables.lookup import ExtractionTable, timed_lookup
from repro.telemetry import span


@dataclass(frozen=True)
class SegmentRLC:
    """Extracted totals for one segment."""

    length: float
    resistance: float
    inductance: float
    capacitance: float

    def __post_init__(self) -> None:
        # NaN compares False against every bound below, so it is
        # rejected here; an overflowed spline would otherwise pass.
        values = (self.length, self.resistance, self.inductance,
                  self.capacitance)
        if not all(math.isfinite(value) for value in values):
            raise GeometryError(
                "segment length, R, L and C must be finite, got "
                f"length={self.length!r} R={self.resistance!r} "
                f"L={self.inductance!r} C={self.capacitance!r}"
            )
        if self.length <= 0.0 or self.resistance <= 0.0:
            raise GeometryError("segment length and resistance must be positive")
        if self.inductance < 0.0 or self.capacitance <= 0.0:
            raise GeometryError("segment L must be >= 0 and C positive")


@dataclass
class ClocktreeNetlist:
    """A formulated clocktree circuit with its measurement points."""

    circuit: Circuit
    source_name: str
    root_node: str
    sink_nodes: Dict[str, str]
    includes_inductance: bool
    #: Netlist health report (populated by :meth:`lint`, or eagerly by
    #: :meth:`ClocktreeRLCExtractor.build_netlist` unless disabled).
    health: Optional[NetlistHealthReport] = None

    def lint(self, refresh: bool = False) -> NetlistHealthReport:
        """Run (or return the cached) netlist health lint."""
        if self.health is None or refresh:
            kind = "rlc" if self.includes_inductance else "rc"
            self.health = lint_circuit(
                self.circuit, name=self.circuit.title or f"clocktree_{kind}"
            )
        return self.health


class ClocktreeRLCExtractor:
    """Per-segment RLC extraction and cascaded netlist formulation.

    Parameters
    ----------
    config:
        The wire configuration (CPW or microstrip).
    frequency:
        Significant frequency for R skin correction and direct L solves.
    inductance_table / resistance_table:
        Loop tables over (width, length) from
        :class:`~repro.library.jobs.LoopTableJob`; when
        absent, L and loop R come from a direct field solve per segment
        (slower but always available).
    capacitance_table:
        Per-unit-length total-capacitance table over (width, spacing)
        from :class:`~repro.library.jobs.TotalCapacitanceJob`;
        when absent the closed-form models are used.
    library:
        A :class:`~repro.library.store.TableLibrary` (or its root path)
        to pull missing tables from.  The extractor queries by this
        config's structure-family fingerprint, quantity, frequency and
        *layer*; any table not found stays on the direct-solve /
        closed-form fallback.  A warm library turns every repeated
        extraction into pure spline lookups -- zero field-solver calls.
    layer:
        Library layer tag to query (default: any layer).
    sections_per_segment:
        Ladder sections per segment in the netlist.
    """

    def __init__(
        self,
        config,
        frequency: float = 3.2e9,
        inductance_table: Optional[ExtractionTable] = None,
        resistance_table: Optional[ExtractionTable] = None,
        capacitance_table: Optional[ExtractionTable] = None,
        library: Optional[Union[str, Path, "object"]] = None,
        layer: Optional[str] = None,
        sections_per_segment: int = 4,
    ):
        if frequency <= 0.0:
            raise GeometryError("frequency must be positive")
        if sections_per_segment < 1:
            raise GeometryError("sections_per_segment must be >= 1")
        self.config = config
        self.frequency = frequency
        self.inductance_table = inductance_table
        self.resistance_table = resistance_table
        self.capacitance_table = capacitance_table
        self.sections_per_segment = sections_per_segment
        self._direct_cache: Dict[tuple, tuple] = {}
        if library is not None:
            self._attach_library(library, layer)

    def _attach_library(self, library, layer: Optional[str]) -> None:
        """Fill any missing tables from a characterization library."""
        # Imported here: repro.library is a higher layer that itself
        # builds on the table builders; keep the base import cheap.
        from repro.library.jobs import config_fingerprint
        from repro.library.store import open_library

        lib = open_library(library, create=False)
        family = config_fingerprint(self.config)
        criteria = {"family": family}
        if layer is not None:
            criteria["layer"] = layer
        if self.inductance_table is None:
            self.inductance_table = lib.get_one(
                quantity="loop_inductance", frequency=self.frequency,
                **criteria)
        if self.resistance_table is None:
            self.resistance_table = lib.get_one(
                quantity="loop_resistance", frequency=self.frequency,
                **criteria)
        if self.capacitance_table is None:
            self.capacitance_table = lib.get_one(
                quantity="capacitance_per_length", **criteria)

    def coverage(self) -> list:
        """Coverage-map entries for this extractor's attached tables.

        Returns the per-table lookup-domain coverage dicts accumulated
        by the process-wide tracker (:mod:`repro.quality.coverage`) for
        whichever tables are attached -- empty until the first lookup.
        Extrapolation hot-spots in these entries carry the offending
        geometry, so out-of-domain queries are diagnosable after the
        fact.
        """
        from repro.quality.coverage import get_coverage_tracker

        tracker = get_coverage_tracker()
        entries = []
        for table in (self.inductance_table, self.resistance_table,
                      self.capacitance_table):
            if table is None:
                continue
            cov = tracker.get(table.name)
            if cov is not None:
                entries.append(cov.to_dict())
        return entries

    # ------------------------------------------------------------------
    # per-segment extraction
    # ------------------------------------------------------------------
    def _loop_rl_direct(self, width: float, length: float):
        key = (width, length)
        if key not in self._direct_cache:
            problem = self.config.loop_problem(width, length)
            self._direct_cache[key] = problem.loop_rl(self.frequency)
        return self._direct_cache[key]

    def _segment_inductance(self, width: float, length: float) -> float:
        if self.inductance_table is not None:
            return timed_lookup(self.inductance_table, width=width, length=length)
        return self._loop_rl_direct(width, length)[1]

    def _segment_resistance(self, width: float, length: float) -> float:
        if self.resistance_table is not None:
            return timed_lookup(self.resistance_table, width=width, length=length)
        if self.inductance_table is None:
            # the direct loop solve already produced the loop resistance
            return self._loop_rl_direct(width, length)[0]
        # analytic fallback: signal + parallel coplanar returns
        signal_r = ac_resistance(
            length, width, self.config.thickness, self.frequency,
            self.config.resistivity,
        )
        if isinstance(self.config, CoplanarWaveguideConfig):
            ground_r = ac_resistance(
                length, self.config.ground_width, self.config.thickness,
                self.frequency, self.config.resistivity,
            )
            return signal_r + ground_r / 2.0
        return signal_r

    def _segment_capacitance(self, width: float, length: float) -> float:
        if self.capacitance_table is not None:
            spacing = getattr(self.config, "spacing", None)
            if spacing is None:
                spacing = getattr(self.config, "neighbour_spacing", None) or width
            per_length = timed_lookup(
                self.capacitance_table, width=width, spacing=spacing
            )
            return per_length * length
        block = self.config.trace_block(length, signal_width=width)
        matrix = block_capacitance_matrix(block, self.config.capacitance_model())
        signal_indices = [
            i for i, t in enumerate(block.traces)
            if not t.is_ground and (t.name == "SIG" or len(block.signal_traces) == 1)
        ]
        if not signal_indices:
            raise GeometryError("no signal trace found for capacitance")
        return float(matrix[signal_indices[0], signal_indices[0]])

    def segment_rlc(self, length: float, signal_width: Optional[float] = None) -> SegmentRLC:
        """Extract total R, L, C for one segment of *length* [m]."""
        if length <= 0.0:
            raise GeometryError("length must be positive")
        width = signal_width if signal_width is not None else self.config.signal_width
        return SegmentRLC(
            length=length,
            resistance=self._segment_resistance(width, length),
            inductance=self._segment_inductance(width, length),
            capacitance=self._segment_capacitance(width, length),
        )

    def segment_rlc_for(self, segment: HTreeSegment) -> SegmentRLC:
        """Extraction hook for one routed segment.

        Contract: the result depends only on the segment's ``layer`` and
        ``length``, and :meth:`extract_htree` calls the hook once per
        distinct ``(layer, length)`` of a tree.  The base extractor
        ignores the layer; layer-aware subclasses (e.g. the multi-layer
        extractor) dispatch on it.
        """
        return self.segment_rlc(segment.length)

    def extract_htree(self, htree: HTree) -> Dict[str, SegmentRLC]:
        """Every segment's extraction, keyed by segment name in tree order.

        Segments that share a ``(layer, length)`` share one
        :class:`SegmentRLC`: the hook runs once per distinct pair.  The
        dedup map lives for this call only; nothing is kept across trees.
        """
        distinct: Dict[Tuple[Optional[str], float], SegmentRLC] = {}
        extraction: Dict[str, SegmentRLC] = {}
        for segment in htree.segments:
            key = (segment.layer, segment.length)
            rlc = distinct.get(key)
            if rlc is None:
                rlc = distinct[key] = self.segment_rlc_for(segment)
            extraction[segment.name] = rlc
        return extraction

    # ------------------------------------------------------------------
    # netlist formulation
    # ------------------------------------------------------------------
    def build_netlist(
        self,
        htree: HTree,
        include_inductance: bool = True,
        sections: Optional[int] = None,
        title: str = "",
        rc_scale: Tuple[float, float] = (1.0, 1.0),
        lint: bool = True,
    ) -> ClocktreeNetlist:
        """Formulate the full cascaded RLC (or RC) netlist of an H-tree.

        The root buffer is a pulse source behind its drive resistance;
        intermediate buffers are unity-gain repeaters (VCVS + drive
        resistance + input capacitance); leaves carry the sink load.

        *rc_scale* multiplies every wire resistance and capacitance (the
        paper's process-variation flow: statistical RC with nominal L).

        Unless ``lint=False``, the formulated circuit is health-linted
        (:mod:`repro.circuit.lint`) and the report attached to
        :attr:`ClocktreeNetlist.health` -- extraction bugs surface here,
        before a simulation silently produces a wrong skew.
        """
        sections = sections if sections is not None else self.sections_per_segment
        if sections < 1:
            raise CircuitError("sections must be >= 1")
        if min(rc_scale) <= 0.0:
            raise CircuitError("rc_scale factors must be positive")
        buffer = htree.buffer
        circuit = Circuit(title or f"clocktree_{'rlc' if include_inductance else 'rc'}")
        source = PulseSource(
            v1=0.0, v2=buffer.supply, delay=buffer.rise_time,
            rise=buffer.rise_time, fall=buffer.rise_time, width=1.0,
        )
        circuit.add_voltage_source("Vclk", "src", "0", source, ac_magnitude=1.0)
        root_node = "drv_root"
        circuit.add_resistor("Rdrv_root", "src", root_node, buffer.drive_resistance)

        sink_nodes: Dict[str, str] = {}
        with span(
            "htree.build_netlist",
            segments=len(htree.segments),
            sections=sections,
            inductance=include_inductance,
        ):
            extraction = self.extract_htree(htree)
            for segment in htree.segments:
                self._stamp_segment(
                    circuit, htree, segment, extraction[segment.name],
                    root_node, sections, include_inductance, sink_nodes,
                    rc_scale,
                )
        netlist = ClocktreeNetlist(
            circuit=circuit,
            source_name="Vclk",
            root_node=root_node,
            sink_nodes=sink_nodes,
            includes_inductance=include_inductance,
        )
        if lint:
            netlist.lint()
        return netlist

    def _drive_node(self, segment: HTreeSegment, root_node: str) -> str:
        if segment.parent is None:
            return root_node
        return f"drv_{segment.parent}"

    def _stamp_segment(
        self,
        circuit: Circuit,
        htree: HTree,
        segment: HTreeSegment,
        rlc: SegmentRLC,
        root_node: str,
        sections: int,
        include_inductance: bool,
        sink_nodes: Dict[str, str],
        rc_scale: Tuple[float, float] = (1.0, 1.0),
    ) -> None:
        start = self._drive_node(segment, root_node)
        name = segment.name
        r_per = rlc.resistance * rc_scale[0] / sections
        l_per = rlc.inductance / sections
        c_half = rlc.capacitance * rc_scale[1] / (2.0 * sections)

        node = start
        for k in range(sections):
            end = f"{name}_n{k + 1}"
            circuit.add_capacitor(f"C_{name}_{k}a", node, "0", c_half)
            if include_inductance and l_per > 0.0:
                mid = f"{name}_m{k + 1}"
                circuit.add_resistor(f"R_{name}_{k}", node, mid, r_per)
                circuit.add_inductor(f"L_{name}_{k}", mid, end, l_per)
            else:
                circuit.add_resistor(f"R_{name}_{k}", node, end, r_per)
            circuit.add_capacitor(f"C_{name}_{k}b", end, "0", c_half)
            node = end

        buffer = htree.buffer
        if htree.children(name):
            # repeater: input cap, unity-gain stage, output drive resistance
            if buffer.input_capacitance > 0.0:
                circuit.add_capacitor(
                    f"Cin_{name}", node, "0", buffer.input_capacitance
                )
            circuit.add_vcvs(f"Ebuf_{name}", f"bufo_{name}", "0", node, "0", 1.0)
            circuit.add_resistor(
                f"Rdrv_{name}", f"bufo_{name}", f"drv_{name}",
                buffer.drive_resistance,
            )
        else:
            if htree.sink_capacitance > 0.0:
                circuit.add_capacitor(
                    f"Csink_{name}", node, "0", htree.sink_capacitance
                )
            sink_nodes[name] = node
