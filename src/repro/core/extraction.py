"""The headline API: characterize a structure family once, extract fast.

:class:`TableBasedExtractor` bundles the paper's methodology end to end:

1. :meth:`TableBasedExtractor.characterize` runs a
   :class:`~repro.library.jobs.LoopTableJob` (PEEC loop solves over a
   (width, length) grid at the significant frequency) and optionally a
   :class:`~repro.library.jobs.TotalCapacitanceJob` (2-D field solves)
   in process, and keeps the results as bicubic-spline tables;
2. :meth:`loop_inductance` / :meth:`loop_resistance` /
   :meth:`capacitance_per_length` answer extraction queries by table
   lookup;
3. :meth:`accuracy_probe` quantifies interpolation error against a fresh
   direct field solve at any query point (the "no loss of accuracy"
   claim of Sec. III).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import TableError
from repro.library.jobs import LoopTableJob, TotalCapacitanceJob
from repro.tables.lookup import ExtractionTable, timed_lookup
from repro.telemetry import span


@dataclass(frozen=True)
class AccuracyProbe:
    """Interpolated vs directly solved values at one query point."""

    width: float
    length: float
    table_inductance: float
    direct_inductance: float
    table_time: float
    direct_time: float

    @property
    def relative_error(self) -> float:
        """Interpolation error against the direct solve."""
        return abs(self.table_inductance - self.direct_inductance) / abs(
            self.direct_inductance
        )

    @property
    def speedup(self) -> float:
        """Direct-solve time over lookup time."""
        if self.table_time <= 0.0:
            return float("inf")
        return self.direct_time / self.table_time


class TableBasedExtractor:
    """Characterized tables plus lookup for one structure family.

    Build with :meth:`characterize` (runs the field solvers) or from
    previously saved tables with :meth:`from_tables` / :meth:`load`.
    """

    def __init__(
        self,
        config,
        frequency: float,
        inductance_table: ExtractionTable,
        resistance_table: Optional[ExtractionTable] = None,
        capacitance_table: Optional[ExtractionTable] = None,
    ):
        if frequency <= 0.0:
            raise TableError("frequency must be positive")
        self.config = config
        self.frequency = frequency
        self.inductance_table = inductance_table
        self.resistance_table = resistance_table
        self.capacitance_table = capacitance_table

    # ------------------------------------------------------------------
    # characterization
    # ------------------------------------------------------------------
    @classmethod
    def characterize(
        cls,
        config,
        frequency: float,
        widths: Sequence[float],
        lengths: Sequence[float],
        spacings: Optional[Sequence[float]] = None,
        capacitance_grid: Optional[tuple] = None,
        name_prefix: str = "structure",
    ) -> "TableBasedExtractor":
        """Run the field solvers over the grid and build all tables.

        Parameters
        ----------
        config:
            A structure configuration providing ``loop_problem(width,
            length)`` and, for capacitance, ``cross_section(width,
            spacing)`` (see :mod:`repro.clocktree.configs`).
        spacings:
            When given, also build a per-unit-length capacitance table
            over (width, spacing) with the 2-D field solver.
        capacitance_grid:
            Optional ``(nx, nz)`` override for the capacitance solver.
        """
        widths = tuple(widths)
        lengths = tuple(lengths)
        with span(
            "extractor.characterize",
            family=name_prefix,
            grid=f"{len(widths)}x{len(lengths)}",
        ):
            l_table, r_table = LoopTableJob(
                config=config, frequency=frequency, widths=widths,
                lengths=lengths, name_prefix=name_prefix,
            ).build()
            c_table = None
            if spacings is not None:
                nx, nz = capacitance_grid if capacitance_grid else (160, 120)
                [c_table] = TotalCapacitanceJob(
                    config=config, widths=widths, spacings=tuple(spacings),
                    nx=nx, nz=nz, name=f"{name_prefix}_capacitance",
                ).build()
        return cls(
            config=config,
            frequency=frequency,
            inductance_table=l_table,
            resistance_table=r_table,
            capacitance_table=c_table,
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _timed_lookup(self, table: ExtractionTable, **coords: float) -> float:
        """Table lookup that feeds the ``lookup_latency_seconds`` histogram.

        Delegates to the shared hot-path helper
        (:func:`repro.tables.lookup.timed_lookup`); histograms never
        touch the solver-call counters, so the warm-path "zero solver
        calls" assertions stay meaningful.
        """
        return timed_lookup(table, **coords)

    def loop_inductance(self, width: float, length: float) -> float:
        """Loop inductance of a segment by table lookup [H]."""
        return self._timed_lookup(
            self.inductance_table, width=width, length=length
        )

    def loop_resistance(self, width: float, length: float) -> float:
        """Loop resistance of a segment by table lookup [ohm]."""
        if self.resistance_table is None:
            raise TableError("no resistance table was characterized")
        return self._timed_lookup(
            self.resistance_table, width=width, length=length
        )

    def capacitance_per_length(self, width: float, spacing: float) -> float:
        """Per-unit-length signal capacitance by table lookup [F/m]."""
        if self.capacitance_table is None:
            raise TableError("no capacitance table was characterized")
        return self._timed_lookup(
            self.capacitance_table, width=width, spacing=spacing
        )

    # ------------------------------------------------------------------
    # validation & integration
    # ------------------------------------------------------------------
    def accuracy_probe(self, width: float, length: float) -> AccuracyProbe:
        """Compare a table lookup against a fresh direct field solve."""
        t0 = time.perf_counter()
        table_l = self.loop_inductance(width, length)
        t1 = time.perf_counter()
        problem = self.config.loop_problem(width, length)
        _, direct_l = problem.loop_rl(self.frequency)
        t2 = time.perf_counter()
        return AccuracyProbe(
            width=width,
            length=length,
            table_inductance=table_l,
            direct_inductance=direct_l,
            table_time=t1 - t0,
            direct_time=t2 - t1,
        )

    def audit(self, auditor=None) -> dict:
        """Residual spot-check of the loop tables (opt-in: runs solvers).

        Draws the auditor's deterministic off-grid sample from the
        inductance table's domain, re-solves each point **once** with
        the PEEC loop solver (one ``loop_rl`` yields both R and L), and
        grades the inductance and resistance splines against the direct
        values.  Returns ``{table name -> TableHealthReport}``.

        Never called on the plain extraction path -- every direct solve
        here ticks the ``audit_direct_solve`` counter, which the
        zero-solve tests assert stays at zero for warm lookups.
        """
        from repro.quality.audit import TableAuditor

        auditor = auditor if auditor is not None else TableAuditor()
        points = auditor.sample_points(
            self.inductance_table.axes, self.inductance_table.name
        )
        solved: dict = {}

        def _solve(point):
            if point not in solved:
                width, length = point
                problem = self.config.loop_problem(width, length)
                solved[point] = problem.loop_rl(self.frequency)
            return solved[point]

        reports = {
            self.inductance_table.name: auditor.audit(
                self.inductance_table,
                lambda p: _solve(p)[1],
                points=points,
            )
        }
        if self.resistance_table is not None:
            reports[self.resistance_table.name] = auditor.audit(
                self.resistance_table,
                lambda p: _solve(p)[0],
                points=points,
            )
        return reports

    def as_clocktree_extractor(self, sections_per_segment: int = 4):
        """A :class:`~repro.clocktree.extractor.ClocktreeRLCExtractor`
        driven by these tables."""
        from repro.clocktree.extractor import ClocktreeRLCExtractor

        return ClocktreeRLCExtractor(
            config=self.config,
            frequency=self.frequency,
            inductance_table=self.inductance_table,
            resistance_table=self.resistance_table,
            capacitance_table=self.capacitance_table,
            sections_per_segment=sections_per_segment,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Save all tables as JSON files in *directory*."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.inductance_table.save(directory / "inductance.json")
        if self.resistance_table is not None:
            self.resistance_table.save(directory / "resistance.json")
        if self.capacitance_table is not None:
            self.capacitance_table.save(directory / "capacitance.json")

    @classmethod
    def from_library(
        cls, library: Union[str, Path, object], config, frequency: float,
        layer: Optional[str] = None,
    ) -> "TableBasedExtractor":
        """Assemble an extractor from a characterization library.

        Queries the library by this *config*'s structure-family
        fingerprint, quantity and *frequency* (see
        :mod:`repro.library.store`); raises :class:`TableError` when no
        loop-inductance table has been characterized for the family.
        """
        from repro.library.jobs import config_fingerprint
        from repro.library.store import open_library

        lib = open_library(library, create=False)
        family = config_fingerprint(config)
        criteria = {"family": family}
        if layer is not None:
            criteria["layer"] = layer
        l_table = lib.get_one(quantity="loop_inductance",
                              frequency=frequency, **criteria)
        if l_table is None:
            raise TableError(
                f"library {lib.root} has no loop_inductance table for "
                f"this structure family at {frequency:.4g} Hz"
            )
        return cls(
            config=config,
            frequency=frequency,
            inductance_table=l_table,
            resistance_table=lib.get_one(
                quantity="loop_resistance", frequency=frequency, **criteria),
            capacitance_table=lib.get_one(
                quantity="capacitance_per_length", **criteria),
        )

    @classmethod
    def load(
        cls, directory: Union[str, Path], config, frequency: float
    ) -> "TableBasedExtractor":
        """Load tables previously written by :meth:`save`."""
        directory = Path(directory)
        l_path = directory / "inductance.json"
        if not l_path.exists():
            raise TableError(f"no inductance table at {l_path}")
        r_path = directory / "resistance.json"
        c_path = directory / "capacitance.json"
        return cls(
            config=config,
            frequency=frequency,
            inductance_table=ExtractionTable.load(l_path),
            resistance_table=ExtractionTable.load(r_path) if r_path.exists() else None,
            capacitance_table=ExtractionTable.load(c_path) if c_path.exists() else None,
        )
