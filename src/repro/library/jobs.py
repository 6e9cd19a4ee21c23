"""Characterization jobs: the one engine that turns field solves into tables.

A :class:`CharacterizationJob` pairs an axis grid with the per-point
physics of one table kind (the paper's Sec. III table sets: loop L/R,
mutual loop L, partial self/mutual L, 3-trace and total C).  Every
table is computed by a job: in process through
:meth:`CharacterizationJob.build`, or point-chunked over a process pool
by :class:`~repro.library.runner.BuildRunner`.  A job knows four
things --

1. **its own cache keys**: a deterministic ``job_id`` plus one
   ``table_key`` per output table, derived (via
   :func:`repro.library.store.cache_key`) from everything that
   determines the solved numbers: job kind and configuration, axis
   grids, frequency and the library schema version;
2. **its grid points** and how to **solve one point in isolation** --
   the granularity the process pool and the resume checkpoints operate
   at.  A point solve returns one float per output table, so a loop job
   yields (L, R) pairs and a 3-trace capacitance job (Cg, Cc) pairs;
3. **how to assemble** the solved point values into finished
   :class:`~repro.tables.lookup.ExtractionTable` objects;
4. **whether its inputs are valid**, checked once at construction
   (thickness, height, frequency, axes, the ``SIG`` / ``VICTIM``
   conductor names) rather than at the first solve.

Jobs are frozen dataclasses holding only picklable state (structure
configs are themselves frozen dataclasses), so they travel to
process-pool workers unchanged -- no lambdas, no bound
methods, no function-local imports.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import RHO_CU
from repro.errors import TableError
from repro.geometry.primitives import Point3D, RectBar
from repro.geometry.trace import TraceBlock
from repro.library.store import SCHEMA_VERSION, cache_key
from repro.peec.analytic import skin_depth
from repro.peec.hoer_love import bar_self_inductance, mutual_inductance_batch
from repro.peec.mesh import skin_mesh_counts
from repro.peec.solver import Conductor, PartialInductanceSolver
from repro.rc.fieldsolver2d import CrossSection2D, FieldSolver2D
from repro.tables.lookup import ExtractionTable
from repro.telemetry import TABLE_BUILD_POINT, get_registry, span


def _axis_tuple(name: str, values: Sequence[float]) -> Tuple[float, ...]:
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise TableError(f"axis {name!r} needs at least two points")
    if not np.all(np.diff(axis) > 0.0):
        raise TableError(f"axis {name!r} must be strictly increasing")
    if axis[0] <= 0.0:
        raise TableError(f"axis {name!r} must be positive")
    return tuple(float(v) for v in axis)


def config_spec(config) -> dict:
    """Canonical description of a structure configuration dataclass.

    Used both inside job cache keys and as the stand-alone **structure
    family fingerprint** that lets an extractor find "the tables built
    for *this* config" regardless of which grid or frequency they were
    built on.
    """
    if not is_dataclass(config):
        raise TableError(
            f"config must be a dataclass, got {type(config).__name__!r}"
        )
    spec: Dict[str, object] = {"type": type(config).__name__}
    for f in fields(config):
        spec[f.name] = getattr(config, f.name)
    return spec


def config_fingerprint(config) -> str:
    """sha256 family fingerprint of a structure configuration."""
    return cache_key({"family": config_spec(config),
                      "schema_version": SCHEMA_VERSION})


@dataclass(frozen=True)
class JobOutput:
    """One table a job produces."""

    name: str
    quantity: str


class CharacterizationJob:
    """Base class: shared key derivation, grid logistics, assembly and
    the in-process :meth:`build`.

    Subclasses define class attribute ``kind``, implement
    :meth:`builder_spec`, :meth:`outputs`, :meth:`axes` /
    :meth:`axis_names`, :meth:`solve_point` and
    :meth:`table_metadata`.
    """

    kind: str = "abstract"
    layer: str = ""
    frequency: Optional[float] = None

    # -- identity ------------------------------------------------------
    def spec(self) -> dict:
        """The full deterministic description hashed into cache keys."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "layer": self.layer,
            "frequency": self.frequency,
            "axis_names": list(self.axis_names()),
            "axes": [list(a) for a in self.axes()],
            "builder": self.builder_spec(),
            "outputs": [[o.name, o.quantity] for o in self.outputs()],
        }

    @property
    def job_id(self) -> str:
        """Content key of the whole job (used for checkpoints)."""
        return cache_key(self.spec())

    def table_key(self, output_name: str) -> str:
        """Content key of one output table."""
        names = [o.name for o in self.outputs()]
        if output_name not in names:
            raise TableError(
                f"job {self.kind!r} has outputs {names}, not {output_name!r}"
            )
        return cache_key({"job": self.spec(), "output": output_name})

    def table_keys(self) -> Dict[str, str]:
        """Mapping output table name -> content key."""
        return {o.name: self.table_key(o.name) for o in self.outputs()}

    @property
    def family(self) -> str:
        """Structure-family fingerprint (empty when config-free)."""
        return ""

    # -- grid logistics ------------------------------------------------
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(a) for a in self.axes())

    def num_points(self) -> int:
        return int(np.prod(self.shape()))

    def points(self) -> List[Tuple[float, ...]]:
        """Grid points in C (row-major) order of the axes."""
        return list(itertools.product(*self.axes()))

    # -- to be implemented ---------------------------------------------
    def axis_names(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def axes(self) -> Tuple[Tuple[float, ...], ...]:
        raise NotImplementedError

    def outputs(self) -> Tuple[JobOutput, ...]:
        raise NotImplementedError

    def builder_spec(self) -> dict:
        raise NotImplementedError

    def solve_point(self, point: Tuple[float, ...]) -> Tuple[float, ...]:
        """Solve one grid point; one value per output, in output order."""
        raise NotImplementedError

    def solve_points(
        self, points: Sequence[Tuple[float, ...]]
    ) -> List[Tuple[float, ...]]:
        """Solve a chunk of grid points in one call (worker-task unit).

        The default implementation just loops :meth:`solve_point`, but
        doing so *inside one process* matters: neighboring grid points of
        an inductance job share most of their filament-pair geometry, so
        the kernel's partial-inductance memo cache
        (:func:`repro.peec.kernel.lp_memo_cache`) converts the overlap
        into cache hits instead of repeated Hoer-Love evaluations.
        Chunked task submission in the build runner exists precisely to
        give the cache that locality.

        Each point's wall time is observed into the
        ``table_build_point_seconds`` histogram, so build-time
        distributions survive the trip from pool workers back to the
        parent (workers ship registry snapshot deltas with each chunk).
        """
        registry = get_registry()
        values: List[Tuple[float, ...]] = []
        for point in points:
            t0 = time.perf_counter()
            values.append(self.solve_point(point))
            registry.observe(TABLE_BUILD_POINT, time.perf_counter() - t0)
        return values

    def table_metadata(self) -> dict:
        """Provenance metadata recorded into each output table."""
        raise NotImplementedError

    def build(self) -> List[ExtractionTable]:
        """Solve every grid point in this process and assemble the tables."""
        with span("tables.build", kind=self.kind, points=self.num_points()):
            return self.assemble(self.solve_points(self.points()))

    # -- assembly ------------------------------------------------------
    def assemble(
        self, values_by_point: Sequence[Sequence[float]]
    ) -> List[ExtractionTable]:
        """Turn per-point solve results into the finished output tables.

        *values_by_point* is indexed like :meth:`points` (row-major) and
        each element holds one value per output.
        """
        shape = self.shape()
        n_points = self.num_points()
        if len(values_by_point) != n_points:
            raise TableError(
                f"job {self.kind!r} expects {n_points} point results, "
                f"got {len(values_by_point)}"
            )
        outs = self.outputs()
        flat = np.asarray(values_by_point, dtype=float)
        if flat.shape != (n_points, len(outs)):
            raise TableError(
                f"point results must be shape {(n_points, len(outs))}, "
                f"got {flat.shape}"
            )
        tables = []
        base_meta = dict(self.table_metadata())
        base_meta.setdefault("frequency", self.frequency)
        for column, out in enumerate(outs):
            metadata = dict(base_meta)
            metadata["library"] = {
                "schema_version": SCHEMA_VERSION,
                "kind": self.kind,
                "layer": self.layer,
                "job_id": self.job_id,
                "table_key": self.table_key(out.name),
                "family": self.family,
            }
            tables.append(ExtractionTable(
                name=out.name,
                quantity=out.quantity,
                axis_names=self.axis_names(),
                axes=[np.asarray(a) for a in self.axes()],
                values=flat[:, column].reshape(shape),
                metadata=metadata,
            ))
        return tables


# ----------------------------------------------------------------------
# concrete jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoopTableJob(CharacterizationJob):
    """Loop L and loop R tables for a structure config (Sec. II-B).

    Each (width, length) point solves the config's ``loop_problem`` at
    the characterization frequency; one solve yields both L and R.
    """

    config: object = None
    frequency: float = 0.0
    widths: Tuple[float, ...] = ()
    lengths: Tuple[float, ...] = ()
    layer: str = ""
    name_prefix: str = "loop"
    n_width: int = 4
    n_thickness: int = 2
    grading: float = 1.5

    kind = "loop_rl"

    def __post_init__(self):
        if self.config is None or not hasattr(self.config, "loop_problem"):
            raise TableError("LoopTableJob needs a config with loop_problem()")
        if self.frequency is None or self.frequency <= 0.0:
            raise TableError("frequency must be positive")
        object.__setattr__(self, "widths", _axis_tuple("width", self.widths))
        object.__setattr__(self, "lengths", _axis_tuple("length", self.lengths))

    @property
    def family(self) -> str:
        return config_fingerprint(self.config)

    def axis_names(self):
        return ("width", "length")

    def axes(self):
        return (self.widths, self.lengths)

    def outputs(self):
        return (
            JobOutput(f"{self.name_prefix}_inductance", "loop_inductance"),
            JobOutput(f"{self.name_prefix}_resistance", "loop_resistance"),
        )

    def builder_spec(self):
        return {
            # hashed into job_id / table_key: renaming re-keys every kit
            "builder": "LoopInductanceTableBuilder",
            "config": config_spec(self.config),
            "n_width": self.n_width,
            "n_thickness": self.n_thickness,
            "grading": self.grading,
        }

    def solve_point(self, point):
        width, length = point
        problem = self.config.loop_problem(
            float(width), float(length),
            n_width=self.n_width, n_thickness=self.n_thickness,
            grading=self.grading,
        )
        resistance, inductance = problem.loop_rl(self.frequency)
        return (float(inductance), float(resistance))

    def table_metadata(self):
        return {"frequency": self.frequency, "model": "loop"}


@dataclass(frozen=True)
class MutualLoopJob(CharacterizationJob):
    """Mutual loop inductance of trace pairs over a plane (Fig. 5(c)).

    Foundation 2's extension: the mutual loop inductance of two traces
    over a shared plane depends only on the pair, so it tabulates on a
    (separation, length) grid from 2-trace solves.  The config's
    ``pair_problem`` drives the first trace and leaves an open trace
    named ``"VICTIM"``, whose induced EMF gives the mutual.
    """

    config: object = None
    frequency: float = 0.0
    separations: Tuple[float, ...] = ()
    lengths: Tuple[float, ...] = ()
    layer: str = ""
    name: str = "mutual_loop_inductance"
    n_width: int = 2
    n_thickness: int = 1

    kind = "mutual_loop"

    def __post_init__(self):
        if self.config is None or not hasattr(self.config, "pair_problem"):
            raise TableError("MutualLoopJob needs a config with pair_problem()")
        if self.frequency is None or self.frequency <= 0.0:
            raise TableError("frequency must be positive")
        object.__setattr__(
            self, "separations", _axis_tuple("separation", self.separations))
        object.__setattr__(self, "lengths", _axis_tuple("length", self.lengths))
        problem = self._problem(self.separations[0], self.lengths[0])
        if "VICTIM" not in [t.name for t in problem.open_traces]:
            raise TableError(
                "pair problem must contain an open trace named 'VICTIM'")

    def _problem(self, separation: float, length: float):
        return self.config.pair_problem(
            float(separation), float(length),
            n_width=self.n_width, n_thickness=self.n_thickness,
        )

    @property
    def family(self) -> str:
        return config_fingerprint(self.config)

    def axis_names(self):
        return ("separation", "length")

    def axes(self):
        return (self.separations, self.lengths)

    def outputs(self):
        return (JobOutput(self.name, "mutual_loop_inductance"),)

    def builder_spec(self):
        return {
            # hashed into job_id / table_key: renaming re-keys every kit
            "builder": "MutualLoopTableBuilder",
            "config": config_spec(self.config),
            "n_width": self.n_width,
            "n_thickness": self.n_thickness,
        }

    def solve_point(self, point):
        solution = self._problem(*point).solve(self.frequency)
        return (float(solution.mutual_loop_inductances["VICTIM"]),)

    def table_metadata(self):
        return {"frequency": self.frequency, "model": "loop_pair"}


def _check_partial(thickness: float, frequency: Optional[float]) -> None:
    if thickness <= 0.0:
        raise TableError("thickness must be positive")
    if frequency is not None and frequency <= 0.0:
        raise TableError("frequency must be positive when given")


@dataclass(frozen=True)
class PartialSelfInductanceJob(CharacterizationJob):
    """Partial self-L table over (width, length) for one layer.

    For blocks *without* ground planes the Foundations make partial
    inductance exact under the 1-/2-trace reduction (Sec. II-A / III).
    ``frequency=None`` uses the exact uniform-current closed form; a
    positive value meshes the cross-section and solves the skin-effect
    current distribution at that frequency.
    """

    thickness: float = 0.0
    widths: Tuple[float, ...] = ()
    lengths: Tuple[float, ...] = ()
    frequency: Optional[float] = None
    resistivity: float = RHO_CU
    layer: str = ""
    name: str = "self_partial_inductance"

    kind = "partial_self"

    def __post_init__(self):
        _check_partial(self.thickness, self.frequency)
        object.__setattr__(self, "widths", _axis_tuple("width", self.widths))
        object.__setattr__(self, "lengths", _axis_tuple("length", self.lengths))

    def axis_names(self):
        return ("width", "length")

    def axes(self):
        return (self.widths, self.lengths)

    def outputs(self):
        return (JobOutput(self.name, "self_inductance"),)

    def builder_spec(self):
        return {
            # hashed into job_id / table_key: renaming re-keys every kit
            "builder": "PartialInductanceTableBuilder",
            "mode": "self",
            "thickness": self.thickness,
            "resistivity": self.resistivity,
        }

    def solve_point(self, point):
        width, length = (float(v) for v in point)
        bar = RectBar(Point3D(0, 0, 0), length=length, width=width,
                      thickness=self.thickness)
        if self.frequency is None:
            return (float(bar_self_inductance(bar)),)
        delta = skin_depth(self.resistivity, self.frequency)
        n_w, n_t = skin_mesh_counts(width, self.thickness, delta)
        solver = PartialInductanceSolver([
            Conductor.from_bar("T", bar, self.resistivity, n_w, n_t, grading=1.5)
        ])
        _, l_matrix = solver.effective_rl(self.frequency)
        return (float(l_matrix[0, 0]),)

    def table_metadata(self):
        return {
            "thickness": self.thickness,
            "frequency": self.frequency,
            "model": "partial",
        }


@dataclass(frozen=True)
class PartialMutualInductanceJob(CharacterizationJob):
    """Partial mutual-L table over (width1, width2, spacing, length)."""

    thickness: float = 0.0
    widths1: Tuple[float, ...] = ()
    widths2: Tuple[float, ...] = ()
    spacings: Tuple[float, ...] = ()
    lengths: Tuple[float, ...] = ()
    frequency: Optional[float] = None
    resistivity: float = RHO_CU
    layer: str = ""
    name: str = "mutual_partial_inductance"

    kind = "partial_mutual"

    def __post_init__(self):
        _check_partial(self.thickness, self.frequency)
        object.__setattr__(self, "widths1", _axis_tuple("width1", self.widths1))
        object.__setattr__(self, "widths2", _axis_tuple("width2", self.widths2))
        object.__setattr__(self, "spacings", _axis_tuple("spacing", self.spacings))
        object.__setattr__(self, "lengths", _axis_tuple("length", self.lengths))

    def axis_names(self):
        return ("width1", "width2", "spacing", "length")

    def axes(self):
        return (self.widths1, self.widths2, self.spacings, self.lengths)

    def outputs(self):
        return (JobOutput(self.name, "mutual_inductance"),)

    def builder_spec(self):
        return {
            # hashed into job_id / table_key: renaming re-keys every kit
            "builder": "PartialInductanceTableBuilder",
            "mode": "mutual",
            "thickness": self.thickness,
            "resistivity": self.resistivity,
        }

    def solve_point(self, point):
        w1, w2, spacing, length = (float(v) for v in point)
        if self.frequency is None:
            return (float(mutual_inductance_batch(
                0.0, length, 0.0, w1, 0.0, self.thickness,
                0.0, length, w1 + spacing, w2, 0.0, self.thickness,
            )),)
        bar1 = RectBar(Point3D(0, 0, 0), length=length, width=w1,
                       thickness=self.thickness)
        bar2 = RectBar(Point3D(0, w1 + spacing, 0), length=length, width=w2,
                       thickness=self.thickness)
        delta = skin_depth(self.resistivity, self.frequency)
        n_w1, n_t = skin_mesh_counts(w1, self.thickness, delta)
        n_w2, _ = skin_mesh_counts(w2, self.thickness, delta)
        solver = PartialInductanceSolver([
            Conductor.from_bar("T1", bar1, self.resistivity, n_w1, n_t, grading=1.5),
            Conductor.from_bar("T2", bar2, self.resistivity, n_w2, n_t, grading=1.5),
        ])
        _, l_matrix = solver.effective_rl(self.frequency)
        return (float(l_matrix[0, 1]),)

    def table_metadata(self):
        return {
            "thickness": self.thickness,
            "frequency": self.frequency,
            "model": "partial",
        }


@dataclass(frozen=True)
class ThreeTraceCapacitanceJob(CharacterizationJob):
    """Ground + coupling capacitance from 3-trace FD solves (Sec. II).

    The paper's capacitance prescription verbatim: "for any trace, it is
    sufficient to solve the trace and its two adjacent traces via
    numerical extraction".  Each (width, spacing) point solves a
    3-equal-trace cross-section with the 2-D FD extractor and records
    the middle trace's ground and coupling capacitance per unit length.
    """

    height_below: float = 0.0
    thickness: float = 0.0
    widths: Tuple[float, ...] = ()
    spacings: Tuple[float, ...] = ()
    eps_r: float = 3.9
    nx: int = 140
    nz: int = 100
    layer: str = ""
    name_prefix: str = "three_trace"

    kind = "three_trace_cap"
    frequency = None

    def __post_init__(self):
        if self.height_below <= 0.0 or self.thickness <= 0.0:
            raise TableError("height_below and thickness must be positive")
        object.__setattr__(self, "widths", _axis_tuple("width", self.widths))
        object.__setattr__(self, "spacings", _axis_tuple("spacing", self.spacings))

    def axis_names(self):
        return ("width", "spacing")

    def axes(self):
        return (self.widths, self.spacings)

    def outputs(self):
        return (
            JobOutput(f"{self.name_prefix}_ground_capacitance",
                      "capacitance_per_length"),
            JobOutput(f"{self.name_prefix}_coupling_capacitance",
                      "capacitance_per_length"),
        )

    def builder_spec(self):
        return {
            # hashed into job_id / table_key: renaming re-keys every kit
            "builder": "ThreeTraceCapacitanceBuilder",
            "height_below": self.height_below,
            "thickness": self.thickness,
            "eps_r": self.eps_r,
            "nx": self.nx,
            "nz": self.nz,
        }

    def solve_point(self, point):
        width, spacing = (float(v) for v in point)
        block = TraceBlock.from_widths_and_spacings(
            widths=[width] * 3, spacings=[spacing] * 2, length=1.0,
            thickness=self.thickness, ground_flags=[False] * 3,
        )
        cross_section = CrossSection2D.from_block(
            block, plane_gap=self.height_below, eps_r=self.eps_r
        )
        matrix = FieldSolver2D(
            cross_section, nx=self.nx, nz=self.nz).capacitance_matrix()
        coupling = -matrix[1, 0]
        ground = matrix[1, 1] + matrix[1, 0] + matrix[1, 2]
        return (float(max(ground, 0.0)), float(max(coupling, 0.0)))

    def table_metadata(self):
        return {
            "height_below": self.height_below,
            "thickness": self.thickness,
            "eps_r": self.eps_r,
            "nx": self.nx,
            "nz": self.nz,
            "model": "fd2d_three_trace",
        }


@dataclass(frozen=True)
class TotalCapacitanceJob(CharacterizationJob):
    """Per-unit-length total signal capacitance for a structure config.

    Each (width, spacing) point solves the config's ``cross_section()``
    with the 2-D FD extractor (the paper's pre-characterized
    capacitance of ref [4]) and records the signal's diagonal entry.
    """

    config: object = None
    widths: Tuple[float, ...] = ()
    spacings: Tuple[float, ...] = ()
    nx: int = 160
    nz: int = 120
    layer: str = ""
    name: str = "signal_capacitance_per_length"
    signal_name: str = "SIG"

    kind = "total_cap"
    frequency = None

    def __post_init__(self):
        if self.config is None or not hasattr(self.config, "cross_section"):
            raise TableError(
                "TotalCapacitanceJob needs a config with cross_section()")
        object.__setattr__(self, "widths", _axis_tuple("width", self.widths))
        object.__setattr__(self, "spacings", _axis_tuple("spacing", self.spacings))
        _, names = self._cross_section(self.widths[0], self.spacings[0])
        if self.signal_name not in names:
            raise TableError(
                f"cross-section has conductors {names}, "
                f"no signal {self.signal_name!r}"
            )

    def _cross_section(self, width: float, spacing: float):
        """One point's cross-section and its conductor names."""
        cross_section = self.config.cross_section(
            signal_width=float(width), spacing=float(spacing))
        return cross_section, [c.name for c in cross_section.conductors]

    @property
    def family(self) -> str:
        return config_fingerprint(self.config)

    def axis_names(self):
        return ("width", "spacing")

    def axes(self):
        return (self.widths, self.spacings)

    def outputs(self):
        return (JobOutput(self.name, "capacitance_per_length"),)

    def builder_spec(self):
        return {
            # hashed into job_id / table_key: renaming re-keys every kit
            "builder": "CapacitanceTableBuilder",
            "config": config_spec(self.config),
            "nx": self.nx,
            "nz": self.nz,
            "signal_name": self.signal_name,
        }

    def solve_point(self, point):
        cross_section, names = self._cross_section(*point)
        index = names.index(self.signal_name)
        matrix = FieldSolver2D(
            cross_section, nx=self.nx, nz=self.nz).capacitance_matrix()
        return (float(matrix[index, index]),)

    def table_metadata(self):
        return {"nx": self.nx, "nz": self.nz, "model": "fd2d"}


def standard_clocktree_jobs(
    config,
    frequency: float,
    widths: Sequence[float],
    lengths: Sequence[float],
    spacings: Optional[Sequence[float]] = None,
    layer: str = "",
    name_prefix: str = "loop",
    capacitance_grid: Optional[Tuple[int, int]] = None,
) -> List[CharacterizationJob]:
    """The job set a clocktree extractor needs for one structure family.

    Loop L/R over (width, length), plus -- when *spacings* is given --
    the per-unit-length total-capacitance table over (width, spacing).
    """
    jobs: List[CharacterizationJob] = [
        LoopTableJob(
            config=config, frequency=frequency,
            widths=tuple(widths), lengths=tuple(lengths),
            layer=layer, name_prefix=name_prefix,
        )
    ]
    if spacings is not None:
        nx, nz = capacitance_grid if capacitance_grid else (160, 120)
        jobs.append(TotalCapacitanceJob(
            config=config, widths=tuple(widths), spacings=tuple(spacings),
            nx=nx, nz=nz, layer=layer,
            name=f"{name_prefix}_capacitance_per_length",
        ))
    return jobs
