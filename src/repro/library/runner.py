"""Parallel, resumable characterization builds.

:class:`BuildRunner` drives a list of
:class:`~repro.library.jobs.CharacterizationJob` specs into a
:class:`~repro.library.store.TableLibrary`:

* **Skip what is built.** A job whose output tables are all present in
  the library (by content key) costs one manifest lookup.
* **Fan out.** Remaining grid points (independent field solves) go
  through :func:`repro.fanout.fan_out` in contiguous *chunks*, so the
  per-task dispatch cost is amortized and neighboring grid points land
  in the same pool worker, where the PEEC kernel's partial-inductance
  memo cache reuses their shared geometry.  With one worker (``workers=1``,
  a 1-CPU machine, or ``parallel=False``) the chunks are single points
  solved in-process.  A dead worker raises
  :class:`~repro.errors.WorkerLostError`.
* **Checkpoint.** Every completed point is appended as one JSON line to
  ``<library>/checkpoints/<job_id>.jsonl`` and flushed, so a build
  killed mid-grid resumes from exactly the solved set -- only the
  missing points are solved again, and a torn trailing line (the crash
  case) is ignored.
* **Report.** :class:`BuildStats` carries per-job and total counts and
  wall times, and a ``progress`` callback streams live completion
  (fraction done, points/sec, ETA, memo hit rate).
* **Aggregate.** Counters tick in whichever process does the work, so a
  pooled build's solver activity would be invisible to the parent.
  Each pool task therefore ships back the worker's
  :class:`~repro.telemetry.MetricsSnapshot` *delta* and drained span
  tree along with its results; the parent folds them into
  :class:`JobStats` / :class:`BuildStats` (``worker_metrics``,
  ``worker_spans``) -- *not* into its own registry, so "this process
  performed zero solves" assertions keep meaning exactly that.  A
  compact telemetry summary of every finalized job is embedded in the
  library manifest entry of each table it produces.

The checkpoint granularity is the *point*, not the table, because one
field solve can take seconds to minutes while a line append is
microseconds -- the durability overhead is negligible against the work
it protects.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TableError
from repro.fanout import fan_out
from repro.library.jobs import CharacterizationJob
from repro.library.store import TableLibrary, open_library
from repro.telemetry import (
    BUILD_CHUNK_SECONDS,
    MetricsSnapshot,
    get_registry,
    get_tracer,
    span,
)

ProgressFn = Callable[["JobProgress"], None]


@dataclass(frozen=True)
class JobProgress:
    """One progress tick: *done* of *total* points for *job*.

    Carries enough for a live status line: completion fraction,
    throughput, an ETA extrapolated from it, and the build's memo-cache
    hit rate so far (parent and worker activity combined).
    """

    job: CharacterizationJob
    done: int
    total: int
    resumed: int
    elapsed: float
    #: Memo-cache hit rate over the job so far (workers included).
    memo_hit_rate: float = 0.0

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    @property
    def points_per_second(self) -> float:
        """Fresh solves per wall second so far (0.0 before the first)."""
        solved = self.done - self.resumed
        if solved <= 0 or self.elapsed <= 0.0:
            return 0.0
        return solved / self.elapsed

    @property
    def eta_seconds(self) -> float:
        """Projected seconds to completion at the current throughput."""
        rate = self.points_per_second
        if rate <= 0.0:
            return float("inf") if self.done < self.total else 0.0
        return (self.total - self.done) / rate


@dataclass
class JobStats:
    """Build accounting for one job."""

    job_id: str
    kind: str
    points_total: int = 0
    points_solved: int = 0
    points_resumed: int = 0
    skipped: bool = False
    wall_time: float = 0.0
    table_keys: Dict[str, str] = field(default_factory=dict)
    #: Wall seconds of every completed work unit (pool chunk, or single
    #: point on the serial path), in completion order.
    chunk_wall_times: List[float] = field(default_factory=list)
    #: Parent-process metric delta attributable to this job.
    metrics: Optional[MetricsSnapshot] = None
    #: Merged pool-worker metric deltas for this job (parallel builds).
    worker_metrics: Optional[MetricsSnapshot] = None
    #: Span trees drained from pool workers (serialized dicts).
    worker_spans: List[dict] = field(default_factory=list)
    #: Table-health reports from an audited build, keyed by table name
    #: (serialized :class:`~repro.quality.audit.TableHealthReport`).
    health: Dict[str, dict] = field(default_factory=dict)

    def add_worker_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold one worker chunk's metric delta into this job's totals."""
        if self.worker_metrics is None:
            self.worker_metrics = snapshot
        else:
            self.worker_metrics = self.worker_metrics.merged(snapshot)

    def combined_metrics(self) -> MetricsSnapshot:
        """Parent + worker metric deltas: the job's true totals."""
        combined = self.metrics if self.metrics is not None else MetricsSnapshot()
        if self.worker_metrics is not None:
            combined = combined.merged(self.worker_metrics)
        return combined

    def telemetry_summary(self) -> Dict[str, object]:
        """Compact build provenance embedded into library manifests."""
        totals = self.combined_metrics()
        return {
            "build_seconds": round(self.wall_time, 6),
            "points_solved": self.points_solved,
            "points_resumed": self.points_resumed,
            "chunks": len(self.chunk_wall_times),
            "loop_solve": totals.counter("loop_solve"),
            "partial_inductance_solve": totals.counter(
                "partial_inductance_solve"
            ),
            "field_solve_2d": totals.counter("field_solve_2d"),
            "lp_pair_eval": totals.counter("lp_pair_eval"),
            "lp_pair_total": totals.counter("lp_pair_total"),
            "memo_hit_rate": round(totals.memo_hit_rate, 6),
            "dedup_factor": round(totals.dedup_factor, 4),
        }


@dataclass
class BuildStats:
    """Build accounting for a whole run."""

    jobs: List[JobStats] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def jobs_total(self) -> int:
        return len(self.jobs)

    @property
    def jobs_skipped(self) -> int:
        return sum(1 for j in self.jobs if j.skipped)

    @property
    def points_total(self) -> int:
        return sum(j.points_total for j in self.jobs)

    @property
    def points_solved(self) -> int:
        return sum(j.points_solved for j in self.jobs)

    @property
    def points_resumed(self) -> int:
        return sum(j.points_resumed for j in self.jobs)

    @property
    def chunk_wall_times(self) -> List[float]:
        """Every job's work-unit wall times, concatenated."""
        return [t for j in self.jobs for t in j.chunk_wall_times]

    @property
    def worker_metrics(self) -> Optional[MetricsSnapshot]:
        """Merged pool-worker metric deltas of the whole run (or None)."""
        merged: Optional[MetricsSnapshot] = None
        for job in self.jobs:
            if job.worker_metrics is not None:
                merged = (job.worker_metrics if merged is None
                          else merged.merged(job.worker_metrics))
        return merged

    @property
    def worker_spans(self) -> List[dict]:
        """Span trees shipped back from pool workers, all jobs."""
        return [sp for j in self.jobs for sp in j.worker_spans]

    @property
    def health(self) -> Dict[str, dict]:
        """All jobs' table-health reports, keyed by table name."""
        merged: Dict[str, dict] = {}
        for job in self.jobs:
            merged.update(job.health)
        return merged

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.jobs_total} job(s): {self.jobs_skipped} warm-skipped, "
            f"{self.points_solved} point(s) solved, "
            f"{self.points_resumed} resumed from checkpoint, "
            f"{self.wall_time:.2f} s"
        )


@dataclass(frozen=True)
class ChunkResult:
    """What one chunk task hands back to the build parent.

    Everything is plain picklable data: the solved ``(index, values)``
    pairs, the chunk's wall time, the worker-registry metric *delta*
    accumulated while solving (serialized via
    :meth:`~repro.telemetry.MetricsSnapshot.to_dict`), and the span
    trees the chunk produced.  An in-process chunk carries neither
    delta nor spans: the parent's registry and tracer already hold them.
    """

    results: List[Tuple[int, Tuple[float, ...]]]
    wall_time: float
    metrics: Optional[dict] = None
    spans: List[dict] = field(default_factory=list)


#: Disk-memo shard paths this worker process has already warmed from;
#: keeps a long-lived pool worker from re-reading the shard every chunk.
_WORKER_MEMO_WARMED: set = set()


def _warm_worker_memo(disk_memo: str) -> None:
    """Warm the worker's global Lp memo from *disk_memo* once per process."""
    if disk_memo not in _WORKER_MEMO_WARMED:
        _WORKER_MEMO_WARMED.add(disk_memo)
        from repro.peec.diskmemo import warm_lp_memo

        warm_lp_memo(disk_memo)


def _solve_chunk_task(
    job: CharacterizationJob,
    indices: Sequence[int],
    points: Sequence[Tuple[float, ...]],
    disk_memo: Optional[str] = None,
    in_worker: bool = True,
) -> ChunkResult:
    """Solve a chunk of grid points in one task.

    Chunking amortizes the per-task pickle/dispatch overhead and --
    more importantly -- keeps neighboring grid points in the same
    process so the kernel's partial-inductance memo cache can reuse
    shared filament-pair geometry across them
    (:meth:`CharacterizationJob.solve_points`).

    In a pool worker the chunk is wrapped in a ``library.chunk`` span,
    and the worker registry's metric delta over the chunk travels back
    with the results -- the parent merges it into the build totals
    without ever polluting its own registry.  In-process
    (``in_worker=False``) the task leaves the parent's tracer, registry
    and disk memo alone: they already see the work, and
    :meth:`BuildRunner.build` warms and flushes the memo itself.
    """
    from repro.telemetry.logs import correlation_scope, get_logger

    # The chunk id (job prefix + index range) is this chunk's
    # correlation id: it rides on the ``library.chunk`` span shipped
    # back to the parent and on every log record the chunk emits.
    chunk_id = f"{job.job_id[:12]}.{indices[0]}-{indices[-1]}"
    t0 = time.perf_counter()
    if not in_worker:
        with correlation_scope(chunk_id=chunk_id):
            values = job.solve_points(points)
        return ChunkResult(list(zip(indices, values)),
                           time.perf_counter() - t0)

    registry = get_registry()
    tracer = get_tracer()
    # A forked worker inherits the parent's completed roots and -- when
    # the fork happened inside an open span -- its open-span stack.
    # Drop both so this chunk's trace is exactly this chunk's work.
    tracer.clear_stack()
    tracer.reset()
    start = registry.snapshot()
    if disk_memo is not None:
        _warm_worker_memo(disk_memo)
    with correlation_scope(chunk_id=chunk_id):
        with tracer.span("library.chunk", job=job.kind, points=len(indices)):
            values = job.solve_points(points)
        wall = time.perf_counter() - t0
        get_logger("repro.library.chunk").info(
            "chunk_done",
            job=job.kind,
            points=len(indices),
            wall_seconds=round(wall, 4),
            pid=os.getpid(),
        )
    if disk_memo is not None:
        from repro.peec.diskmemo import flush_lp_memo

        flush_lp_memo(disk_memo)
    return ChunkResult(
        results=list(zip(indices, values)),
        wall_time=time.perf_counter() - t0,
        metrics=registry.snapshot().minus(start).to_dict(),
        spans=[sp.to_dict() for sp in tracer.drain()],
    )


def _chunk_indices(remaining: Sequence[int], n_chunks: int) -> List[List[int]]:
    """Split *remaining* into at most *n_chunks* contiguous runs.

    Contiguity matters: ``points()`` is row-major over the axis grid, so
    contiguous index runs are geometric neighbors -- the layout the memo
    cache profits from.
    """
    n = len(remaining)
    n_chunks = max(1, min(n_chunks, n))
    bounds = [round(i * n / n_chunks) for i in range(n_chunks + 1)]
    return [
        list(remaining[bounds[i]:bounds[i + 1]])
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]


def _load_checkpoint(path: Path, n_outputs: int) -> Dict[int, List[float]]:
    """Read completed points from a JSONL checkpoint, tolerating torn tails.

    A crash can leave the final line truncated; any undecodable or
    malformed line is skipped (its point simply gets re-solved).
    """
    done: Dict[int, List[float]] = {}
    if not path.exists():
        return done
    try:
        text = path.read_text()
    except OSError:
        return done
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            index = int(record["i"])
            values = [float(v) for v in record["v"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            continue
        if len(values) == n_outputs and index >= 0:
            done[index] = values
    return done


class BuildRunner:
    """Execute characterization jobs against a library.

    Parameters
    ----------
    library:
        Target :class:`TableLibrary` (or its root path; created if
        missing).
    workers:
        Process count for pooled builds; ``None`` uses the CPU count.
    parallel:
        ``False`` forces one worker: the in-process path (deterministic,
        no fork -- what the tests use).
    progress:
        Optional callback receiving a :class:`JobProgress` after every
        completed point.  Raising from the callback aborts the build;
        everything already solved is safely checkpointed first.
    disk_memo:
        Optional path to a persistent Lp memo shard
        (:class:`~repro.peec.diskmemo.DiskMemoShard`).  The build warms
        the process-wide memo from it up front (workers warm once per
        process) and flushes freshly computed Hoer-Love values back, so
        a *second* build -- even in a fresh process -- reuses every pair
        evaluation ever made.
    auditor:
        Optional :class:`~repro.quality.audit.TableAuditor`.  When
        given, every *freshly built* job is spot-checked right after
        assembly -- a seeded off-grid sample is re-solved directly and
        the resulting :class:`~repro.quality.audit.TableHealthReport`
        is embedded as ``metadata["health"]`` in each table's manifest
        entry (and surfaced on :attr:`JobStats.health`).  Warm-skipped
        jobs keep the health report of the build that made them.
        Auditing runs field solves, so it is strictly opt-in.
    """

    #: Target number of chunks handed to each worker over a build; more
    #: chunks -> finer progress/checkpoint granularity, fewer chunks ->
    #: less dispatch overhead and better memo-cache locality.
    CHUNKS_PER_WORKER = 4

    def __init__(
        self,
        library: Union[TableLibrary, str, Path],
        workers: Optional[int] = None,
        parallel: bool = True,
        progress: Optional[ProgressFn] = None,
        auditor=None,
        disk_memo: Optional[Union[str, Path]] = None,
    ):
        if workers is not None and workers < 1:
            raise TableError("workers must be >= 1")
        self.library = open_library(library, create=True)
        #: Effective worker count; 1 runs every point in-process (a
        #: pool of one process buys no concurrency but still pays fork
        #: + pickle per task).
        self.workers = (
            (workers if workers is not None else (os.cpu_count() or 1))
            if parallel else 1
        )
        self.auditor = auditor
        self.disk_memo = str(disk_memo) if disk_memo is not None else None
        self.progress = progress

    # ------------------------------------------------------------------
    def build(self, jobs: Sequence[CharacterizationJob]) -> BuildStats:
        """Run every job, reusing library content and checkpoints."""
        stats = BuildStats()
        t0 = time.perf_counter()
        if self.disk_memo is not None:
            from repro.peec.diskmemo import warm_lp_memo

            warm_lp_memo(self.disk_memo)
        for job in jobs:
            stats.jobs.append(self._build_job(job))
        if self.disk_memo is not None:
            from repro.peec.diskmemo import flush_lp_memo

            flush_lp_memo(self.disk_memo)
        stats.wall_time = time.perf_counter() - t0
        return stats

    # ------------------------------------------------------------------
    def _build_job(self, job: CharacterizationJob) -> JobStats:
        keys = job.table_keys()
        job_stats = JobStats(
            job_id=job.job_id,
            kind=job.kind,
            points_total=job.num_points(),
            table_keys=dict(keys),
        )
        registry = get_registry()
        start_snapshot = registry.snapshot()
        t0 = time.perf_counter()
        if all(key in self.library for key in keys.values()):
            job_stats.skipped = True
            job_stats.wall_time = time.perf_counter() - t0
            return job_stats

        points = job.points()
        n_outputs = len(job.outputs())
        checkpoint = self.library.checkpoint_path(job.job_id)
        done = {
            i: v for i, v in _load_checkpoint(checkpoint, n_outputs).items()
            if i < len(points)
        }
        job_stats.points_resumed = len(done)
        remaining = [i for i in range(len(points)) if i not in done]

        with span("library.job", job=job.kind, points=len(points),
                  resumed=job_stats.points_resumed):
            if remaining:
                checkpoint.parent.mkdir(parents=True, exist_ok=True)
                with open(checkpoint, "a", encoding="utf-8") as log:
                    def fold(chunk: ChunkResult) -> None:
                        job_stats.chunk_wall_times.append(chunk.wall_time)
                        registry.observe(BUILD_CHUNK_SECONDS,
                                         chunk.wall_time)
                        if chunk.metrics is not None:
                            job_stats.add_worker_snapshot(
                                MetricsSnapshot.from_dict(chunk.metrics))
                        job_stats.worker_spans.extend(chunk.spans)
                        for index, values in chunk.results:
                            values = [float(v) for v in values]
                            done[index] = values
                            log.write(json.dumps({"i": index, "v": values})
                                      + "\n")
                            log.flush()
                            os.fsync(log.fileno())
                            job_stats.points_solved += 1
                            if self.progress is None:
                                continue
                            job_stats.metrics = registry.snapshot().minus(
                                start_snapshot
                            )
                            self.progress(JobProgress(
                                job=job,
                                done=len(done),
                                total=len(points),
                                resumed=job_stats.points_resumed,
                                elapsed=time.perf_counter() - t0,
                                memo_hit_rate=(
                                    job_stats.combined_metrics().memo_hit_rate
                                ),
                            ))

                    # Pool chunks are contiguous index runs; in-process
                    # chunks are single points, so checkpoints and
                    # progress ticks stay per point either way.
                    chunks = (
                        _chunk_indices(remaining,
                                       self.workers * self.CHUNKS_PER_WORKER)
                        if self.workers > 1 else [[i] for i in remaining]
                    )
                    fan_out(
                        _solve_chunk_task,
                        [(job, chunk, [points[i] for i in chunk],
                          self.disk_memo) for chunk in chunks],
                        self.workers,
                        fold,
                    )

            job_stats.metrics = registry.snapshot().minus(start_snapshot)
            # Fix wall time before finalization so the manifest summary
            # records the real build duration (finalization is cheap;
            # the final update below only adds its tail).
            job_stats.wall_time = time.perf_counter() - t0
            self._finalize_job(
                job, keys, [done[i] for i in range(len(points))],
                checkpoint, job_stats,
            )
        job_stats.wall_time = time.perf_counter() - t0
        return job_stats

    # ------------------------------------------------------------------
    def _finalize_job(
        self,
        job: CharacterizationJob,
        keys: Dict[str, str],
        values_by_point: List[List[float]],
        checkpoint: Path,
        job_stats: Optional[JobStats] = None,
    ) -> None:
        metadata: Dict[str, object] = {"kind": job.kind}
        if job_stats is not None:
            metadata["telemetry"] = job_stats.telemetry_summary()
        tables = job.assemble(values_by_point)
        health: Dict[str, dict] = {}
        if self.auditor is not None:
            # Audit after the metrics snapshot above was taken, so the
            # manifest telemetry summary records the *build* cost only;
            # the audit's own direct solves tick audit_direct_solve.
            reports = self.auditor.audit_job(job, tables)
            health = {name: r.to_dict() for name, r in reports.items()}
            if job_stats is not None:
                job_stats.health.update(health)
        for table in tables:
            table_metadata = dict(metadata)
            if table.name in health:
                table_metadata["health"] = health[table.name]
            self.library.put(
                table,
                key=keys[table.name],
                layer=job.layer,
                family=job.family,
                frequency=job.frequency,
                job_id=job.job_id,
                metadata=table_metadata,
            )
        try:
            checkpoint.unlink()
        except OSError:
            pass


def build_library(
    library: Union[TableLibrary, str, Path],
    jobs: Sequence[CharacterizationJob],
    workers: Optional[int] = None,
    parallel: bool = True,
    progress: Optional[ProgressFn] = None,
    auditor=None,
    disk_memo: Optional[Union[str, Path]] = None,
) -> BuildStats:
    """Convenience wrapper: run *jobs* into *library* and return stats."""
    runner = BuildRunner(library, workers=workers, parallel=parallel,
                         progress=progress, auditor=auditor,
                         disk_memo=disk_memo)
    return runner.build(jobs)
