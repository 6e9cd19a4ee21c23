"""One executor for independent tasks: library builds and sweep campaigns.

It is the only process pool in the package, so it alone defines what a
failure means (see :func:`fan_out`).
"""

from __future__ import annotations

from concurrent import futures
from typing import Any, Callable, Iterable, Sequence

from repro.errors import WorkerLostError

__all__ = ["fan_out"]


def fan_out(
    fn: Callable[..., Any],
    tasks: Iterable[Sequence[Any]],
    workers: int,
    fold: Callable[[Any], None],
) -> None:
    """Run ``fn(*task)`` for every task, folding each result as it lands.

    * ``workers <= 1``, or no pool can start: the tasks run in order in
      this process as ``fn(*task, in_worker=False)`` -- the flag tells
      *fn* that the parent's registry, tracer and caches already see
      its work.  Otherwise *fn* (module-level, picklable) runs in a
      process pool and results arrive in completion order.
    * A task (or *fold*) raises: tasks not yet started are cancelled
      and the error propagates unchanged.
    * A pool worker dies (SIGKILL, OOM killer, segfault):
      :class:`~repro.errors.WorkerLostError`.  Every result folded
      before it stays folded, so callers that persist per result
      (build checkpoints, the run ledger) resume on a re-run.
    """
    tasks = list(tasks)
    executor = None
    if workers > 1:
        try:
            executor = futures.ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError):  # pragma: no cover - constrained envs
            pass
    if executor is None:
        for task in tasks:
            fold(fn(*task, in_worker=False))
        return

    completed = 0
    with executor:
        pending = {executor.submit(fn, *task) for task in tasks}
        try:
            while pending:
                finished, pending = futures.wait(
                    pending, return_when=futures.FIRST_COMPLETED)
                # Fold every result that landed before raising an error
                # from the same batch: a dead worker breaks all
                # outstanding futures at once, and the finished ones
                # are work a re-run must not repeat.
                for future in finished:
                    if future.exception() is None:
                        fold(future.result())
                        completed += 1
                for future in finished:
                    future.result()
        except BaseException as exc:
            for future in pending:
                future.cancel()
            if isinstance(exc, futures.process.BrokenProcessPool):
                raise WorkerLostError(
                    f"a pool worker died after {completed} of "
                    f"{len(tasks)} task(s) completed; the completed "
                    "work is kept and a re-run resumes from it",
                    completed=completed, total=len(tasks),
                ) from exc
            raise
