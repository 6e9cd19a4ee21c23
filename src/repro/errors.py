"""Exception hierarchy for :mod:`repro`.

All library errors derive from :class:`ReproError` so callers can catch the
whole family with one clause while still distinguishing geometry problems
from numerical ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GeometryError(ReproError):
    """A conductor geometry is malformed (non-positive size, overlap, ...)."""


class StackupError(ReproError):
    """A technology stackup definition is inconsistent."""


class SolverError(ReproError):
    """A field-solver problem could not be solved (singular system, ...)."""


class TableError(ReproError):
    """An extraction table is malformed or cannot answer a query."""


class ExtrapolationWarning(UserWarning):
    """A table lookup fell outside the characterized grid and extrapolated."""


class CircuitError(ReproError):
    """A netlist is malformed (unknown node, duplicate element, ...)."""


class ConvergenceError(SolverError):
    """An iterative analysis failed to converge."""


class TelemetryError(ReproError):
    """A telemetry metric, span or report is used inconsistently."""


class ServeError(ReproError):
    """Invalid or unserviceable extraction-service request.

    Carries the HTTP status the server should answer with (default 400);
    the service layer raises it for malformed payloads, unknown
    endpoints and missing tables so handlers map failures uniformly.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = int(status)


class QualityError(ReproError):
    """A quality artifact (health report, bench record) is malformed."""


class ScenarioError(ReproError):
    """A scenario, its parameters, or a run-ledger query is invalid."""


class WorkerLostError(ReproError):
    """A pool worker died; ``completed`` of ``total`` tasks were folded.

    Raised by :func:`repro.fanout.fan_out` in place of the pool's
    ``BrokenProcessPool``; the folded results are kept, so a re-run
    resumes from them.
    """

    def __init__(self, message: str, completed: int = 0, total: int = 0):
        super().__init__(message)
        self.completed = int(completed)
        self.total = int(total)


class ScenarioRunError(ScenarioError):
    """A scenario run raised; the failure was recorded in the ledger.

    Carries the ledger ``run_id`` of the recorded failed run (empty when
    recording itself was impossible) and the original exception as
    ``__cause__``.
    """

    def __init__(self, message: str, run_id: str = ""):
        super().__init__(message)
        self.run_id = run_id
