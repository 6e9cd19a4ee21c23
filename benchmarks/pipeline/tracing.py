"""Timing wrappers around the layers' public entry points, and span math.

The benchmark measures every layer from outside: before a traced run it
replaces each entry point in :data:`ENTRY_POINTS` with a wrapper that
records one span ``(layer, start, end, parent)`` per call.  Nothing in
``src/`` changes.  A function is replaced in its defining module *and*
in every loaded ``repro`` module that imported it by name, so calls
through ``from x import f`` aliases are seen too.

Spans stay in memory until the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.  The
same wrappers can also stretch one layer by a fixed fraction of its own
duration (:class:`Patch` ``delays``), which is how the smoke test checks
that the benchmark notices a slowdown in one layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped entry point.  Names
#: follow the repository's package layout, so a layer metric names the
#: module it measures.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("peec.assemble", "repro.peec.kernel",
     "assemble_partial_inductance_matrix"),
    ("peec.factorize", "repro.peec.kernel", "ImpedanceFactorization.__init__"),
    ("peec.loop_solve", "repro.peec.loop", "LoopProblem.solve"),
    ("rc.fieldsolver", "repro.rc.fieldsolver2d",
     "FieldSolver2D.capacitance_matrix"),
    ("tables.build", "repro.library.jobs", "CharacterizationJob.assemble"),
    ("tables.build", "repro.library.jobs", "LoopTableJob.solve_point"),
    ("tables.build", "repro.library.jobs", "TotalCapacitanceJob.solve_point"),
    ("library.store", "repro.library.store", "TableLibrary.put"),
    ("library.runner", "repro.library.runner", "BuildRunner.build"),
    ("tables.lookup", "repro.tables.lookup", "ExtractionTable.lookup"),
    ("quality.coverage", "repro.quality.coverage", "record_lookup"),
    ("clocktree.extract", "repro.clocktree.extractor",
     "ClocktreeRLCExtractor.segment_rlc_for"),
    ("clocktree.netlist", "repro.clocktree.extractor",
     "ClocktreeRLCExtractor.build_netlist"),
    ("circuit.lint", "repro.circuit.lint", "lint_circuit"),
    ("circuit.assemble", "repro.circuit.netlist", "Circuit.assemble"),
    ("circuit.factor", "repro.circuit.backend", "factorize"),
    ("circuit.step", "repro.circuit.transient", "transient_analysis"),
    ("circuit.diagnostics", "repro.circuit.diagnostics",
     "estimate_local_truncation_error"),
    ("circuit.diagnostics", "repro.circuit.diagnostics", "energy_balance"),
    ("circuit.diagnostics", "repro.circuit.diagnostics", "dt_adequacy"),
    ("clocktree.measure", "repro.clocktree.skew", "simulate_clocktree"),
    ("serve.handle", "repro.serve.service", "ExtractionService.handle"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))


class Span:
    """One timed call into a layer."""

    __slots__ = ("layer", "start", "end", "parent", "thread", "tag")

    def __init__(self, layer: str, parent: Optional["Span"], thread: int,
                 tag: Optional[str]):
        self.layer = layer
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.thread = thread
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread; a per-thread stack gives parents."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, tag: Optional[str] = None) -> Span:
        stack = self._stack()
        sp = Span(layer, stack[-1] if stack else None,
                  threading.get_ident(), tag)
        stack.append(sp)
        self.spans.append(sp)  # list.append is atomic under the GIL
        sp.start = time.perf_counter()
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, layer: str, tag: Optional[str] = None) -> Iterator[Span]:
        """A span the benchmark opens itself (the HTTP client side)."""
        sp = self.open(layer, tag)
        try:
            yield sp
        finally:
            self.close(sp)


def _request_id() -> Optional[str]:
    from repro.telemetry.logs import correlation_ids

    return correlation_ids().get("request_id")


def _wrap(layer: str, fn: Callable, recorder: Optional[Recorder],
          delay: float) -> Callable:
    tag_fn = _request_id if layer == "serve.handle" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sp = None
        if recorder is not None:
            sp = recorder.open(layer, tag_fn() if tag_fn else None)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if delay:
                time.sleep(delay * (time.perf_counter() - t0))
            if sp is not None:
                recorder.close(sp)

    return wrapper


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patch:
    """Install (and later remove) the layer wrappers.

    *recorder* receives spans (None: no spans).  *delays* maps a layer
    to the fraction of its own duration to add to every call, e.g.
    ``{"circuit.step": 0.3}``.  Only entry points that record or delay
    are wrapped.
    """

    def __init__(self, recorder: Optional[Recorder] = None,
                 delays: Optional[Dict[str, float]] = None):
        self.recorder = recorder
        self.delays = dict(delays or {})
        unknown = set(self.delays) - set(LAYERS)
        if unknown:
            raise ValueError(f"unknown layer(s) {sorted(unknown)}; "
                             f"known: {', '.join(LAYERS)}")
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        for layer, module_name, path in ENTRY_POINTS:
            delay = self.delays.get(layer, 0.0)
            if self.recorder is None and not delay:
                continue
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = _wrap(layer, original, self.recorder, delay)
            self._set(owner, attr, original, wrapper)
            if not isinstance(owner, type):
                # Rebind `from module import fn` aliases everywhere.
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "") or ""
                    if module is owner or not name.startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, alias, original, wrapper)
        return self

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ----------------------------------------------------------------------
# span math
# ----------------------------------------------------------------------
def link_requests(spans: Iterable[Span]) -> None:
    """Make each server-side ``serve.handle`` root span a child of the
    client ``serve.http`` span that carried the same request id."""
    clients = {sp.tag: sp for sp in spans
               if sp.layer == "serve.http" and sp.tag}
    for sp in spans:
        if sp.parent is None and sp.layer == "serve.handle" and sp.tag:
            sp.parent = clients.get(sp.tag)


def self_times(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """Per layer: (total self seconds, call count)."""
    covered: Dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            key = id(sp.parent)
            covered[key] = covered.get(key, 0.0) + sp.duration
    out: Dict[str, Tuple[float, int]] = {}
    for sp in spans:
        self_s = sp.duration - covered.get(id(sp), 0.0)
        total, calls = out.get(sp.layer, (0.0, 0))
        out[sp.layer] = (total + self_s, calls + 1)
    return out


def root_seconds(spans: Iterable[Span]) -> float:
    """Summed duration of the root spans (time inside any layer)."""
    return sum(sp.duration for sp in spans if sp.parent is None)


def to_records(spans: List[Span]) -> List[dict]:
    """JSON-ready ``{id, layer, start, end, parent}`` records."""
    ids = {id(sp): i for i, sp in enumerate(spans)}
    return [
        {"id": i, "layer": sp.layer, "start": sp.start, "end": sp.end,
         "parent": ids.get(id(sp.parent)) if sp.parent is not None else None,
         "thread": sp.thread}
        for i, sp in enumerate(spans)
    ]
