"""Hierarchical tracing spans over the extraction pipeline.

A *span* is one timed region of work with a name, free-form tags, the
wall time it took, and the registry **counter deltas** that accumulated
inside it -- so a ``peec.assemble`` span carries exactly how many
Hoer-Love pair evaluations it performed, and a ``library.job`` span
carries its solver-call totals.  Spans nest: entering a span inside
another makes it a child, producing an in-memory trace tree::

    with span("serve.extract"):
        with span("htree.build_netlist", segments=len(htree.segments)):
            ...
        with span("netlist.lint", elements=len(circuit.elements)):
            ...

Spans mark coarse boundaries (one per stage, never one per segment or
per lookup): each one snapshots every counter twice.

Design points:

* **Exception safe** -- a raising block still closes its span (status
  ``"error"``, the exception recorded) and restores the parent, then
  re-raises.  The trace tree never corrupts on failure.
* **Cheap when off** -- ``set_spans_enabled(False)`` (or the
  ``spans_disabled()`` context manager) turns :func:`span` into a
  near-free no-op; the tier-1 overhead guard asserts the *enabled* cost
  on a reference kernel assembly stays under 5 %.
* **Thread-aware** -- the active-span stack is thread-local; each
  thread's top-level spans become roots of the shared trace.
* **Bounded** -- completed root spans are retained up to
  :attr:`Tracer.max_roots`; beyond that the oldest are dropped and
  counted, so long-lived processes cannot leak memory into the tracer.
* **Serializable** -- :meth:`Span.to_dict` / :func:`spans_to_jsonl`
  dump the tree as nested dicts or flat JSONL records (one span per
  line with ``id``/``parent``/``depth``), the format run reports embed
  and pool workers ship back to the build parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional

from repro.telemetry.logs import current_correlation
from repro.telemetry.registry import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "span",
    "spans_enabled",
    "set_spans_enabled",
    "spans_disabled",
    "spans_to_jsonl",
]


class Span:
    """One completed (or in-flight) traced region."""

    __slots__ = (
        "name", "tags", "started_at", "duration", "children",
        "metrics", "status", "error",
    )

    def __init__(self, name: str, tags: Optional[Dict[str, object]] = None):
        self.name = name
        #: Free-form key/value annotations (JSON-compatible values).
        self.tags: Dict[str, object] = dict(tags or {})
        #: Wall-clock epoch seconds when the span opened.
        self.started_at = time.time()
        #: Wall seconds inside the span (filled at close).
        self.duration = 0.0
        self.children: List["Span"] = []
        #: Registry counter deltas accumulated inside the span.
        self.metrics: Dict[str, int] = {}
        self.status = "ok"
        self.error: Optional[str] = None

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "started_at": self.started_at,
            "duration": self.duration,
            "status": self.status,
        }
        if self.tags:
            data["tags"] = dict(self.tags)
        if self.metrics:
            data["metrics"] = dict(self.metrics)
        if self.error is not None:
            data["error"] = self.error
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration:.6f}s, "
                f"{len(self.children)} children, {self.status})")


class Tracer:
    """Collects span trees for one process.

    The active-span stack is per-thread; completed top-of-stack spans
    attach to their parent, completed bottom-of-stack spans are appended
    (under a lock) to :attr:`roots`, bounded by :attr:`max_roots`.
    """

    DEFAULT_MAX_ROOTS = 4096

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        enabled: bool = True,
        max_roots: int = DEFAULT_MAX_ROOTS,
    ):
        self._registry = registry
        self.enabled = enabled
        self._roots: Deque[Span] = deque(maxlen=max_roots)
        #: Root spans discarded because the retention bound was hit.
        self.dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def max_roots(self) -> int:
        """Retention bound on completed root spans."""
        return self._roots.maxlen

    @property
    def roots(self) -> List[Span]:
        """The retained completed root spans, oldest first (a copy)."""
        with self._lock:
            return list(self._roots)

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span of this thread (None outside spans)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **tags: object) -> Iterator[Optional[Span]]:
        """Open a traced region; yields the live :class:`Span` (or None
        when tracing is disabled)."""
        if not self.enabled:
            yield None
            return
        registry = self.registry
        sp = Span(name, tags)
        # Correlation ids (request_id / chunk_id) ride onto every span so
        # a slow request found in the access log can be opened as a trace.
        # Tuple iteration keeps the no-correlation hot path allocation-free
        # (the tier-1 overhead guard holds span cost under 5 %).
        correlation = current_correlation()
        if correlation:
            for key, value in correlation:
                sp.tags.setdefault(key, value)
        stack = self._stack()
        start_counters = registry.counters_snapshot()
        stack.append(sp)
        t0 = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.status = "error"
            sp.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            sp.duration = time.perf_counter() - t0
            end_counters = registry.counters_snapshot()
            sp.metrics = {
                key: end_counters[key] - start_counters.get(key, 0)
                for key in end_counters
                if end_counters[key] - start_counters.get(key, 0)
            }
            stack.pop()
            if stack:
                stack[-1].children.append(sp)
            else:
                with self._lock:
                    if len(self._roots) == self._roots.maxlen:
                        self.dropped += 1  # the append evicts the oldest
                    self._roots.append(sp)

    # ------------------------------------------------------------------
    def drain(self) -> List[Span]:
        """Return and clear every completed root span."""
        with self._lock:
            roots = list(self._roots)
            self._roots.clear()
        return roots

    def reset(self) -> None:
        """Drop completed roots and the dropped-span counter."""
        with self._lock:
            self._roots.clear()
            self.dropped = 0

    def clear_stack(self) -> None:
        """Drop this thread's open-span stack (inherited-state hygiene).

        A ``fork()`` taken while a span is open copies the parent's
        open-span stack into the child, where it can never close --
        every span the child then records would attach to the phantom
        inherited parent instead of becoming a drainable root.  Pool
        workers call this (plus :meth:`reset`) at task start so their
        trace begins from a clean slate.
        """
        self._local.stack = []


#: The process-wide tracer every instrumented layer writes to.
_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide :class:`Tracer`."""
    return _GLOBAL_TRACER


def span(name: str, **tags: object):
    """Open a span on the global tracer (the usual entry point)::

        with span("tables.build", kind="loop_rl", points=n):
            ...
    """
    return _GLOBAL_TRACER.span(name, **tags)


def spans_enabled() -> bool:
    """Whether the global tracer records spans."""
    return _GLOBAL_TRACER.enabled


def set_spans_enabled(enabled: bool) -> None:
    """Globally switch span recording on or off."""
    _GLOBAL_TRACER.enabled = bool(enabled)


@contextmanager
def spans_disabled() -> Iterator[None]:
    """Suspend span recording inside the block (overhead baselines)."""
    previous = _GLOBAL_TRACER.enabled
    _GLOBAL_TRACER.enabled = False
    try:
        yield
    finally:
        _GLOBAL_TRACER.enabled = previous


def spans_to_jsonl(spans: List[dict]) -> str:
    """Flatten span-tree dicts into JSONL (one span per line).

    Each line carries ``id``, ``parent`` (None for roots) and ``depth``
    alongside the span's own fields, children removed -- the streaming-
    friendly format for log shippers and ad-hoc ``jq`` analysis.
    """
    counter = itertools.count()
    lines: List[str] = []

    def emit(node: dict, parent: Optional[int], depth: int) -> None:
        span_id = next(counter)
        record = {k: v for k, v in node.items() if k != "children"}
        record.update({"id": span_id, "parent": parent, "depth": depth})
        lines.append(json.dumps(record, sort_keys=True))
        for child in node.get("children", ()):
            emit(child, span_id, depth + 1)

    for root in spans:
        emit(root, None, 0)
    return "\n".join(lines) + ("\n" if lines else "")
