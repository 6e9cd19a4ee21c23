"""Declarative experiment scenarios: name + typed params + run function.

A :class:`Scenario` is the unit the registry discovers and the runner
executes: a stable name, the paper-figure group it reproduces, a dict of
**typed default parameters** (UPPERCASE names, overridable from the CLI
as ``--PARAM=value`` in the pycomex style), and a ``run(params,
session)`` callable returning a flat-ish dict of metrics.  The metrics
dict is what lands in the run ledger and what ``repro diff run``
compares across runs, so values must be JSON-serializable scalars (or
nested dicts of them).

Parameter overrides are *coerced to the default's type* -- ``"4e-3"``
against a float default becomes ``0.004``, ``"true"`` against a bool
becomes ``True`` -- so the canonical parameter dict (and therefore the
content-addressed run key) is independent of how the value was spelled
on the command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from repro.errors import ScenarioError

__all__ = ["Scenario", "coerce_param", "canonical_params"]

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def coerce_param(name: str, default: object, raw: object) -> object:
    """Coerce one override *raw* to the type of *default*.

    String spellings are normalized (``"4e-3"`` -> ``0.004`` for float
    defaults, ``"true"`` -> ``True`` for bools), so equivalent
    invocations canonicalize to identical parameter dicts.
    """
    try:
        if isinstance(default, bool):
            if isinstance(raw, bool):
                return raw
            text = str(raw).strip().lower()
            if text in _TRUE:
                return True
            if text in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int) and not isinstance(default, bool):
            value = float(str(raw).strip()) if not isinstance(
                raw, (int, float)) else float(raw)
            if value != int(value):
                raise ValueError(f"not an integer: {raw!r}")
            return int(value)
        if isinstance(default, float):
            return float(str(raw).strip()) if not isinstance(
                raw, (int, float)) else float(raw)
        if isinstance(default, str):
            return str(raw)
        if isinstance(default, (list, tuple)):
            if isinstance(raw, (list, tuple)):
                return list(raw)
            value = json.loads(str(raw))
            if not isinstance(value, list):
                raise ValueError(f"not a JSON list: {raw!r}")
            return value
    except (TypeError, ValueError) as exc:
        raise ScenarioError(
            f"parameter {name}={raw!r} does not coerce to "
            f"{type(default).__name__}: {exc}"
        ) from None
    raise ScenarioError(
        f"parameter {name} has unsupported default type "
        f"{type(default).__name__!r}"
    )


def canonical_params(defaults: Mapping[str, object],
                     overrides: Optional[Mapping[str, object]] = None,
                     scenario: str = "?") -> Dict[str, object]:
    """Defaults merged with coerced *overrides*, sorted by name.

    Unknown override names raise :class:`ScenarioError` listing the
    valid parameters; the returned dict is key-sorted so two spellings
    of the same request serialize identically.
    """
    params = dict(defaults)
    for name, raw in (overrides or {}).items():
        if name not in params:
            known = ", ".join(sorted(params)) or "(none)"
            raise ScenarioError(
                f"scenario {scenario!r} has no parameter {name!r} "
                f"(valid: {known})"
            )
        params[name] = coerce_param(name, params[name], raw)
    return {name: params[name] for name in sorted(params)}


@dataclass(frozen=True)
class Scenario:
    """One discoverable, parameterized, ledger-recorded experiment."""

    #: Stable registry name (kebab-case), e.g. ``"htree-skew"``.
    name: str
    #: Paper-figure group: ``"fig1"``, ``"fig5"``, ``"table1"``,
    #: ``"sec3"``, ``"sec5"``, ``"extra"`` -- used for grouping in
    #: ``repro run --list``.
    figure: str
    #: One-line description shown by ``--list``.
    description: str
    #: Typed default parameters (UPPERCASE names).
    defaults: Mapping[str, object] = field(default_factory=dict)
    #: ``run(params, session) -> dict`` of metrics.  *session* is the
    #: active :class:`~repro.telemetry.TelemetrySession` (or None) for
    #: attaching simulation/coverage sections to the run report.
    run: Callable[[Dict[str, object], object], Dict[str, object]] = None  # type: ignore[assignment]
    #: Optional ``render(metrics) -> str`` producing the human-readable
    #: console output (``repro run`` prints it verbatim).
    render: Optional[Callable[[Dict[str, object]], str]] = None

    def params_with(self, overrides: Optional[Mapping[str, object]] = None
                    ) -> Dict[str, object]:
        """The canonical parameter dict for this scenario + *overrides*."""
        return canonical_params(self.defaults, overrides, scenario=self.name)
