"""Execute scenarios: content-addressed run keys, skip-if-done, ledger.

``run_scenario`` is the one code path every experiment invocation takes
-- ``repro run <scenario>``, each point of ``repro sweep run``, and
tests all land here.  The flow:

1. canonicalize params (``spec.canonical_params``) so spelling variants
   of the same request collapse;
2. compute the **run key** -- sha256 of scenario name + code version +
   canonical params + kit-manifest sha (``library/store.py`` keying);
3. ask the ledger for a *completed* run of that key; if present and not
   ``--force``, **skip** -- zero solver calls, the cached metrics are
   replayed;
4. otherwise run inside a :func:`~repro.telemetry.telemetry_session`,
   capture structured logs, and record metrics + RunReport + provenance
   in the ledger (status ``failed`` on exception, then re-raise as
   :class:`~repro.errors.ScenarioRunError`).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.errors import ScenarioError, ScenarioRunError
from repro.library.store import cache_key
from repro.scenarios.ledger import LedgerEntry, RunLedger
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import Scenario

__all__ = ["RunOutcome", "compute_run_key", "default_ledger_root",
           "kit_manifest_sha", "run_scenario"]

#: Bump to invalidate every existing run key (e.g. when a scenario's
#: metric semantics change incompatibly).
CODE_VERSION = 1

#: Environment override for the ledger location; default is a
#: ``.repro/runs`` directory under the current working tree.
LEDGER_ENV = "REPRO_LEDGER"


def default_ledger_root() -> Path:
    """``$REPRO_LEDGER`` when set, else ``.repro/runs`` in the cwd."""
    env = os.environ.get(LEDGER_ENV, "").strip()
    return Path(env) if env else Path(".repro") / "runs"


def kit_manifest_sha(params: Mapping[str, object]) -> str:
    """sha256 of the design-kit manifest a run depends on, or ``""``.

    Scenarios that read a characterized table library expose it as a
    ``LIBRARY`` parameter; hashing its ``manifest.json`` text (the same
    fingerprint the serve daemon uses) folds the kit contents into the
    run key, so a re-characterized kit never skip-matches stale runs.
    """
    library = str(params.get("LIBRARY", "") or "").strip()
    if not library:
        return ""
    manifest = Path(library) / "manifest.json"
    if not manifest.exists():
        raise ScenarioError(
            f"LIBRARY={library!r} has no manifest.json -- not a table "
            "library (build one with `repro library build --root DIR`)")
    return hashlib.sha256(manifest.read_text().encode("utf-8")).hexdigest()


def compute_run_key(scenario: Union[str, Scenario],
                    params: Mapping[str, object],
                    kit_sha: str = "") -> str:
    """The content address of one scenario request."""
    name = scenario.name if isinstance(scenario, Scenario) else str(scenario)
    return cache_key({
        "kind": "scenario-run",
        "scenario": name,
        "code_version": CODE_VERSION,
        "params": dict(params),
        "kit_manifest_sha": kit_sha,
    })


@dataclass
class RunOutcome:
    """What one ``run_scenario`` call produced (or replayed)."""

    entry: LedgerEntry
    metrics: Dict[str, object]
    params: Dict[str, object]
    run_key: str
    skipped: bool = False
    report: object = None

    @property
    def run_id(self) -> str:
        return self.entry.run_id


def _capture_logs_since(baseline: list) -> list:
    """Log-ring records appended after *baseline* was snapshotted."""
    from repro.telemetry.logs import get_log_ring

    seen = {id(r) for r in baseline}
    return [r for r in get_log_ring().records() if id(r) not in seen]


def run_scenario(
    name: str,
    overrides: Optional[Mapping[str, object]] = None,
    *,
    ledger: Optional[RunLedger] = None,
    force: bool = False,
    command: Optional[str] = None,
    telemetry_path: Optional[Union[str, Path]] = None,
) -> RunOutcome:
    """Run (or skip-replay) one scenario; returns a :class:`RunOutcome`.

    *ledger* defaults to :func:`default_ledger_root`.  With *force*
    False, a completed ledger run of the identical request is replayed
    without executing anything.  *command* labels the telemetry session
    (defaults to ``repro run <name>``; sweeps label each point);
    *telemetry_path* additionally saves the RunReport JSON there
    (``repro run --telemetry``).
    """
    from repro.quality.regress import run_metadata
    from repro.telemetry import telemetry_session
    from repro.telemetry.logs import get_log_ring

    scenario = get_scenario(name)
    params = scenario.params_with(overrides)
    kit_sha = kit_manifest_sha(params)
    run_key = compute_run_key(scenario, params, kit_sha)
    if ledger is None:
        ledger = RunLedger(default_ledger_root())

    if not force:
        hit = ledger.find_completed(run_key)
        if hit is not None:
            run = ledger.load_run(hit.run_id)
            return RunOutcome(
                entry=hit,
                metrics=dict(run.get("metrics") or {}),
                params=dict(run.get("params") or params),
                run_key=run_key,
                skipped=True,
                report=ledger.load_report(hit.run_id),
            )

    label = command or f"repro run {scenario.name}"
    log_baseline = get_log_ring().records()
    started = time.time()
    meta = run_metadata()
    try:
        with telemetry_session(label) as session:
            session.add_meta(scenario=scenario.name, run_key=run_key)
            metrics = scenario.run(dict(params), session)
        report = session.report
    except Exception as exc:  # noqa: BLE001 -- recorded, then re-raised
        entry = ledger.record(
            scenario=scenario.name,
            run_key=run_key,
            params=params,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            meta=meta,
            kit_manifest_sha=kit_sha,
            duration=time.time() - started,
            started_at=started,
            logs=_capture_logs_since(log_baseline),
        )
        raise ScenarioRunError(
            f"scenario {scenario.name!r} failed "
            f"({type(exc).__name__}: {exc}); recorded as run "
            f"{entry.run_id}", run_id=entry.run_id) from exc

    if not isinstance(metrics, dict):
        raise ScenarioError(
            f"scenario {scenario.name!r} returned "
            f"{type(metrics).__name__}, expected a metrics dict")
    # The scenario completed: the command's exit code is 0 by
    # construction (failures raised above).  Stamped so saved reports
    # keep the contract the telemetry-wrapping dispatcher established.
    report.meta.setdefault("exit_code", 0)
    entry = ledger.record(
        scenario=scenario.name,
        run_key=run_key,
        params=params,
        metrics=metrics,
        status="completed",
        meta=meta,
        kit_manifest_sha=kit_sha,
        duration=time.time() - started,
        started_at=started,
        report=report,
        logs=_capture_logs_since(log_baseline),
    )
    if telemetry_path is not None:
        report.save(telemetry_path)
    return RunOutcome(
        entry=entry,
        metrics=metrics,
        params=params,
        run_key=run_key,
        skipped=False,
        report=report,
    )
