"""The run ledger: an append-only, content-addressed store of runs.

Every scenario execution lands here as one **run directory** plus one
row in the index:

::

    <root>/
      index.json            append-only index: one row per run
      runs/<run_id>/
        run.json            provenance + params + metrics + status
        report.json         the schema-v4 telemetry RunReport (optional)
        logs.jsonl          structured log records captured during the run

The *run key* is the content address of the **request** -- sha256 of
scenario name + code version + canonical params + kit-manifest sha (see
:func:`repro.scenarios.runner.compute_run_key`) -- while the *run id*
(``<run_key[:12]>-NN``) names one **execution** of that request, so
reruns, ``--force`` runs and failed runs coexist without clobbering.
Skip-if-done is a ledger query: :meth:`RunLedger.find_completed` returns
the newest *completed* run of a key; failed runs never satisfy it.

Everything is written with :func:`repro.ioutil.atomic_write_text`
(mirroring ``library/store.py``), so a killed run never leaves a
half-readable index.  ``repro runs list|show|gc`` is the CLI front
end; ``repro diff run`` projects runs with :func:`run_view` onto the
bench-record shape and gates them with the direction-aware median/MAD
gate of :mod:`repro.quality.regress`, so "did this sha make skew
worse?" has the same semantics as the bench watchdog.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ScenarioError
from repro.ioutil import atomic_write_text

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "LedgerLock",
    "RUN_VIEW_SYNTHETIC",
    "RunLedger",
    "render_entries",
    "render_run",
    "run_view",
]

#: Bump when run.json / index.json layouts change incompatibly.  The
#: version participates in every run key, so old ledgers are simply not
#: skip-matched, never misread.
LEDGER_SCHEMA_VERSION = 1

_STATUSES = ("completed", "failed")


class LedgerLock:
    """Cross-process mutex guarding the ledger's index read-modify-write.

    ``atomic_write_text`` keeps each index *write* all-or-nothing, but
    appending is load -> mutate -> store: two processes recording at
    once (a parallel sweep fans out exactly this) would each read the
    same snapshot and the second write would silently drop the first
    row.  The lock is an ``O_CREAT | O_EXCL`` lockfile -- atomic on
    every platform and filesystem the repo targets -- with bounded
    retry and stale-lock breaking (a holder that died keeps its pid in
    the file but stops refreshing the mtime).
    """

    def __init__(self, path: Union[str, Path], timeout: float = 10.0,
                 stale_after: float = 30.0):
        self.path = Path(path)
        self.timeout = float(timeout)
        self.stale_after = float(stale_after)
        self._fd: Optional[int] = None

    def __enter__(self) -> "LedgerLock":
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self._fd = os.open(
                    str(self.path),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
                os.write(self._fd, str(os.getpid()).encode("ascii"))
                return self
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                    if age > self.stale_after:
                        # Holder died without releasing: break the lock
                        # (best effort -- a concurrent breaker losing
                        # the unlink race just retries).
                        self.path.unlink()
                        continue
                except OSError:
                    continue  # released between the open and the stat
                if time.monotonic() >= deadline:
                    raise ScenarioError(
                        f"timed out after {self.timeout:.1f} s waiting "
                        f"for ledger lock {self.path} (stale locks are "
                        f"broken after {self.stale_after:.0f} s)")
                time.sleep(0.005)

    def __exit__(self, *exc_info) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - already broken as stale
            pass


@dataclass(frozen=True)
class LedgerEntry:
    """One index row: the queryable summary of a recorded run."""

    run_id: str
    run_key: str
    scenario: str
    status: str
    git_sha: str = "unknown"
    host: str = "unknown"
    started_at: float = 0.0
    duration: float = 0.0

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "run_key": self.run_key,
            "scenario": self.scenario,
            "status": self.status,
            "git_sha": self.git_sha,
            "host": self.host,
            "started_at": self.started_at,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerEntry":
        return cls(
            run_id=str(data.get("run_id", "")),
            run_key=str(data.get("run_key", "")),
            scenario=str(data.get("scenario", "")),
            status=str(data.get("status", "")),
            git_sha=str(data.get("git_sha", "unknown")),
            host=str(data.get("host", "unknown")),
            started_at=float(data.get("started_at", 0.0)),
            duration=float(data.get("duration", 0.0)),
        )


class RunLedger:
    """Directory-rooted, content-addressed store of experiment runs."""

    INDEX_NAME = "index.json"
    LOCK_NAME = "index.lock"
    RUNS_DIR = "runs"
    CAMPAIGNS_DIR = "campaigns"
    CAMPAIGN_INDEX_NAME = "campaigns.json"

    def __init__(self, root: Union[str, Path], create: bool = True):
        self.root = Path(root)
        self.index_path = self.root / self.INDEX_NAME
        self.runs_root = self.root / self.RUNS_DIR
        self.campaigns_root = self.root / self.CAMPAIGNS_DIR
        self.campaign_index_path = self.root / self.CAMPAIGN_INDEX_NAME
        if create:
            self.runs_root.mkdir(parents=True, exist_ok=True)
        elif not self.index_path.exists():
            raise ScenarioError(f"no run ledger at {self.root}")

    def _lock(self) -> LedgerLock:
        """The mutex serializing every index read-modify-write."""
        return LedgerLock(self.root / self.LOCK_NAME)

    # ------------------------------------------------------------------
    # index I/O
    # ------------------------------------------------------------------
    def _load_index(self) -> List[LedgerEntry]:
        if not self.index_path.exists():
            return []
        try:
            data = json.loads(self.index_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(
                f"unreadable ledger index {self.index_path}: {exc}")
        rows = data.get("entries", []) if isinstance(data, dict) else []
        return [LedgerEntry.from_dict(row) for row in rows]

    def _save_index(self, entries: List[LedgerEntry]) -> None:
        payload = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "entries": [e.to_dict() for e in entries],
        }
        atomic_write_text(self.index_path, json.dumps(payload, indent=1))

    def __len__(self) -> int:
        return len(self._load_index())

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        scenario: str,
        run_key: str,
        params: Optional[dict] = None,
        metrics: Optional[dict] = None,
        status: str = "completed",
        error: Optional[str] = None,
        meta: Optional[dict] = None,
        kit_manifest_sha: str = "",
        duration: float = 0.0,
        started_at: Optional[float] = None,
        report=None,
        logs: Optional[List[dict]] = None,
    ) -> LedgerEntry:
        """Append one run; returns its index row.

        *meta* is the :func:`repro.quality.regress.run_metadata`
        provenance block (stamped fresh when omitted); *report* is a
        :class:`~repro.telemetry.RunReport` (or plain dict) saved next
        to ``run.json``; *logs* are structured log records captured
        during the run.
        """
        if status not in _STATUSES:
            raise ScenarioError(
                f"run status {status!r} not in {_STATUSES}")
        if meta is None:
            from repro.quality.regress import run_metadata

            meta = run_metadata()
        with self._lock():
            return self._record_locked(
                scenario=scenario, run_key=run_key, params=params,
                metrics=metrics, status=status, error=error, meta=meta,
                kit_manifest_sha=kit_manifest_sha, duration=duration,
                started_at=started_at, report=report, logs=logs,
            )

    def _record_locked(
        self,
        scenario: str,
        run_key: str,
        params: Optional[dict],
        metrics: Optional[dict],
        status: str,
        error: Optional[str],
        meta: dict,
        kit_manifest_sha: str,
        duration: float,
        started_at: Optional[float],
        report,
        logs: Optional[List[dict]],
    ) -> LedgerEntry:
        """The append body; the caller holds the index lock.

        Sequence numbering (``<run_key[:12]>-NN``) and the index
        read-append-write both happen under the lock, so concurrent
        recorders -- parallel sweep workers -- can never mint the same
        run id or drop each other's rows.
        """
        entries = self._load_index()
        seq = sum(1 for e in entries if e.run_key == run_key) + 1
        run_id = f"{run_key[:12]}-{seq:02d}"
        run_dir = self.runs_root / run_id
        record = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "run_id": run_id,
            "run_key": run_key,
            "scenario": scenario,
            "status": status,
            "error": error,
            "params": dict(params or {}),
            "kit_manifest_sha": kit_manifest_sha,
            "metrics": dict(metrics or {}),
            "duration": float(duration),
            "started_at": float(time.time() if started_at is None
                                else started_at),
            "meta": dict(meta),
        }
        atomic_write_text(run_dir / "run.json",
                          json.dumps(record, indent=1))
        if report is not None:
            report_data = (report.to_dict()
                           if hasattr(report, "to_dict") else dict(report))
            atomic_write_text(run_dir / "report.json",
                              json.dumps(report_data, indent=1))
        if logs:
            atomic_write_text(
                run_dir / "logs.jsonl",
                "".join(json.dumps(r, sort_keys=True, default=str) + "\n"
                        for r in logs),
            )
        entry = LedgerEntry(
            run_id=run_id,
            run_key=run_key,
            scenario=scenario,
            status=status,
            git_sha=str(meta.get("git_sha", "unknown")),
            host=str(meta.get("host", "unknown")),
            started_at=record["started_at"],
            duration=record["duration"],
        )
        self._save_index(entries + [entry])
        return entry

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def entries(
        self,
        scenario: Optional[str] = None,
        sha: Optional[str] = None,
        since: Optional[float] = None,
        status: Optional[str] = None,
    ) -> List[LedgerEntry]:
        """Index rows, newest last, filtered by scenario/sha/since/status."""
        rows = sorted(self._load_index(), key=lambda e: e.started_at)
        if scenario is not None:
            rows = [e for e in rows if e.scenario == scenario]
        if sha is not None:
            rows = [e for e in rows if e.git_sha.startswith(sha)]
        if since is not None:
            rows = [e for e in rows if e.started_at >= since]
        if status is not None:
            rows = [e for e in rows if e.status == status]
        return rows

    def find_completed(self, run_key: str) -> Optional[LedgerEntry]:
        """The newest *completed* run of *run_key* (skip-if-done query).

        Failed runs never match: a request whose last attempt blew up is
        re-runnable without ``--force``.
        """
        matches = [e for e in self.entries(status="completed")
                   if e.run_key == run_key]
        return matches[-1] if matches else None

    def resolve(self, selector: str) -> LedgerEntry:
        """Resolve a CLI selector to one run.

        Accepted forms, tried in order:

        * a ``run_id`` prefix (unique match required);
        * ``<scenario>`` -- the latest completed run of that scenario;
        * ``<scenario>@<sha-prefix>`` -- the latest completed run of the
          scenario on a matching git sha (cross-sha diffing).
        """
        rows = self.entries()
        if not rows:
            raise ScenarioError(f"run ledger {self.root} is empty")
        matches = [e for e in rows if e.run_id.startswith(selector)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            ids = ", ".join(e.run_id for e in matches[-5:])
            raise ScenarioError(
                f"run selector {selector!r} is ambiguous ({ids}, ...)")
        scenario, _, sha = selector.partition("@")
        candidates = self.entries(scenario=scenario, sha=sha or None,
                                  status="completed")
        if candidates:
            return candidates[-1]
        raise ScenarioError(
            f"no run matches {selector!r} (try `repro runs list`)")

    def run_dir(self, run_id: str) -> Path:
        return self.runs_root / run_id

    def load_run(self, run_id: str) -> dict:
        """The full ``run.json`` record of one run."""
        path = self.run_dir(run_id) / "run.json"
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"unreadable run record {path}: {exc}")

    def load_report(self, run_id: str):
        """The run's telemetry RunReport, or None when not captured."""
        path = self.run_dir(run_id) / "report.json"
        if not path.exists():
            return None
        from repro.telemetry import load_report

        return load_report(path)

    def load_logs(self, run_id: str) -> List[dict]:
        """Structured log records captured during the run (may be empty)."""
        path = self.run_dir(run_id) / "logs.jsonl"
        if not path.exists():
            return []
        records = []
        for line in path.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
        return records

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(
        self,
        max_age_days: Optional[float] = None,
        keep: Optional[int] = None,
        now: Optional[float] = None,
    ) -> List[LedgerEntry]:
        """Prune old runs; returns the removed entries.

        *max_age_days* drops runs started earlier than the cutoff;
        *keep* bounds the total run count, dropping oldest-first.  Run
        directories are deleted with the index rows, so the ledger's
        disk footprint stays bounded.
        """
        if max_age_days is not None and max_age_days < 0:
            raise ScenarioError("max_age_days must be >= 0")
        if keep is not None and keep < 0:
            raise ScenarioError("keep must be >= 0")
        with self._lock():
            rows = self.entries()
            removed: List[LedgerEntry] = []
            if max_age_days is not None:
                cutoff = (time.time() if now is None else now) \
                    - max_age_days * 86400.0
                removed.extend(e for e in rows if e.started_at < cutoff)
                rows = [e for e in rows if e.started_at >= cutoff]
            if keep is not None and len(rows) > keep:
                overflow = len(rows) - keep
                removed.extend(rows[:overflow])
                rows = rows[overflow:]
            for entry in removed:
                shutil.rmtree(self.run_dir(entry.run_id),
                              ignore_errors=True)
            if removed:
                self._save_index(rows)
        return removed

    # ------------------------------------------------------------------
    # campaign records (sweep-level artifacts; see scenarios/sweep.py)
    # ------------------------------------------------------------------
    def _load_campaign_index(self) -> List[dict]:
        if not self.campaign_index_path.exists():
            return []
        try:
            data = json.loads(self.campaign_index_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(
                f"unreadable campaign index {self.campaign_index_path}: "
                f"{exc}")
        rows = data.get("campaigns", []) if isinstance(data, dict) else []
        return [dict(row) for row in rows]

    def _save_campaign_index(self, rows: List[dict]) -> None:
        payload = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "campaigns": rows,
        }
        atomic_write_text(self.campaign_index_path,
                          json.dumps(payload, indent=1))

    def campaign_dir(self, campaign_id: str) -> Path:
        return self.campaigns_root / campaign_id

    def record_campaign(self, report) -> dict:
        """Persist one sweep campaign; returns its index row.

        *report* is a :class:`repro.scenarios.campaign.CampaignReport`
        (or its dict form).  The campaign id (``<sweep_id[:12]>-NN``)
        is minted under the index lock -- reruns of the same sweep spec
        coexist as separate campaign records, which is exactly what
        ``repro diff sweep`` compares.  When *report* is the dataclass,
        its ``campaign_id`` is filled in.
        """
        data = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        sweep_id = str(data.get("sweep_id", ""))
        if not sweep_id:
            raise ScenarioError("campaign record has no sweep_id")
        points = list(data.get("points") or [])
        with self._lock():
            rows = self._load_campaign_index()
            seq = sum(1 for r in rows if r.get("sweep_id") == sweep_id) + 1
            campaign_id = f"{sweep_id[:12]}-{seq:02d}"
            data["campaign_id"] = campaign_id
            atomic_write_text(
                self.campaign_dir(campaign_id) / "campaign.json",
                json.dumps(data, indent=1, default=str))
            row = {
                "campaign_id": campaign_id,
                "sweep_id": sweep_id,
                "scenario": str(data.get("scenario", "")),
                "points": len(points),
                "failed": sum(1 for p in points
                              if p.get("status") == "failed"),
                "skipped": sum(1 for p in points if p.get("skipped")),
                "workers": int(data.get("workers", 1)),
                "git_sha": str((data.get("meta") or {}).get(
                    "git_sha", "unknown")),
                "started_at": float(data.get("started_at", 0.0)),
                "duration": float(data.get("duration", 0.0)),
            }
            self._save_campaign_index(rows + [row])
        if hasattr(report, "campaign_id"):
            report.campaign_id = campaign_id
        return row

    def campaign_entries(self, scenario: Optional[str] = None) -> List[dict]:
        """Campaign index rows, oldest first, optionally by scenario."""
        rows = sorted(self._load_campaign_index(),
                      key=lambda r: r.get("started_at", 0.0))
        if scenario is not None:
            rows = [r for r in rows if r.get("scenario") == scenario]
        return rows

    def load_campaign(self, campaign_id: str) -> dict:
        """The full ``campaign.json`` record of one campaign."""
        path = self.campaign_dir(campaign_id) / "campaign.json"
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(
                f"unreadable campaign record {path}: {exc}")

    def resolve_campaign(self, selector: str) -> dict:
        """Resolve a CLI selector to one campaign index row.

        Accepted forms, tried in order: a ``campaign_id`` prefix
        (unique match required); ``<scenario>`` -- that scenario's
        latest campaign; a ``sweep_id`` prefix -- the latest campaign
        of that sweep spec.
        """
        rows = self.campaign_entries()
        if not rows:
            raise ScenarioError(
                f"no campaigns recorded in ledger {self.root}")
        matches = [r for r in rows
                   if str(r.get("campaign_id", "")).startswith(selector)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            ids = ", ".join(str(r["campaign_id"]) for r in matches[-5:])
            raise ScenarioError(
                f"campaign selector {selector!r} is ambiguous "
                f"({ids}, ...)")
        by_scenario = [r for r in rows if r.get("scenario") == selector]
        if by_scenario:
            return by_scenario[-1]
        by_sweep = [r for r in rows
                    if str(r.get("sweep_id", "")).startswith(selector)]
        if by_sweep:
            return by_sweep[-1]
        raise ScenarioError(
            f"no campaign matches {selector!r} "
            "(try `repro sweep status`)")


# ----------------------------------------------------------------------
# cross-run diffing
# ----------------------------------------------------------------------
#: The metric :func:`run_view` adds to every run: sharing it alone is
#: no evidence that two runs were comparable.
RUN_VIEW_SYNTHETIC = ("duration",)


def run_view(run: dict) -> dict:
    """Project a run record onto the bench-record shape regress diffs.

    The run's metrics plus its wall ``duration``; metric direction is
    then inferred from the name as for any bench record.
    """
    view = dict(run.get("metrics") or {})
    view["duration"] = float(run.get("duration", 0.0))
    view["meta"] = dict(run.get("meta") or {})
    return view


# ----------------------------------------------------------------------
# rendering (the `repro runs` subcommands)
# ----------------------------------------------------------------------
def render_entries(entries: List[LedgerEntry]) -> str:
    """An aligned table of index rows (newest last)."""
    if not entries:
        return "no runs recorded\n"
    lines = [f"  {'run id':<16} {'scenario':<20} {'status':<10} "
             f"{'sha':<12} {'when':<19} {'wall':>8}"]
    for e in entries:
        when = time.strftime("%Y-%m-%d %H:%M:%S",
                             time.localtime(e.started_at))
        lines.append(
            f"  {e.run_id:<16} {e.scenario:<20} {e.status:<10} "
            f"{e.git_sha[:12]:<12} {when:<19} {e.duration:7.2f}s"
        )
    return "\n".join(lines) + "\n"


def render_run(run: dict) -> str:
    """Human-readable provenance + metrics of one run record."""
    meta = run.get("meta") or {}
    lines = [
        f"run {run.get('run_id', '?')}  [{run.get('status', '?')}]",
        f"  scenario   {run.get('scenario', '?')}",
        f"  run key    {run.get('run_key', '?')}",
        f"  git sha    {meta.get('git_sha', '?')}",
        f"  host       {meta.get('host', '?')}   "
        f"python {meta.get('python', '?')}",
        f"  when       {meta.get('timestamp', '?')}   "
        f"wall {float(run.get('duration', 0.0)):.2f} s",
    ]
    if run.get("kit_manifest_sha"):
        lines.append(f"  kit sha    {run['kit_manifest_sha'][:16]}")
    if run.get("error"):
        lines.append(f"  error      {run['error']}")
    params = run.get("params") or {}
    if params:
        lines.append("  params")
        width = max(len(k) for k in params)
        for name in sorted(params):
            lines.append(f"    {name:<{width}} = {params[name]!r}")
    metrics = run.get("metrics") or {}
    if metrics:
        from repro.quality.regress import flatten_metrics

        flat = flatten_metrics({k: v for k, v in metrics.items()
                                if k != "meta"})
        lines.append("  metrics")
        if flat:
            width = max(len(k) for k in flat)
            for name in sorted(flat):
                lines.append(f"    {name:<{width}} = {flat[name]:g}")
        for name in sorted(metrics):
            if isinstance(metrics[name], str):
                lines.append(f"    {name} = {metrics[name]!r}")
    return "\n".join(lines) + "\n"
