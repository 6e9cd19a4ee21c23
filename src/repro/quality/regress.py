"""Bench regression watchdog: compare canonical bench records over time.

The repo commits its benchmark numbers (``BENCH_kernel.json``,
``BENCH_library.json``) and telemetry artifacts
(``BENCH_kernel_telemetry.json``), but until now they were raw numbers
with no provenance and nothing comparing them run over run.  This
module supplies both halves:

* :func:`run_metadata` stamps every bench record with git sha,
  ISO timestamp, host and schema version (the ``meta`` block the
  benchmark writers attach), so records from different machines and
  commits are comparable artifacts rather than loose floats.
* :func:`diff_benches` loads one *candidate* record against one or more
  *baselines* and applies median/MAD-style thresholds per metric:
  a metric regresses when it moves against its direction-of-goodness by
  more than ``max(threshold * |median|, mad_k * MAD)`` -- the MAD term
  widens the gate automatically when the baseline history is noisy.
  Metric direction is inferred from the name: wall-time-like metrics
  (``*seconds``, ``*_ms``, ``duration``, ``ratio_vs_naive``) are
  lower-is-better, ``*speedup`` / ``*hit_rate`` / ``*dedup_factor`` are
  higher-is-better, everything else is informational (tracked, never
  failing).

``repro diff bench old.json [older.json ...] new.json`` is the CLI
front end; it exits nonzero on any regression, which is what the CI
``quality-gate`` job keys on.  ``repro diff run`` and ``repro diff
sweep`` project ledger runs and sweep campaigns onto the same record
shape and go through the same gate.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import QualityError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "git_sha",
    "run_metadata",
    "record_bench",
    "flatten_metrics",
    "metric_direction",
    "MetricDelta",
    "BenchDiff",
    "diff_benches",
    "load_bench",
]

#: Bump when the bench-record ``meta`` layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Name fragments marking a metric as lower-is-better (latency-like).
_LOWER_MARKERS = ("seconds", "_ms", "duration", "ratio_vs_naive")
#: Name suffixes marking a metric as higher-is-better (throughput-like).
#: Higher markers win over lower on overlap, so ``requests_per_second``
#: gates as throughput even though latency metrics end in ``seconds``.
_HIGHER_MARKERS = ("speedup", "hit_rate", "dedup_factor", "per_second")


def git_sha() -> str:
    """The repo's HEAD sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_metadata() -> Dict[str, object]:
    """The provenance block every bench writer stamps as ``meta``."""
    now = time.time()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z",
                                   time.localtime(now)),
        "unix_time": round(now, 3),
        "host": platform.node() or "unknown",
        "python": platform.python_version(),
    }


def record_bench(path: Union[str, Path], update: dict) -> dict:
    """Read-merge-write one ``BENCH_*.json`` record with provenance.

    Every write refreshes the record's ``meta`` block (schema version,
    git sha, ISO timestamp, host, python version) via
    :func:`run_metadata`, so committed benchmark numbers are comparable
    artifacts for ``repro diff bench`` rather than loose floats.  Shared
    by the pytest benchmarks and the ``repro bench serve`` load driver.
    """
    path = Path(path)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data.update(update)
    data["meta"] = run_metadata()
    path.write_text(json.dumps(data, indent=1) + "\n")
    return data


# ----------------------------------------------------------------------
# record flattening
# ----------------------------------------------------------------------
def flatten_metrics(data: dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a bench record (or telemetry run report) to scalar metrics.

    Bench records flatten nested sections to dotted names
    (``assembly.speedup``); the ``meta`` provenance block is skipped.
    Telemetry run reports (recognized by their ``command`` +
    ``metrics`` keys) contribute their wall ``duration``, counter
    totals (``counter.loop_solve``) and per-histogram mean/p95 scalars
    (``histogram.serve_latency_seconds_p95``) -- the latency
    distributions gate through ``repro diff bench`` exactly like the
    counters, with direction inferred from the ``seconds`` leaf.
    """
    if not prefix and "command" in data and "metrics" in data:
        out: Dict[str, float] = {"duration": float(data.get("duration", 0.0))}
        counters = (data.get("metrics") or {}).get("counters", {})
        for name, value in counters.items():
            out[f"counter.{name}"] = float(value)
        worker = (data.get("worker_metrics") or {}).get("counters", {})
        for name, value in worker.items():
            key = f"counter.{name}"
            out[key] = out.get(key, 0.0) + float(value)
        from repro.telemetry.registry import HistogramSnapshot

        for name, hist_data in (
            (data.get("metrics") or {}).get("histograms", {}) or {}
        ).items():
            try:
                hist = HistogramSnapshot.from_dict(hist_data)
            except (KeyError, TypeError, ValueError):
                continue
            if not hist.count:
                continue
            out[f"histogram.{name}_mean"] = hist.mean
            out[f"histogram.{name}_p95"] = hist.quantile(0.95)
        return out

    out = {}
    for key, value in data.items():
        if not prefix and key == "meta":
            continue
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[name] = float(value)
        elif isinstance(value, dict):
            out.update(flatten_metrics(value, prefix=name))
    return out


def metric_direction(name: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` is better, or None (informational)."""
    leaf = name.rsplit(".", 1)[-1]
    if any(leaf.endswith(m) for m in _HIGHER_MARKERS):
        return "higher"
    if any(m in leaf for m in _LOWER_MARKERS):
        return "lower"
    return None


# ----------------------------------------------------------------------
# the diff itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricDelta:
    """One metric compared against its baseline history."""

    name: str
    direction: Optional[str]
    baseline_median: float
    baseline_mad: float
    candidate: float
    tolerance: float

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline_median

    @property
    def relative(self) -> float:
        """Signed relative change against the baseline median."""
        if self.baseline_median == 0.0:
            return 0.0 if self.delta == 0.0 else float("inf")
        return self.delta / abs(self.baseline_median)

    @property
    def regressed(self) -> bool:
        if self.direction == "lower":
            return self.delta > self.tolerance
        if self.direction == "higher":
            return -self.delta > self.tolerance
        return False

    @property
    def improved(self) -> bool:
        if self.direction == "lower":
            return -self.delta > self.tolerance
        if self.direction == "higher":
            return self.delta > self.tolerance
        return False


@dataclass
class BenchDiff:
    """Outcome of one candidate-vs-baselines comparison."""

    baseline_count: int
    threshold: float
    mad_k: float
    deltas: List[MetricDelta] = field(default_factory=list)
    candidate_meta: Dict[str, object] = field(default_factory=dict)
    baseline_meta: List[dict] = field(default_factory=list)
    #: Metric names the *caller* injected into both sides (e.g. the run
    #: wall ``duration`` that :func:`repro.scenarios.ledger.run_view`
    #: adds to every view).  They are always shared, so they must not
    #: count as evidence that the two records were actually comparable.
    synthetic: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def nothing_compared(self) -> bool:
        """True when baseline and candidate share no real metrics.

        A diff with zero (non-synthetic) common metrics used to render a
        vacuous PASS; callers should treat this as a distinct warning
        status (the CLI exits 3) because nothing was actually gated.
        """
        return not [d for d in self.deltas if d.name not in self.synthetic]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"diff: candidate vs {self.baseline_count} baseline(s), "
            f"threshold {self.threshold:.0%} + {self.mad_k:g}*MAD"
        ]
        meta = self.candidate_meta
        if meta:
            lines.append(
                f"  candidate: sha {str(meta.get('git_sha', '?'))[:12]}  "
                f"{meta.get('timestamp', '?')}  host {meta.get('host', '?')}"
            )
        width = max((len(d.name) for d in self.deltas), default=4)
        for delta in sorted(self.deltas, key=lambda d: d.name):
            mark = ("REGRESSED" if delta.regressed
                    else "improved" if delta.improved
                    else "")
            arrow = {"lower": "v", "higher": "^", None: "-"}[delta.direction]
            rel = delta.relative
            rel_text = f"{rel:+8.1%}" if rel != float("inf") else "    +inf"
            lines.append(
                f"  {delta.name:<{width}} {arrow} "
                f"{delta.baseline_median:12.4g} -> {delta.candidate:12.4g} "
                f"({rel_text})  {mark}".rstrip()
            )
        if self.nothing_compared:
            lines.append(
                "  WARNING: baseline and candidate share no common "
                "metrics -- nothing compared"
            )
            lines.append("  verdict: NOTHING COMPARED")
            return "\n".join(lines) + "\n"
        verdict = "PASS" if self.passed else (
            f"FAIL ({len(self.regressions)} regression(s))"
        )
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines) + "\n"


def load_bench(path: Union[str, Path]) -> dict:
    """Load one bench/telemetry JSON record."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise QualityError(f"unreadable bench record {path}: {exc}")
    if not isinstance(data, dict):
        raise QualityError(f"bench record {path} is not a JSON object")
    return data


def diff_benches(
    baselines: Sequence[dict],
    candidate: dict,
    threshold: float = 0.25,
    mad_k: float = 3.0,
    synthetic: Sequence[str] = (),
) -> BenchDiff:
    """Compare *candidate* against the *baselines* history.

    Per metric present in the candidate and at least one baseline, the
    gate is ``max(threshold * |median|, mad_k * MAD)`` around the
    baseline median; moving against the metric's direction-of-goodness
    by more than the gate is a regression.  The default 25 % threshold
    deliberately under-cuts the acceptance criterion's "flag a >= 30 %
    slowdown" so boundary cases are flagged without float hair-splitting.
    *synthetic* names metrics the caller added to every record (see
    :attr:`BenchDiff.synthetic`).
    """
    if not baselines:
        raise QualityError("diff needs at least one baseline record")
    if threshold <= 0.0 or mad_k < 0.0:
        raise QualityError("threshold must be > 0 and mad_k >= 0")
    flat_baselines = [flatten_metrics(b) for b in baselines]
    flat_candidate = flatten_metrics(candidate)
    diff = BenchDiff(
        baseline_count=len(baselines),
        threshold=float(threshold),
        mad_k=float(mad_k),
        candidate_meta=dict(candidate.get("meta", {}) or {}),
        baseline_meta=[dict(b.get("meta", {}) or {}) for b in baselines],
        synthetic=list(synthetic),
    )
    for name in sorted(flat_candidate):
        history = [fb[name] for fb in flat_baselines if name in fb]
        if not history:
            continue
        median = statistics.median(history)
        mad = statistics.median(abs(v - median) for v in history)
        tolerance = max(threshold * abs(median), mad_k * mad, 1e-12)
        diff.deltas.append(MetricDelta(
            name=name,
            direction=metric_direction(name),
            baseline_median=float(median),
            baseline_mad=float(mad),
            candidate=flat_candidate[name],
            tolerance=float(tolerance),
        ))
    return diff
