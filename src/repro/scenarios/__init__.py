"""Scenario registry + content-addressed run ledger + sweep campaigns.

Every experiment in this repo is a declarative
:class:`~repro.scenarios.spec.Scenario` -- a name, typed default
parameters, and a ``run(params, session)`` function -- discovered from
:mod:`repro.scenarios.catalog` and executed through one runner that
records provenance, telemetry and metrics in an append-only
:class:`~repro.scenarios.ledger.RunLedger`.  Identical requests (same
scenario + code version + canonical params + design-kit sha) are
**skipped**: the ledger replays the recorded metrics with zero field
solves.  ``repro runs list|show|gc`` inspects the ledger; ``repro diff
run`` gates runs, and ``repro diff sweep`` campaigns, with the
direction-aware regression gate of :mod:`repro.quality.regress`.

Parameter sweeps build on the same machinery
(:mod:`repro.scenarios.sweep`): a :class:`SweepSpec` declares grid /
explicit / Monte-Carlo axes over one scenario, :class:`SweepRunner`
executes every point as an ordinary ledger run across a process pool,
and the finished campaign persists as a
:class:`~repro.scenarios.campaign.CampaignReport` -- with live
``sweep_*`` gauges while it runs (``repro sweep run|status|report``).

Quick use::

    from repro.scenarios import run_scenario
    outcome = run_scenario("htree-skew", {"TOTAL_LENGTH": "4e-3"})
    outcome.metrics["skew_rlc_ps"]     # recorded in the ledger
    run_scenario("htree-skew", {"TOTAL_LENGTH": "0.004"}).skipped  # True

    from repro.scenarios import SweepSpec, run_sweep
    report = run_sweep(SweepSpec("htree-skew",
                                 grid={"TOTAL_LENGTH": [3e-3, 4e-3],
                                       "ASYMMETRY": [1.2, 1.5]}),
                       workers=2)
    report.completed, report.solver_call_count
"""

from repro.scenarios.campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    CAMPAIGN_VIEW_SYNTHETIC,
    CampaignReport,
    campaign_view,
    render_campaign,
    render_campaign_entries,
)
from repro.scenarios.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerEntry,
    LedgerLock,
    RUN_VIEW_SYNTHETIC,
    RunLedger,
    render_entries,
    render_run,
    run_view,
)
from repro.scenarios.registry import (
    all_scenarios,
    discover,
    get_scenario,
    register,
    scenario_names,
    unregister,
)
from repro.scenarios.runner import (
    RunOutcome,
    compute_run_key,
    default_ledger_root,
    kit_manifest_sha,
    run_scenario,
)
from repro.scenarios.spec import Scenario, canonical_params, coerce_param
from repro.scenarios.sweep import (
    MonteCarloAxis,
    SweepProgress,
    SweepRunner,
    SweepSpec,
    run_sweep,
)

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "CAMPAIGN_VIEW_SYNTHETIC",
    "CampaignReport",
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "LedgerLock",
    "MonteCarloAxis",
    "RUN_VIEW_SYNTHETIC",
    "RunLedger",
    "RunOutcome",
    "Scenario",
    "SweepProgress",
    "SweepRunner",
    "SweepSpec",
    "all_scenarios",
    "campaign_view",
    "canonical_params",
    "coerce_param",
    "compute_run_key",
    "default_ledger_root",
    "discover",
    "get_scenario",
    "kit_manifest_sha",
    "register",
    "render_campaign",
    "render_campaign_entries",
    "render_entries",
    "render_run",
    "run_scenario",
    "run_sweep",
    "run_view",
    "scenario_names",
    "unregister",
]
