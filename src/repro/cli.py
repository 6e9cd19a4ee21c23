"""Command-line front end: run the paper's experiments from a shell.

``repro <experiment>`` (or ``python -m repro <experiment>``) runs one of
the reproduction experiments and prints its headline numbers;
``repro characterize`` builds and saves extraction tables for a CPW
family.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional


from repro.constants import GHz, to_GHz, to_nH, to_pF, to_ps, um

#: ``--PARAM=value`` scenario override (pycomex style): UPPERCASE name,
#: pre-extracted in :func:`main` because argparse cannot accept unknown
#: option names per-scenario.
_PARAM_OVERRIDE = re.compile(r"^--([A-Z][A-Z0-9_]*)=(.*)$", re.DOTALL)


def _print_simulation_health(sections) -> None:
    """Print the per-netlist simulation-health one-liners."""
    for label in sorted(sections):
        section = sections[label]
        diag = section.get("diagnostics")
        health = section.get("netlist_health")
        parts = []
        if health is not None:
            parts.append("netlist clean" if health["clean"] else
                         f"netlist {health['num_errors']} error(s)")
        if diag is not None:
            parts.append(f"LTE p95 {diag['lte_p95']:.1e}")
            parts.append(f"energy residual {diag['energy_residual']:.1e}")
            if not diag.get("dt_adequate", True):
                parts.append("dt UNDERSAMPLED")
        if parts:
            print(f"  [{label}] " + ", ".join(parts))


def _run_scenario_alias(args: argparse.Namespace, name: str,
                        overrides: dict) -> int:
    """Legacy experiment commands routed through the scenario runner.

    Aliases always execute (``force=True``) and always record a
    provenance-stamped ledger run; skip-if-done is a ``repro run``
    behavior.  Output is the scenario's own ``render`` plus the
    simulation-health one-liners, so the console contract is unchanged.
    """
    from repro.scenarios import get_scenario, run_scenario

    telemetry_path = getattr(args, "telemetry", None)
    outcome = run_scenario(
        name, overrides,
        force=True,
        command=f"repro {args.command}",
        telemetry_path=telemetry_path,
    )
    scenario = get_scenario(name)
    if scenario.render is not None:
        print(scenario.render(outcome.metrics))
    if outcome.report is not None and outcome.report.simulation:
        _print_simulation_health(outcome.report.simulation)
    if telemetry_path:
        print(f"telemetry report -> {telemetry_path}")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    return _run_scenario_alias(
        args, "fig1-delay",
        {"DRIVE_RESISTANCE": args.drive_resistance},
    )


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig5

    result = run_fig5(n_traces=args.traces)
    print(f"Fig. 5 loop inductance matrix [nH] at {to_GHz(result.frequency):.1f} GHz")
    header = "       " + "".join(f"{name:>9}" for name in result.trace_names)
    print(header)
    for name, row in zip(result.trace_names, result.loop_matrix):
        cells = "".join(f"{to_nH(v):9.4f}" for v in row)
        print(f"  {name:>5}{cells}")
    f1, f2 = result.foundation1, result.foundation2
    print(f"  Foundation 1: {to_nH(f1.full_value):.4f} vs {to_nH(f1.reduced_value):.4f} nH"
          f"  (error {f1.relative_error * 100.0:.2f} %)")
    print(f"  Foundation 2: {to_nH(f2.full_value):.4f} vs {to_nH(f2.reduced_value):.4f} nH"
          f"  (error {f2.relative_error * 100.0:.2f} %)")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import run_table1

    result = run_table1()
    print("Table I: linear cascading comparison "
          f"(at {to_GHz(result.frequency):.1f} GHz; paper errors: 3.57 %, 1.55 %)")
    print(f"  {'structure':>10} {'full L [nH]':>12} {'S/P comb [nH]':>14} {'error':>8}")
    for row in result.rows:
        cmp_ = row.comparison
        print(f"  {row.name:>10} {to_nH(cmp_.full_inductance):12.4f} "
              f"{to_nH(cmp_.combined_inductance):14.4f} {row.error_percent:7.2f}%")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments import run_length_scaling

    result = run_length_scaling()
    print("Super-linear inductance length scaling (Sec. V)")
    print(f"  {'length [um]':>12} {'self L [nH]':>12} {'mutual L [nH]':>14}")
    for length, ls, lm in zip(
        result.lengths, result.self_inductance, result.mutual_inductance
    ):
        print(f"  {length * 1e6:12.0f} {to_nH(ls):12.4f} {to_nH(lm):14.4f}")
    print(f"  L(2000um)/L(1000um) = {result.doubling_ratio(1e-3):.3f} "
          "(paper: about 2.2)")
    return 0


def _cmd_skew(args: argparse.Namespace) -> int:
    return _run_scenario_alias(
        args, "htree-skew",
        {"LIBRARY": getattr(args, "library", None) or ""},
    )


def _cmd_variation(args: argparse.Namespace) -> int:
    from repro.experiments import run_process_variation

    result = run_process_variation()
    print("Process variation: statistical RC vs nominal L (Sec. V)")
    print(f"  R spread (sigma/mean) = {result.r_spread * 100.0:5.2f} %")
    print(f"  C spread (sigma/mean) = {result.c_spread * 100.0:5.2f} %")
    print(f"  L spread (sigma/mean) = {result.l_spread * 100.0:5.2f} %")
    print(f"  L is {result.l_insensitivity_factor:.1f}x steadier than R/C "
          "-- nominal-L + statistical-RC is justified")
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    return _run_scenario_alias(args, "table-accuracy", {})


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import ScenarioError, ScenarioRunError
    from repro.scenarios import (RunLedger, all_scenarios,
                                 default_ledger_root, get_scenario,
                                 run_scenario)

    if args.list_scenarios or args.scenario is None:
        group = None
        for scenario in all_scenarios():
            if scenario.figure != group:
                group = scenario.figure
                print(f"[{group}]")
            print(f"  {scenario.name:<20} {scenario.description}")
            knobs = ", ".join(f"{k}={v!r}" for k, v in
                              sorted(scenario.defaults.items()))
            if knobs:
                print(f"  {'':<20} params: {knobs}")
        if args.scenario is None and not args.list_scenarios:
            print("\nusage: repro run <scenario> [--PARAM=value ...]",
                  file=sys.stderr)
            return 2
        return 0

    ledger_root = args.ledger or default_ledger_root()
    ledger = RunLedger(ledger_root)
    try:
        outcome = run_scenario(
            args.scenario,
            getattr(args, "param_overrides", None),
            ledger=ledger,
            force=args.force,
            telemetry_path=args.telemetry,
        )
    except ScenarioRunError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        import json as _json

        print(_json.dumps({
            "run_id": outcome.run_id,
            "run_key": outcome.run_key,
            "skipped": outcome.skipped,
            "params": outcome.params,
            "metrics": outcome.metrics,
        }, indent=1, default=str))
        return 0
    if outcome.skipped:
        print(f"run {args.scenario}: ledger hit {outcome.run_id} "
              "(identical request already completed; --force to rerun)")
    scenario = get_scenario(args.scenario)
    if scenario.render is not None:
        print(scenario.render(outcome.metrics))
    if outcome.report is not None and outcome.report.simulation:
        _print_simulation_health(outcome.report.simulation)
    if not outcome.skipped:
        print(f"run recorded: {outcome.run_id} -> {ledger.root}")
    if args.telemetry and not outcome.skipped:
        print(f"telemetry report -> {args.telemetry}")
    return 0


def _scenario_guard(func):
    """Turn ScenarioError from a `runs` subcommand into a usage error."""
    def wrapper(args: argparse.Namespace) -> int:
        from repro.errors import ScenarioError

        try:
            return func(args)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    wrapper.__name__ = getattr(func, "__name__", "runs_command")
    return wrapper


def _runs_ledger(args: argparse.Namespace):
    from repro.scenarios import RunLedger, default_ledger_root

    return RunLedger(args.ledger or default_ledger_root(), create=False)


def _cmd_runs_list(args: argparse.Namespace) -> int:
    import time as _time

    from repro.scenarios import render_entries

    ledger = _runs_ledger(args)
    since = (_time.time() - args.since * 86400.0
             if args.since is not None else None)
    entries = ledger.entries(scenario=args.scenario, sha=args.sha,
                             since=since, status=args.status)
    if args.json:
        import json as _json

        print(_json.dumps([e.to_dict() for e in entries], indent=1,
                          default=str))
        return 0
    print(f"ledger {ledger.root}: {len(entries)} run(s)")
    print(render_entries(entries), end="")
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.scenarios import render_run

    ledger = _runs_ledger(args)
    entry = ledger.resolve(args.run)
    run = ledger.load_run(entry.run_id)
    if args.json:
        import json as _json

        print(_json.dumps(run, indent=1, default=str))
        return 0
    print(render_run(run), end="")
    if args.report:
        report = ledger.load_report(entry.run_id)
        if report is None:
            print("(no telemetry report captured)")
        else:
            from repro.telemetry import render_report

            print(render_report(report, max_spans=args.max_spans), end="")
    if args.logs:
        import json as _json

        for record in ledger.load_logs(entry.run_id):
            print(_json.dumps(record, sort_keys=True, default=str))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.scenarios import diff_runs

    ledger = _runs_ledger(args)
    baseline = ledger.resolve(args.baseline)
    candidate = ledger.resolve(args.candidate)
    diff = diff_runs(
        ledger.load_run(baseline.run_id),
        ledger.load_run(candidate.run_id),
        threshold=args.threshold, mad_k=args.mad_k,
    )
    print(f"baseline  {baseline.run_id} ({baseline.scenario} "
          f"@ {baseline.git_sha[:12]})")
    print(f"candidate {candidate.run_id} ({candidate.scenario} "
          f"@ {candidate.git_sha[:12]})")
    print(diff.render(), end="")
    if diff.nothing_compared:
        # A "pass" with zero common metrics is a silent lie -- make it
        # a distinct, scriptable outcome.
        return 3
    return 0 if diff.passed else 1


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    ledger = _runs_ledger(args)
    if args.max_age_days is None and args.keep is None:
        print("runs gc needs --max-age-days and/or --keep", file=sys.stderr)
        return 2
    removed = ledger.gc(max_age_days=args.max_age_days, keep=args.keep)
    print(f"ledger {ledger.root}: pruned {len(removed)} run(s), "
          f"{len(ledger)} kept")
    for entry in removed:
        print(f"  removed {entry.run_id} ({entry.scenario}, {entry.status})")
    return 0


def _parse_sweep_spec(args: argparse.Namespace):
    """Build a SweepSpec from ``repro sweep run`` arguments."""
    from repro.errors import ScenarioError
    from repro.scenarios import SweepSpec
    from repro.scenarios.sweep import MonteCarloAxis

    grid = {}
    for token in args.grid or []:
        name, sep, values = token.partition("=")
        levels = [v for v in values.split(",") if v.strip() != ""]
        if not sep or not name or not levels:
            raise ScenarioError(
                f"bad --grid {token!r} -- expected PARAM=v1,v2,...")
        grid[name] = levels
    explicit = []
    for token in args.point or []:
        point = {}
        for assign in token.split(","):
            name, sep, value = assign.partition("=")
            if not sep or not name or value.strip() == "":
                raise ScenarioError(
                    f"bad --point {token!r} -- expected "
                    "PARAM=v[,PARAM=v...]")
            point[name] = value
        explicit.append(point)
    mc = {}
    for token in args.mc or []:
        name, sep, dist = token.partition("=")
        if not sep or not name:
            raise ScenarioError(
                f"bad --mc {token!r} -- expected PARAM=normal(mu,sigma)")
        mc[name] = MonteCarloAxis.parse(dist)
    return SweepSpec(
        args.scenario,
        grid=grid,
        explicit=explicit,
        mc=mc,
        samples=args.samples,
        seed=args.seed,
        base=dict(getattr(args, "param_overrides", None) or {}),
    )


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import ScenarioError
    from repro.scenarios import RunLedger, SweepRunner, default_ledger_root

    def show_progress(p) -> None:
        # Progress goes to stderr so `--json | tee` stays clean.
        eta = (f"{p.eta_seconds:5.0f}s" if p.eta_seconds is not None
               else "    ?")
        print(f"  sweep {p.done}/{p.total}  failed {p.failed}  "
              f"replayed {p.skipped}  {p.points_per_second:6.2f} pt/s  "
              f"eta {eta}  solver calls {p.solver_calls}  "
              f"memo hit {p.memo_hit_rate:.0%}", file=sys.stderr)

    try:
        spec = _parse_sweep_spec(args)
        ledger = RunLedger(args.ledger or default_ledger_root())
        runner = SweepRunner(
            spec,
            ledger=ledger,
            workers=args.workers,
            force=args.force,
            progress=None if args.quiet else show_progress,
        )
        report = runner.run()
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    code = 1 if report.failed_count else 0
    if args.telemetry:
        from repro.telemetry.registry import MetricsSnapshot
        from repro.telemetry.report import RunReport

        run_report = RunReport(
            command=f"repro sweep run {args.scenario}",
            started_at=report.started_at,
            duration=report.duration,
            metrics=MetricsSnapshot.from_dict(report.telemetry),
            meta={"exit_code": code, "campaign_id": report.campaign_id},
            campaign=report.summary(),
        )
        run_report.save(args.telemetry)
    if args.json:
        print(_json.dumps(report.summary(), indent=1, default=str))
        return code
    print(f"sweep {args.scenario}: {report.total} point(s), "
          f"{report.completed} completed, {report.failed_count} failed, "
          f"{report.skipped_count} replayed from ledger")
    print(f"  {report.points_per_second:.2f} pt/s over "
          f"{report.workers} worker(s)  solver calls "
          f"{report.solver_call_count}  memo hit "
          f"{report.memo_hit_rate:.1%}")
    for row in report.failures():
        print(f"  FAILED point {row.get('index')}: "
              f"{row.get('error', '?')}", file=sys.stderr)
    print(f"campaign recorded: {report.campaign_id} -> {ledger.root}")
    if args.telemetry:
        print(f"telemetry report -> {args.telemetry}")
    return code


def _sweep_ledger(args: argparse.Namespace):
    from repro.scenarios import RunLedger, default_ledger_root

    return RunLedger(args.ledger or default_ledger_root(), create=False)


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from repro.scenarios import render_campaign_entries

    ledger = _sweep_ledger(args)
    rows = ledger.campaign_entries(scenario=args.scenario)
    if args.json:
        import json as _json

        print(_json.dumps(rows, indent=1, default=str))
        return 0
    print(f"ledger {ledger.root}: {len(rows)} campaign(s)")
    print(render_campaign_entries(rows), end="")
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    from repro.scenarios import CampaignReport, render_campaign

    ledger = _sweep_ledger(args)
    row = ledger.resolve_campaign(args.campaign)
    record = ledger.load_campaign(str(row["campaign_id"]))
    if args.json:
        import json as _json

        print(_json.dumps(record, indent=1, default=str))
        return 0
    print(render_campaign(CampaignReport.from_dict(record)), end="")
    return 0


def _cmd_sweep_diff(args: argparse.Namespace) -> int:
    from repro.scenarios import CampaignReport, diff_campaigns

    ledger = _sweep_ledger(args)
    base_row = ledger.resolve_campaign(args.baseline)
    cand_row = ledger.resolve_campaign(args.candidate)
    baseline = CampaignReport.from_dict(
        ledger.load_campaign(str(base_row["campaign_id"])))
    candidate = CampaignReport.from_dict(
        ledger.load_campaign(str(cand_row["campaign_id"])))
    diff = diff_campaigns(baseline, candidate,
                          threshold=args.threshold, mad_k=args.mad_k)
    print(f"baseline  campaign {baseline.campaign_id} "
          f"({baseline.scenario}, {baseline.total} point(s))")
    print(f"candidate campaign {candidate.campaign_id} "
          f"({candidate.scenario}, {candidate.total} point(s))")
    print(diff.render(), end="")
    if diff.nothing_compared:
        return 3
    return 0 if diff.passed else 1


def _cmd_crosstalk(args: argparse.Namespace) -> int:
    from repro.bus import BusRLCExtractor, crosstalk_analysis
    from repro.geometry.trace import TraceBlock
    from repro.rc.capacitance import CapacitanceModel

    n = args.traces
    block = TraceBlock.from_widths_and_spacings(
        widths=[um(args.width)] * n,
        spacings=[um(args.spacing)] * (n - 1),
        length=um(args.length),
        thickness=um(args.thickness),
    )
    extractor = BusRLCExtractor(
        frequency=GHz(args.frequency),
        capacitance_model=CapacitanceModel(height_below=um(args.height_below)),
    )
    bus = extractor.extract(block)
    aggressor = f"T{(n + 1) // 2}"
    full = crosstalk_analysis(extractor, bus, aggressor=aggressor)
    cap_only = crosstalk_analysis(extractor, bus, aggressor=aggressor,
                                  include_mutual=False)
    print(f"{n}-trace bus crosstalk, aggressor {aggressor} "
          "(outer traces are shields)")
    print(f"  {'victim':>7} {'full RLC':>12} {'cap-only':>12}")
    for victim in sorted(full.victim_noise_peak):
        print(f"  {victim:>7} {full.noise_of(victim) * 1e3:9.1f} mV "
              f"{cap_only.noise_of(victim) * 1e3:9.1f} mV")
    print("  inductive coupling is long-range: far victims lose most of")
    print("  their noise when the mutual inductances are dropped.")
    return 0


def _cmd_spice(args: argparse.Namespace) -> int:
    from repro.circuit.spice_export import write_spice
    from repro.clocktree.configs import CoplanarWaveguideConfig
    from repro.clocktree.extractor import ClocktreeRLCExtractor
    from repro.clocktree.htree import HTree

    config = CoplanarWaveguideConfig(
        signal_width=um(args.signal_width), ground_width=um(args.ground_width),
        spacing=um(args.spacing), thickness=um(args.thickness),
        height_below=um(args.height_below),
    )
    extractor = ClocktreeRLCExtractor(config, frequency=GHz(args.frequency))
    htree = HTree.generate(levels=args.levels,
                           root_length=um(args.root_length), config=config)
    netlist = extractor.build_netlist(
        htree, include_inductance=not args.rc_only
    )
    path = write_spice(
        netlist.circuit, args.output,
        title=f"repro clocktree ({'RC' if args.rc_only else 'RLC'})",
        analyses=("tran 0.5p 3n",),
        probes=sorted(netlist.sink_nodes.values()),
    )
    print(f"wrote {path} ({path.read_text().count(chr(10))} cards, "
          f"{len(netlist.sink_nodes)} sinks)")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.clocktree.configs import CoplanarWaveguideConfig
    from repro.core.extraction import TableBasedExtractor

    config = CoplanarWaveguideConfig(
        signal_width=um(args.signal_width),
        ground_width=um(args.ground_width),
        spacing=um(args.spacing),
        thickness=um(args.thickness),
        height_below=um(args.height_below),
    )
    widths = [um(w) for w in args.widths]
    lengths = [um(l) for l in args.lengths]
    extractor = TableBasedExtractor.characterize(
        config, frequency=GHz(args.frequency), widths=widths, lengths=lengths,
    )
    extractor.save(args.output)
    print(f"characterized {len(widths)}x{len(lengths)} loop tables "
          f"at {args.frequency:.2f} GHz -> {args.output}")
    return 0


def _library_config(args: argparse.Namespace):
    from repro.clocktree.configs import CoplanarWaveguideConfig

    return CoplanarWaveguideConfig(
        signal_width=um(args.signal_width),
        ground_width=um(args.ground_width),
        spacing=um(args.spacing),
        thickness=um(args.thickness),
        height_below=um(args.height_below),
    )


def _cmd_library_build(args: argparse.Namespace) -> int:
    from repro.library import BuildRunner, standard_clocktree_jobs

    auditor = None
    if args.audit:
        from repro.quality import TableAuditor

        auditor = TableAuditor(
            samples=args.audit_samples, error_budget=args.audit_budget,
        )

    config = _library_config(args)
    jobs = standard_clocktree_jobs(
        config,
        frequency=GHz(args.frequency),
        widths=[um(w) for w in args.widths],
        lengths=[um(l) for l in args.lengths],
        spacings=[um(s) for s in args.cap_spacings] if args.cap_spacings else None,
        layer=args.layer,
        name_prefix=args.name_prefix,
    )

    def progress(tick):
        eta = tick.eta_seconds
        eta_text = f"{eta:5.0f} s" if eta != float("inf") else "    ? s"
        print(f"  [{tick.job.kind:>10}] {tick.done}/{tick.total} points "
              f"({tick.elapsed:6.1f} s, {tick.points_per_second:5.2f} pt/s, "
              f"eta {eta_text}, memo {tick.memo_hit_rate:4.0%})",
              end="\r", flush=True)

    runner = BuildRunner(
        args.root,
        workers=args.workers,
        parallel=not args.serial,
        progress=progress if not args.quiet else None,
        auditor=auditor,
        disk_memo=args.disk_memo,
    )
    stats = runner.build(jobs)
    if not args.quiet:
        print()
    session = getattr(args, "_telemetry_session", None)
    if session is not None:
        worker_metrics = stats.worker_metrics
        if worker_metrics is not None:
            session.add_worker_metrics(worker_metrics)
        session.add_worker_spans(stats.worker_spans)
        session.add_meta(
            library_root=str(args.root),
            workers=runner.effective_workers if runner.parallel else 1,
            parallel=runner.parallel,
            build_summary=stats.summary(),
        )
        if stats.health:
            session.add_table_health(stats.health.values())
    print(f"library {args.root}: {stats.summary()}")
    for job_stats in stats.jobs:
        state = "warm (skipped)" if job_stats.skipped else (
            f"{job_stats.points_solved} solved"
            + (f", {job_stats.points_resumed} resumed"
               if job_stats.points_resumed else "")
        )
        print(f"  {job_stats.kind:>12}  {job_stats.job_id[:12]}  "
              f"{state}  {job_stats.wall_time:.2f} s")
    if stats.health:
        from repro.quality import render_health

        print(render_health(list(stats.health.values())), end="")
    return 0


def _cmd_library_audit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.library import TableLibrary
    from repro.quality import audit_library, render_health

    lib = TableLibrary(args.root, create=False)
    reports, problems = audit_library(lib, budget=args.budget)
    print(render_health(reports, title=f"library {args.root} health"),
          end="")
    if args.output:
        from repro.ioutil import atomic_write_text

        payload = {
            "library": str(args.root),
            "reports": [r.to_dict() for r in reports],
            "problems": list(problems),
        }
        atomic_write_text(args.output, _json.dumps(payload, indent=1))
        print(f"health artifact -> {args.output}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    session = getattr(args, "_telemetry_session", None)
    if session is not None:
        session.add_table_health(reports)
        session.add_meta(library_root=str(args.root),
                         problems=len(problems))
    return 1 if problems else 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.quality import diff_benches, load_bench

    records = [load_bench(path) for path in args.files]
    if len(records) < 2:
        print("bench diff needs at least two records "
              "(baseline... candidate)")
        return 2
    diff = diff_benches(
        records[:-1], records[-1],
        threshold=args.threshold, mad_k=args.mad_k,
    )
    print(diff.render(), end="")
    if diff.nothing_compared:
        return 3
    return 0 if diff.passed else 1


def _cmd_library_list(args: argparse.Namespace) -> int:
    from repro.library import TableLibrary

    lib = TableLibrary(args.root, create=False)
    entries = lib.entries()
    if not entries:
        print(f"library {args.root} is empty")
        return 0
    print(f"library {args.root}: {len(entries)} table(s)")
    print(f"  {'key':>12} {'quantity':>26} {'layer':>6} {'freq [GHz]':>11} "
          f"{'shape':>10}  name")
    for e in entries:
        freq = f"{to_GHz(e.frequency):.3f}" if e.frequency else "-"
        shape = "x".join(str(n) for n in e.shape)
        print(f"  {e.key[:12]:>12} {e.quantity:>26} {e.layer or '-':>6} "
              f"{freq:>11} {shape:>10}  {e.name}")
    return 0


def _cmd_library_info(args: argparse.Namespace) -> int:
    import json as _json

    from repro.library import TableLibrary

    lib = TableLibrary(args.root, create=False)
    entry = lib.entry(args.key)
    table = lib.get(entry.key)
    print(f"key       {entry.key}")
    print(f"name      {entry.name}")
    print(f"quantity  {entry.quantity}")
    print(f"layer     {entry.layer or '-'}")
    print(f"family    {entry.family[:16] + '...' if entry.family else '-'}")
    print(f"frequency {entry.frequency if entry.frequency else '-'}")
    print(f"axes      {', '.join(f'{n}[{s}]' for n, s in zip(entry.axis_names, entry.shape))}")
    print(f"file      {entry.file}")
    print(f"sha256    {entry.sha256}")
    for name, axis in zip(table.axis_names, table.axes):
        print(f"  axis {name}: {axis.min():.4g} .. {axis.max():.4g} m "
              f"({axis.size} points)")
    print(f"  values: {table.values.min():.6g} .. {table.values.max():.6g}")
    if args.json:
        print(_json.dumps(entry.to_dict(), indent=1))
    return 0


def _cmd_library_verify(args: argparse.Namespace) -> int:
    from repro.library import TableLibrary
    from repro.library.store import iter_problems_summary

    lib = TableLibrary(args.root, create=False)
    problems = lib.verify()
    print(f"library {args.root} ({len(lib)} tables): "
          f"{iter_problems_summary(problems)}")
    return 1 if problems else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry import load_report, render_report

    report = load_report(args.file)
    if args.trace_json:
        from repro.telemetry import write_chrome_trace

        path = write_chrome_trace(report, args.trace_json)
        print(f"chrome trace -> {path} "
              "(load in chrome://tracing or ui.perfetto.dev)")
        if not args.spans_jsonl:
            return 0
    if args.spans_jsonl:
        print(report.spans_jsonl(), end="")
        return 0
    print(render_report(report, max_spans=args.max_spans), end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path as _Path

    from repro.circuit.lint import lint_spice

    path = _Path(args.netlist)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2
    report = lint_spice(text, name=path.name)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render())
    session = getattr(args, "_telemetry_session", None)
    if session is not None:
        session.add_simulation({path.name: {"netlist_health": report.to_dict()}})
    if not report.clean:
        return 1
    if report.warnings and args.strict:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ExtractionService, run_server
    from repro.telemetry.logs import configure_logging, install_stdlib_bridge
    from repro.telemetry.slo import SLOConfig, SLOMonitor

    # Structured JSON logs to stderr (plus --log-file); the stdlib
    # bridge routes http.server / library `logging` calls through the
    # same pipeline so every daemon line is one JSON object.
    configure_logging(
        stream=sys.stderr, path=args.log_file, level=args.log_level,
    )
    install_stdlib_bridge()

    if args.slo_latency_ms <= 0:
        print("--slo-latency-ms must be positive", file=sys.stderr)
        return 2
    service = ExtractionService(
        args.library,
        config=_library_config(args),
        frequency=GHz(args.frequency) if args.frequency else None,
        cache_size=args.cache_size,
        compute_width=args.compute_width,
        max_inflight=args.max_inflight,
        disk_memo=args.disk_memo,
        slo=SLOMonitor(SLOConfig(latency_threshold=args.slo_latency_ms / 1e3)),
    )
    health = service.health()
    print(f"repro serve v{health['version']}: kit {args.library} "
          f"({health['kit']['tables']} tables, "
          f"manifest {health['kit']['manifest_sha'][:12]})")
    if args.disk_memo:
        print(f"  disk memo {args.disk_memo}: "
              f"{service.disk_memo_entries} entries warmed")
    print(f"  http://{args.host}:{args.port}  "
          f"(POST /extract /lookup /skew; "
          f"GET /healthz /metrics /statusz /debug/requests)")
    print(f"  max inflight {args.max_inflight}, result cache "
          f"{args.cache_size}, compute width {args.compute_width}, "
          f"slo latency {args.slo_latency_ms:.0f} ms")
    code = run_server(
        service, host=args.host, port=args.port,
        drain_timeout=args.drain_timeout,
    )
    session = getattr(args, "_telemetry_session", None)
    if session is not None:
        session.add_slo(service.slo.summary())
        session.add_meta(
            library_root=str(args.library),
            requests_total=service.requests.total,
            rejected=service.limiter.rejected,
        )
    return code


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.loadgen import run_load

    payload = _json.loads(args.payload) if args.payload else {
        "root_length_um": 3000.0, "levels": 2,
    }
    if not isinstance(payload, dict):
        print("--payload must be a JSON object", file=sys.stderr)
        return 2

    server = None
    service = None
    if args.url:
        base_url = args.url
    elif args.library:
        from repro.serve import ExtractionService, start_server

        service = ExtractionService(
            args.library, max_inflight=max(args.max_inflight, args.threads),
        )
        server = start_server(service)
        base_url = server.url
        print(f"in-process daemon on {base_url} (kit {args.library})")
    else:
        print("bench serve needs --url or --library", file=sys.stderr)
        return 2

    try:
        if args.warmup:
            run_load(base_url, args.endpoint, payload,
                     threads=1, requests_per_thread=args.warmup)
        report = run_load(
            base_url, args.endpoint, payload,
            threads=args.threads, requests_per_thread=args.requests,
        )
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()

    print(report.summary())
    if report.errors:
        print(f"  WARNING: {report.errors} request(s) failed "
              f"(statuses: {report.to_dict()['status_counts']})")
    if args.record:
        from repro.quality import record_bench

        record_bench(args.record, {"serve_load": report.to_dict()})
        print(f"bench record -> {args.record}")
    session = getattr(args, "_telemetry_session", None)
    if session is not None:
        session.add_meta(serve_load=report.to_dict())
        if service is not None:
            session.add_slo(service.slo.summary())
    return 1 if report.errors else 0


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", default=None, metavar="FILE",
        help="write a structured run report (JSON) to FILE; render it "
             "back with `repro report FILE`",
    )


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default=None, metavar="FILE",
        help="sample wall-clock stacks for the whole run and write "
             "collapsed-stack flamegraph text to FILE",
    )
    parser.add_argument(
        "--profile-interval", type=float, default=5.0, metavar="MS",
        help="sampling interval in milliseconds (default 5)",
    )


def _add_library_parser(sub) -> None:
    p_lib = sub.add_parser(
        "library",
        help="characterization library: build / list / info / verify",
    )
    lib_sub = p_lib.add_subparsers(dest="library_command", required=True)

    p_build = lib_sub.add_parser(
        "build", help="run characterization jobs into a library")
    p_build.add_argument("--root", required=True, help="library directory")
    p_build.add_argument("--layer", default="", help="layer tag, e.g. M5")
    p_build.add_argument("--name-prefix", default="loop")
    p_build.add_argument("--signal-width", type=float, default=10.0,
                         help="nominal signal width [um]")
    p_build.add_argument("--ground-width", type=float, default=5.0)
    p_build.add_argument("--spacing", type=float, default=1.0)
    p_build.add_argument("--thickness", type=float, default=2.0)
    p_build.add_argument("--height-below", type=float, default=2.0)
    p_build.add_argument("--frequency", type=float, default=3.2, help="[GHz]")
    p_build.add_argument("--widths", type=float, nargs="+",
                         default=[4.0, 8.0, 12.0, 16.0], help="[um]")
    p_build.add_argument("--lengths", type=float, nargs="+",
                         default=[500.0, 1500.0, 3000.0, 6000.0], help="[um]")
    p_build.add_argument("--cap-spacings", type=float, nargs="+", default=None,
                         help="also build a C(width, spacing) table [um]")
    p_build.add_argument("--workers", type=int, default=None,
                         help="process count (default: CPU count)")
    p_build.add_argument("--serial", action="store_true",
                         help="disable the process pool")
    p_build.add_argument("--quiet", action="store_true")
    p_build.add_argument("--audit", action="store_true",
                         help="spot-check every freshly built table "
                              "against direct re-solves and embed the "
                              "health report into the manifest")
    p_build.add_argument("--audit-samples", type=int, default=8,
                         help="off-grid sample points per job")
    p_build.add_argument("--disk-memo", default=None, metavar="FILE",
                         help="persistent Lp memo shard warmed before and "
                              "flushed after the build (shared across "
                              "processes and repeated builds)")
    p_build.add_argument("--audit-budget", type=float, default=0.05,
                         help="p95 relative-error budget (fraction)")
    _add_telemetry_arg(p_build)
    _add_profile_args(p_build)
    p_build.set_defaults(func=_cmd_library_build)

    p_list = lib_sub.add_parser("list", help="list stored tables")
    p_list.add_argument("--root", required=True)
    p_list.set_defaults(func=_cmd_library_list)

    p_info = lib_sub.add_parser("info", help="inspect one stored table")
    p_info.add_argument("--root", required=True)
    p_info.add_argument("key", help="cache key (unique prefix ok)")
    p_info.add_argument("--json", action="store_true",
                        help="also dump the manifest entry as JSON")
    p_info.set_defaults(func=_cmd_library_info)

    p_verify = lib_sub.add_parser(
        "verify", help="integrity-check every blob against the manifest")
    p_verify.add_argument("--root", required=True)
    p_verify.set_defaults(func=_cmd_library_verify)

    p_audit = lib_sub.add_parser(
        "audit",
        help="check the table-health reports embedded in the manifest")
    p_audit.add_argument("--root", required=True)
    p_audit.add_argument("--budget", type=float, default=None,
                         help="override the recorded p95 error budget "
                              "(fraction)")
    p_audit.add_argument("--output", default=None, metavar="FILE",
                         help="also write the health reports as JSON")
    _add_telemetry_arg(p_audit)
    p_audit.set_defaults(func=_cmd_library_audit)


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for testing)."""
    from repro.version import get_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clocktree RLC extraction with efficient inductance "
                    "modeling (DATE 2000 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {get_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig1 = sub.add_parser("fig1", help="Figs. 1-3 delay comparison")
    p_fig1.add_argument("--drive-resistance", type=float, default=15.0)
    _add_telemetry_arg(p_fig1)
    p_fig1.set_defaults(func=_cmd_fig1, manages_telemetry=True)

    p_fig5 = sub.add_parser("fig5", help="Fig. 5 loop-L matrix + Foundations")
    p_fig5.add_argument("--traces", type=int, default=5)
    p_fig5.set_defaults(func=_cmd_fig5)

    sub.add_parser("table1", help="Table I cascading comparison").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("scaling", help="super-linear length scaling").set_defaults(
        func=_cmd_scaling
    )
    p_skew = sub.add_parser("skew", help="H-tree skew RC vs RLC")
    p_skew.add_argument("--library", default=None,
                        help="characterization library to pull tables from")
    _add_telemetry_arg(p_skew)
    p_skew.set_defaults(func=_cmd_skew, manages_telemetry=True)
    sub.add_parser("variation", help="process variation study").set_defaults(
        func=_cmd_variation
    )
    p_accuracy = sub.add_parser("accuracy",
                                help="table accuracy and speedup")
    _add_telemetry_arg(p_accuracy)
    p_accuracy.set_defaults(func=_cmd_accuracy, manages_telemetry=True)

    p_run = sub.add_parser(
        "run",
        help="run a registered scenario through the run ledger "
             "(skip-if-done, provenance, telemetry)")
    p_run.add_argument("scenario", nargs="?", default=None,
                       help="scenario name (see --list); parameters are "
                            "overridden with --PARAM=value tokens")
    p_run.add_argument("--list", action="store_true", dest="list_scenarios",
                       help="list registered scenarios and their params")
    p_run.add_argument("--force", action="store_true",
                       help="execute even when an identical completed "
                            "run is already in the ledger")
    p_run.add_argument("--ledger", default=None, metavar="DIR",
                       help="run-ledger directory (default: $REPRO_LEDGER "
                            "or .repro/runs)")
    p_run.add_argument("--json", action="store_true",
                       help="emit run id/key/params/metrics as JSON")
    _add_telemetry_arg(p_run)
    p_run.set_defaults(func=_cmd_run, manages_telemetry=True)

    p_runs = sub.add_parser(
        "runs", help="inspect the run ledger: list / show / diff / gc")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    def _ledger_arg(p):
        p.add_argument("--ledger", default=None, metavar="DIR",
                       help="run-ledger directory (default: $REPRO_LEDGER "
                            "or .repro/runs)")

    p_rlist = runs_sub.add_parser("list", help="list recorded runs")
    _ledger_arg(p_rlist)
    p_rlist.add_argument("--scenario", default=None,
                         help="only runs of this scenario")
    p_rlist.add_argument("--sha", default=None,
                         help="only runs from a git sha (prefix ok)")
    p_rlist.add_argument("--since", type=float, default=None, metavar="DAYS",
                         help="only runs started in the last DAYS days")
    p_rlist.add_argument("--status", default=None,
                         choices=["completed", "failed"])
    p_rlist.add_argument("--json", action="store_true",
                         help="emit the index rows as JSON")
    p_rlist.set_defaults(func=_scenario_guard(_cmd_runs_list))

    p_rshow = runs_sub.add_parser(
        "show", help="render one run: provenance, params, metrics")
    _ledger_arg(p_rshow)
    p_rshow.add_argument("run",
                         help="run id prefix, <scenario> (latest), or "
                              "<scenario>@<sha-prefix>")
    p_rshow.add_argument("--report", action="store_true",
                         help="also render the captured telemetry report")
    p_rshow.add_argument("--max-spans", type=int, default=40,
                         help="span-tree lines when rendering --report")
    p_rshow.add_argument("--logs", action="store_true",
                         help="also dump captured structured logs (JSONL)")
    p_rshow.add_argument("--json", action="store_true",
                         help="emit the full run record as JSON")
    p_rshow.set_defaults(func=_scenario_guard(_cmd_runs_show))

    p_rdiff = runs_sub.add_parser(
        "diff",
        help="compare two runs' metrics; exits 1 when a "
             "direction-aware metric regressed")
    _ledger_arg(p_rdiff)
    p_rdiff.add_argument("baseline",
                         help="run id prefix, <scenario>, or "
                              "<scenario>@<sha-prefix>")
    p_rdiff.add_argument("candidate", help="same selector forms")
    p_rdiff.add_argument("--threshold", type=float, default=0.25,
                         help="relative regression gate per metric")
    p_rdiff.add_argument("--mad-k", type=float, default=3.0,
                         help="MAD multiplier widening the gate")
    p_rdiff.set_defaults(func=_scenario_guard(_cmd_runs_diff))

    p_rgc = runs_sub.add_parser(
        "gc", help="prune old runs by age and/or count")
    _ledger_arg(p_rgc)
    p_rgc.add_argument("--max-age-days", type=float, default=None,
                       help="drop runs older than this many days")
    p_rgc.add_argument("--keep", type=int, default=None,
                       help="keep at most this many newest runs")
    p_rgc.set_defaults(func=_scenario_guard(_cmd_runs_gc))

    p_sweep = sub.add_parser(
        "sweep",
        help="parameter-sweep campaigns over a scenario: "
             "run / status / report / diff")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_srun = sweep_sub.add_parser(
        "run",
        help="run a grid/Monte-Carlo sweep; every point is one ledger "
             "run (skip-if-done = free resume)")
    p_srun.add_argument("scenario",
                        help="registered scenario name (see `repro run "
                             "--list`); fixed base overrides are given "
                             "as --PARAM=value tokens")
    p_srun.add_argument("--grid", action="append", metavar="PARAM=v1,v2",
                        help="one cartesian grid axis (repeatable)")
    p_srun.add_argument("--point", action="append",
                        metavar="PARAM=v[,PARAM=v...]",
                        help="one explicit point (repeatable)")
    p_srun.add_argument("--mc", action="append",
                        metavar="PARAM=normal(mu,sigma)",
                        help="one seeded Monte-Carlo axis: normal/"
                             "uniform/lognormal (repeatable)")
    p_srun.add_argument("--samples", type=int, default=1,
                        help="Monte-Carlo samples per grid point")
    p_srun.add_argument("--seed", type=int, default=0,
                        help="Monte-Carlo seed (draws are fully "
                             "deterministic given the seed)")
    p_srun.add_argument("--workers", type=int, default=1,
                        help="process count; each point runs in its "
                             "own worker")
    p_srun.add_argument("--force", action="store_true",
                        help="re-execute points the ledger already has")
    p_srun.add_argument("--ledger", default=None, metavar="DIR",
                        help="run-ledger directory (default: "
                             "$REPRO_LEDGER or .repro/runs)")
    p_srun.add_argument("--json", action="store_true",
                        help="emit the campaign summary as JSON")
    p_srun.add_argument("--quiet", action="store_true",
                        help="suppress the live progress line (stderr)")
    _add_telemetry_arg(p_srun)
    p_srun.set_defaults(func=_cmd_sweep_run, manages_telemetry=True)

    p_sstat = sweep_sub.add_parser(
        "status", help="list recorded sweep campaigns")
    p_sstat.add_argument("--ledger", default=None, metavar="DIR")
    p_sstat.add_argument("--scenario", default=None,
                         help="only campaigns over this scenario")
    p_sstat.add_argument("--json", action="store_true",
                         help="emit the campaign index rows as JSON")
    p_sstat.set_defaults(func=_scenario_guard(_cmd_sweep_status))

    p_srep = sweep_sub.add_parser(
        "report",
        help="render one campaign: point table, per-axis marginals, "
             "best/worst points, failures")
    p_srep.add_argument("campaign",
                        help="campaign id prefix, <scenario> (latest), "
                             "or sweep-id prefix")
    p_srep.add_argument("--ledger", default=None, metavar="DIR")
    p_srep.add_argument("--json", action="store_true",
                        help="emit the full campaign record as JSON")
    p_srep.set_defaults(func=_scenario_guard(_cmd_sweep_report))

    p_sdiff = sweep_sub.add_parser(
        "diff",
        help="compare two campaigns point-by-point; exits 1 on a "
             "direction-aware regression, 3 when nothing compared")
    p_sdiff.add_argument("baseline", help="campaign selector")
    p_sdiff.add_argument("candidate", help="campaign selector")
    p_sdiff.add_argument("--ledger", default=None, metavar="DIR")
    p_sdiff.add_argument("--threshold", type=float, default=0.25,
                         help="relative regression gate per metric")
    p_sdiff.add_argument("--mad-k", type=float, default=3.0,
                         help="MAD multiplier widening the gate")
    p_sdiff.set_defaults(func=_scenario_guard(_cmd_sweep_diff))

    p_xtalk = sub.add_parser("crosstalk", help="bus aggressor/victim noise")
    p_xtalk.add_argument("--traces", type=int, default=7)
    p_xtalk.add_argument("--width", type=float, default=2.0, help="[um]")
    p_xtalk.add_argument("--spacing", type=float, default=2.0, help="[um]")
    p_xtalk.add_argument("--length", type=float, default=2000.0, help="[um]")
    p_xtalk.add_argument("--thickness", type=float, default=1.0, help="[um]")
    p_xtalk.add_argument("--height-below", type=float, default=2.0, help="[um]")
    p_xtalk.add_argument("--frequency", type=float, default=6.4, help="[GHz]")
    p_xtalk.set_defaults(func=_cmd_crosstalk)

    p_spice = sub.add_parser("spice", help="export an extracted clocktree deck")
    p_spice.add_argument("--output", required=True, help="output .sp file")
    p_spice.add_argument("--levels", type=int, default=2)
    p_spice.add_argument("--root-length", type=float, default=4000.0,
                         help="[um]")
    p_spice.add_argument("--signal-width", type=float, default=10.0)
    p_spice.add_argument("--ground-width", type=float, default=5.0)
    p_spice.add_argument("--spacing", type=float, default=1.0)
    p_spice.add_argument("--thickness", type=float, default=2.0)
    p_spice.add_argument("--height-below", type=float, default=2.0)
    p_spice.add_argument("--frequency", type=float, default=3.2, help="[GHz]")
    p_spice.add_argument("--rc-only", action="store_true",
                         help="omit the inductances")
    p_spice.set_defaults(func=_cmd_spice)

    p_char = sub.add_parser("characterize", help="build and save loop tables")
    p_char.add_argument("--output", required=True, help="output directory")
    p_char.add_argument("--signal-width", type=float, default=10.0,
                        help="nominal signal width [um]")
    p_char.add_argument("--ground-width", type=float, default=5.0)
    p_char.add_argument("--spacing", type=float, default=1.0)
    p_char.add_argument("--thickness", type=float, default=2.0)
    p_char.add_argument("--height-below", type=float, default=2.0)
    p_char.add_argument("--frequency", type=float, default=3.2, help="[GHz]")
    p_char.add_argument("--widths", type=float, nargs="+",
                        default=[4.0, 8.0, 12.0, 16.0], help="[um]")
    p_char.add_argument("--lengths", type=float, nargs="+",
                        default=[500.0, 1500.0, 3000.0, 6000.0], help="[um]")
    _add_telemetry_arg(p_char)
    p_char.set_defaults(func=_cmd_characterize)

    _add_library_parser(sub)

    p_bench = sub.add_parser(
        "bench", help="benchmark records: regression diff")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bdiff = bench_sub.add_parser(
        "diff",
        help="compare a candidate bench record against baseline history; "
             "exits nonzero on regressions")
    p_bdiff.add_argument(
        "files", nargs="+", metavar="FILE",
        help="bench/telemetry JSON records: one or more baselines "
             "followed by the candidate (last)")
    p_bdiff.add_argument("--threshold", type=float, default=0.25,
                         help="relative regression gate per metric "
                              "(default 0.25)")
    p_bdiff.add_argument("--mad-k", type=float, default=3.0,
                         help="MAD multiplier widening the gate on noisy "
                              "baselines")
    p_bdiff.set_defaults(func=_cmd_bench_diff)

    p_bserve = bench_sub.add_parser(
        "serve",
        help="load-test an extraction daemon: N threads x M requests, "
             "latency percentiles + RPS")
    p_bserve.add_argument("--url", default=None,
                          help="base URL of a running daemon "
                               "(e.g. http://127.0.0.1:8080)")
    p_bserve.add_argument("--library", default=None, metavar="ROOT",
                          help="start an in-process daemon over this kit "
                               "instead of targeting --url")
    p_bserve.add_argument("--endpoint", default="extract",
                          choices=["extract", "lookup", "skew"])
    p_bserve.add_argument("--payload", default=None,
                          help="JSON request body (default: a 2-level "
                               "3000 um extract)")
    p_bserve.add_argument("--threads", type=int, default=4)
    p_bserve.add_argument("--requests", type=int, default=25,
                          help="requests per thread")
    p_bserve.add_argument("--warmup", type=int, default=1,
                          help="untimed warmup requests (0 for a "
                               "cold-cache measurement)")
    p_bserve.add_argument("--max-inflight", type=int, default=8,
                          help="daemon admission ceiling (in-process "
                               "mode; raised to --threads if lower)")
    p_bserve.add_argument("--record", default=None, metavar="FILE",
                          help="write/merge a BENCH_*.json record "
                               "gated by `repro bench diff`")
    _add_telemetry_arg(p_bserve)
    _add_profile_args(p_bserve)
    p_bserve.set_defaults(func=_cmd_bench_serve)

    p_report = sub.add_parser(
        "report", help="render a --telemetry run report (span tree + metrics)")
    p_report.add_argument("file", help="report JSON written by --telemetry")
    p_report.add_argument("--max-spans", type=int, default=200,
                          help="span-tree lines to render before truncating")
    p_report.add_argument("--spans-jsonl", action="store_true",
                          help="dump the flattened span records as JSONL "
                               "instead of rendering")
    p_report.add_argument("--trace-json", default=None, metavar="FILE",
                          help="export the span tree as a Chrome "
                               "trace-event (Perfetto) timeline to FILE")
    p_report.set_defaults(func=_cmd_report)

    p_serve = sub.add_parser(
        "serve",
        help="extraction-as-a-service daemon over a characterization kit")
    p_serve.add_argument("--library", required=True, metavar="ROOT",
                         help="characterization library (kit) to serve")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         help="admission ceiling; beyond it requests "
                              "get 429 immediately")
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="result-cache entries (LRU)")
    p_serve.add_argument("--compute-width", type=int, default=1,
                         help="distinct cache-missing computations "
                              "running at once (memo locality gate)")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         help="seconds to wait for in-flight requests "
                              "on SIGTERM")
    p_serve.add_argument("--frequency", type=float, default=None,
                         help="extraction frequency [GHz] (default: the "
                              "kit's characterized frequency)")
    p_serve.add_argument("--disk-memo", default=None, metavar="FILE",
                         help="persistent Lp memo shard warmed at startup")
    p_serve.add_argument("--signal-width", type=float, default=10.0,
                         help="default geometry [um]; must match the "
                              "kit's characterized family for table hits")
    p_serve.add_argument("--ground-width", type=float, default=5.0)
    p_serve.add_argument("--spacing", type=float, default=1.0)
    p_serve.add_argument("--thickness", type=float, default=2.0)
    p_serve.add_argument("--height-below", type=float, default=2.0)
    p_serve.add_argument("--log-file", default=None, metavar="FILE",
                         help="also append the structured JSON logs "
                              "(access log included) to FILE")
    p_serve.add_argument("--log-level", default="info",
                         choices=["debug", "info", "warning", "error"],
                         help="minimum structured-log severity")
    p_serve.add_argument("--slo-latency-ms", type=float, default=500.0,
                         help="latency-SLI threshold [ms] for the "
                              "rolling SLO monitor")
    _add_telemetry_arg(p_serve)
    _add_profile_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_lint = sub.add_parser(
        "lint", help="netlist health lint for a SPICE deck; exits nonzero "
                     "on errors")
    p_lint.add_argument("netlist", help="SPICE deck (.sp) to check")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the health report as JSON")
    p_lint.add_argument("--strict", action="store_true",
                        help="also fail (exit 1) on warnings")
    _add_telemetry_arg(p_lint)
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def _extract_param_overrides(argv: List[str]):
    """Split ``--PARAM=value`` scenario overrides out of *argv*.

    argparse cannot model per-scenario parameter names, so UPPERCASE
    ``--NAME=value`` tokens are lifted before parsing and handed to the
    scenario runner, which validates them against the scenario's typed
    defaults.
    """
    overrides = {}
    rest = []
    for token in argv:
        match = _PARAM_OVERRIDE.match(token)
        if match:
            overrides[match.group(1)] = match.group(2)
        else:
            rest.append(token)
    return overrides, rest


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    overrides, argv = _extract_param_overrides(list(argv))
    args = parser.parse_args(argv)
    if overrides and args.command not in ("run", "sweep"):
        print("error: --PARAM=value overrides are only valid with "
              "`repro run <scenario>` or `repro sweep run <scenario>`",
              file=sys.stderr)
        return 2
    args.param_overrides = overrides
    profile_path = getattr(args, "profile", None)
    profiler = None
    if profile_path:
        from repro.telemetry.profiler import SamplingProfiler

        interval_ms = getattr(args, "profile_interval", 5.0)
        profiler = SamplingProfiler(interval=interval_ms / 1e3).start()
    try:
        return _dispatch(args, profiler)
    finally:
        if profiler is not None:
            profiler.stop()
            profiler.write_collapsed(profile_path)
            print(f"profile ({profiler.samples} samples, "
                  f"{len(profiler.stacks)} stacks) -> {profile_path}")


def _dispatch(args: argparse.Namespace, profiler=None) -> int:
    """Run the selected command, inside a telemetry session if asked."""
    telemetry_path = getattr(args, "telemetry", None)
    if telemetry_path is None or getattr(args, "manages_telemetry", False):
        # Scenario-routed commands open their own session (the runner
        # records it in the ledger); nesting a second one here would
        # double-wrap the tracer.
        return args.func(args)

    from repro.telemetry import telemetry_session

    command = args.command
    library_command = getattr(args, "library_command", None)
    if library_command:
        command = f"{command} {library_command}"
    with telemetry_session(f"repro {command}") as session:
        # Commands that aggregate worker telemetry (library build) pick
        # the session up from the namespace.
        args._telemetry_session = session
        code = args.func(args)
        if profiler is not None:
            # Stop before the session assembles so the report's v4
            # ``profile`` section covers exactly the command's work.
            profiler.stop()
            session.add_profile(profiler.summary())
    report = session.report
    assert report is not None  # telemetry_session always assembles one
    report.meta.setdefault("exit_code", code)
    path = report.save(telemetry_path)
    print(f"telemetry report -> {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
