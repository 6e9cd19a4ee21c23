"""The seven paper experiments as registered scenarios.

One scenario per ``repro.experiments`` module, with the experiment's
knobs exposed as typed UPPERCASE parameters (lengths/times in SI units,
frequencies in Hz) and the headline numbers returned as the metrics
dict the run ledger stores and diffs.  The ``render`` functions are the
single source of the human console output -- the legacy ``repro fig1``
/ ``repro skew`` / ``repro accuracy`` aliases print exactly these.
"""

from __future__ import annotations

from typing import Dict

from repro.constants import to_GHz, to_nH, to_pF, to_ps
from repro.scenarios.registry import register
from repro.scenarios.spec import Scenario


# ----------------------------------------------------------------------
# Figs. 1-3: CPW clock-net delay RC vs RLC
# ----------------------------------------------------------------------
def _run_fig1(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.experiments import run_fig1

    result = run_fig1(
        length=params["LENGTH"],
        drive_resistance=params["DRIVE_RESISTANCE"],
        supply=params["SUPPLY"],
        rise_time=params["RISE_TIME"],
        sections=params["SECTIONS"],
    )
    if session is not None:
        session.add_simulation(result.simulation_reports())
    return {
        "length_um": float(params["LENGTH"]) * 1e6,
        "resistance_ohm": result.rlc.resistance,
        "inductance_nh": to_nH(result.rlc.inductance),
        "capacitance_pf": to_pF(result.rlc.capacitance),
        "delay_rc_ps": to_ps(result.delay_rc),
        "delay_rlc_ps": to_ps(result.delay_rlc),
        "delay_ratio": result.delay_ratio,
        "overshoot_percent": result.overshoot_rlc * 100.0,
        "undershoot_percent": result.undershoot_rlc * 100.0,
    }


def _render_fig1(m: Dict[str, object]) -> str:
    return "\n".join([
        f"Fig. 1 co-planar waveguide clock net ({m['length_um']:.0f} um)",
        f"  extracted R = {m['resistance_ohm']:8.2f} ohm",
        f"  extracted L = {m['inductance_nh']:8.3f} nH",
        f"  extracted C = {m['capacitance_pf']:8.3f} pF",
        f"  delay RC   = {m['delay_rc_ps']:7.2f} ps   (paper: 28.01 ps)",
        f"  delay RLC  = {m['delay_rlc_ps']:7.2f} ps   (paper: 47.60 ps)",
        f"  delay ratio = {m['delay_ratio']:5.2f}          (paper: 1.70)",
        f"  overshoot  = {m['overshoot_percent']:5.1f} %",
        f"  undershoot = {m['undershoot_percent']:5.1f} %",
    ])


register(Scenario(
    name="fig1-delay",
    figure="fig1",
    description="Figs. 1-3: CPW clock net delay RC vs RLC, over/undershoot",
    defaults={
        "LENGTH": 6e-3,
        "DRIVE_RESISTANCE": 15.0,
        "SUPPLY": 1.8,
        "RISE_TIME": 50e-12,
        "SECTIONS": 10,
    },
    run=_run_fig1,
    render=_render_fig1,
))


# ----------------------------------------------------------------------
# Fig. 5: loop-L matrix over a plane + Foundations 1/2
# ----------------------------------------------------------------------
def _run_fig5(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.experiments import run_fig5

    result = run_fig5(
        n_traces=params["N_TRACES"],
        length=params["LENGTH"],
        frequency=params["FREQUENCY"],
    )
    f1, f2 = result.foundation1, result.foundation2
    return {
        "n_traces": len(result.trace_names),
        "frequency_ghz": to_GHz(result.frequency),
        "loop_l11_nh": to_nH(float(result.loop_matrix[0, 0])),
        "loop_l12_nh": to_nH(float(result.loop_matrix[0, 1])),
        "foundation1_error_percent": f1.relative_error * 100.0,
        "foundation2_error_percent": f2.relative_error * 100.0,
        "max_foundation_error_percent": result.max_foundation_error * 100.0,
    }


def _render_fig5(m: Dict[str, object]) -> str:
    return "\n".join([
        f"Fig. 5 loop inductance over a plane "
        f"({m['n_traces']} traces at {m['frequency_ghz']:.1f} GHz)",
        f"  L11 = {m['loop_l11_nh']:.4f} nH, L12 = {m['loop_l12_nh']:.4f} nH",
        f"  Foundation 1 error: {m['foundation1_error_percent']:.2f} %",
        f"  Foundation 2 error: {m['foundation2_error_percent']:.2f} %",
    ])


register(Scenario(
    name="fig5-foundations",
    figure="fig5",
    description="Fig. 5: loop-L matrix over a plane; Foundations 1 and 2",
    defaults={
        "N_TRACES": 5,
        "LENGTH": 2e-3,
        "FREQUENCY": 1e9,
    },
    run=_run_fig5,
    render=_render_fig5,
))


# ----------------------------------------------------------------------
# Table I: linear cascading comparison
# ----------------------------------------------------------------------
def _run_table1(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.experiments import run_table1

    result = run_table1(frequency=params["FREQUENCY"])
    metrics: Dict[str, object] = {
        "frequency_ghz": to_GHz(result.frequency),
    }
    worst = 0.0
    for row in result.rows:
        metrics[f"{row.name}_error_percent"] = row.error_percent
        metrics[f"{row.name}_full_nh"] = to_nH(row.comparison.full_inductance)
        worst = max(worst, abs(row.error_percent))
    metrics["max_error_percent"] = worst
    return metrics


def _render_table1(m: Dict[str, object]) -> str:
    lines = [
        f"Table I linear cascading at {m['frequency_ghz']:.1f} GHz "
        "(paper errors: 3.57 %, 1.55 %)"
    ]
    for key in sorted(m):
        if key.endswith("_error_percent") and key != "max_error_percent":
            name = key[:-len("_error_percent")]
            lines.append(
                f"  {name:>10}: full {m[f'{name}_full_nh']:.4f} nH, "
                f"cascading error {m[key]:.2f} %"
            )
    return "\n".join(lines)


register(Scenario(
    name="table1-cascading",
    figure="table1",
    description="Table I: linear cascading error on the Fig. 6 trees",
    defaults={"FREQUENCY": 3e9},
    run=_run_table1,
    render=_render_table1,
))


# ----------------------------------------------------------------------
# Sec. V: super-linear inductance length scaling
# ----------------------------------------------------------------------
def _run_scaling(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.experiments import run_length_scaling

    result = run_length_scaling(
        width=params["WIDTH"],
        thickness=params["THICKNESS"],
        pitch=params["PITCH"],
    )
    import numpy as np

    nearest_2000um = int(np.argmin(np.abs(result.lengths - 2e-3)))
    return {
        "doubling_ratio_1000um": result.doubling_ratio(1e-3),
        "mutual_doubling_ratio_1000um": result.mutual_doubling_ratio(1e-3),
        "per_length_slope_growth": result.per_length_slope_growth,
        "self_l_2000um_nh": to_nH(float(
            result.self_inductance[nearest_2000um]
        )),
    }


def _render_scaling(m: Dict[str, object]) -> str:
    return "\n".join([
        "Super-linear inductance length scaling (Sec. V)",
        f"  L(2000um)/L(1000um) = {m['doubling_ratio_1000um']:.3f} "
        "(paper: about 2.2)",
        f"  mutual doubling ratio = {m['mutual_doubling_ratio_1000um']:.3f}",
        f"  per-length slope growth = {m['per_length_slope_growth']:.3f}",
    ])


register(Scenario(
    name="length-scaling",
    figure="sec5",
    description="Sec. V: super-linear L(length) doubling ratios",
    defaults={
        "WIDTH": 5e-6,
        "THICKNESS": 2e-6,
        "PITCH": 1e-5,
    },
    run=_run_scaling,
    render=_render_scaling,
))


# ----------------------------------------------------------------------
# Sec. III: table accuracy and speedup
# ----------------------------------------------------------------------
def _run_accuracy(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.experiments import run_table_accuracy

    result = run_table_accuracy(frequency=params["FREQUENCY"])
    probes: Dict[str, object] = {}
    for probe in result.probes:
        key = f"w{probe.width * 1e6:g}_l{probe.length * 1e6:g}"
        probes[key] = {
            "width_um": probe.width * 1e6,
            "length_um": probe.length * 1e6,
            "table_nh": to_nH(probe.table_inductance),
            "direct_nh": to_nH(probe.direct_inductance),
            "error_percent": probe.relative_error * 100.0,
            "speedup": probe.speedup,
        }
    return {
        "characterization_seconds": result.characterization_time,
        "max_error_percent": result.max_error * 100.0,
        "mean_error_percent": result.mean_error * 100.0,
        "mean_speedup": result.mean_speedup,
        "probes": probes,
    }


def _render_accuracy(m: Dict[str, object]) -> str:
    lines = [
        "Table-based extraction accuracy and speed (Sec. III)",
        f"  characterization time: {m['characterization_seconds']:.2f} s",
        f"  {'width [um]':>11} {'length [um]':>12} {'table [nH]':>11} "
        f"{'direct [nH]':>12} {'error':>8} {'speedup':>9}",
    ]
    for probe in m.get("probes", {}).values():
        lines.append(
            f"  {probe['width_um']:11.1f} {probe['length_um']:12.0f} "
            f"{probe['table_nh']:11.4f} {probe['direct_nh']:12.4f} "
            f"{probe['error_percent']:7.2f}% {probe['speedup']:8.0f}x"
        )
    return "\n".join(lines)


register(Scenario(
    name="table-accuracy",
    figure="sec3",
    description="Sec. III: table interpolation accuracy + lookup speedup",
    defaults={"FREQUENCY": 3.2e9},
    run=_run_accuracy,
    render=_render_accuracy,
))


# ----------------------------------------------------------------------
# Sec. V: H-tree skew RC vs RLC (the > 10 % claim)
# ----------------------------------------------------------------------
def _run_htree_skew(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.experiments import run_htree_skew
    from repro.experiments.htree_skew import default_htree

    htree = default_htree(
        levels=params["LEVELS"],
        root_length=params["TOTAL_LENGTH"],
        asymmetry=params["ASYMMETRY"],
    )
    result = run_htree_skew(
        htree=htree,
        t_stop=params["T_STOP"],
        dt=params["DT"],
        library=params["LIBRARY"] or None,
    )
    if session is not None:
        session.add_simulation(result.comparison.simulation_reports())
    return {
        "num_sinks": result.htree.num_sinks,
        "num_levels": result.htree.num_levels,
        "skew_rc_ps": to_ps(result.rc_skew),
        "skew_rlc_ps": to_ps(result.rlc_skew),
        "skew_discrepancy_percent": result.skew_discrepancy_percent,
        "delay_discrepancy_percent": result.delay_discrepancy_percent,
    }


def _render_htree_skew(m: Dict[str, object]) -> str:
    return "\n".join([
        "H-tree clock skew, RC-only vs RLC netlist (Sec. V)",
        f"  sinks: {m['num_sinks']}, levels: {m['num_levels']}",
        f"  skew RC  = {m['skew_rc_ps']:7.2f} ps",
        f"  skew RLC = {m['skew_rlc_ps']:7.2f} ps",
        f"  skew discrepancy  = {m['skew_discrepancy_percent']:5.1f} % "
        "(paper: can exceed 10 %)",
        f"  delay discrepancy = {m['delay_discrepancy_percent']:5.1f} %",
    ])


register(Scenario(
    name="htree-skew",
    figure="sec5",
    description="Sec. V: asymmetric H-tree clock skew RC vs RLC",
    defaults={
        "LEVELS": 2,
        "TOTAL_LENGTH": 4e-3,
        "ASYMMETRY": 1.5,
        "T_STOP": 3e-9,
        "DT": 5e-13,
        "LIBRARY": "",
    },
    run=_run_htree_skew,
    render=_render_htree_skew,
))


# ----------------------------------------------------------------------
# Sec. V: process variation -- statistical RC, nominal L
# ----------------------------------------------------------------------
def _run_variation(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.experiments import run_process_variation

    result = run_process_variation(
        n_rc_samples=params["N_RC_SAMPLES"],
        n_l_samples=params["N_L_SAMPLES"],
        length=params["LENGTH"],
        frequency=params["FREQUENCY"],
        seed=params["SEED"],
    )
    return {
        "r_spread_percent": result.r_spread * 100.0,
        "c_spread_percent": result.c_spread * 100.0,
        "l_spread_percent": result.l_spread * 100.0,
        "l_insensitivity_factor": result.l_insensitivity_factor,
    }


def _render_variation(m: Dict[str, object]) -> str:
    return "\n".join([
        "Process variation: statistical RC vs nominal L (Sec. V)",
        f"  R spread (sigma/mean) = {m['r_spread_percent']:5.2f} %",
        f"  C spread (sigma/mean) = {m['c_spread_percent']:5.2f} %",
        f"  L spread (sigma/mean) = {m['l_spread_percent']:5.2f} %",
        f"  L is {m['l_insensitivity_factor']:.1f}x steadier than R/C "
        "-- nominal-L + statistical-RC is justified",
    ])


register(Scenario(
    name="process-variation",
    figure="sec5",
    description="Sec. V: R/C/L spread under process variation",
    defaults={
        "N_RC_SAMPLES": 200,
        "N_L_SAMPLES": 25,
        "LENGTH": 2e-3,
        "FREQUENCY": 3.2e9,
        "SEED": 7,
    },
    run=_run_variation,
    render=_render_variation,
))
