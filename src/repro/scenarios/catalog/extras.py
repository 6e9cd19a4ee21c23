"""Scenarios promoted from the examples: workloads beyond the figures.

``bus-crosstalk`` is the aggressor/victim noise study the
``examples/bus_crosstalk.py`` script runs; ``variation-skew`` is the
paper's ref-[4] setup -- Monte-Carlo statistical RC with nominal L
propagated to a clock-skew distribution -- previously reachable only
from ``examples/process_variation_study``.  Registering them makes both
reproducible, provenance-stamped ledger runs instead of stdout-only
scripts.
"""

from __future__ import annotations

from typing import Dict

from repro.constants import to_ps
from repro.scenarios.registry import register
from repro.scenarios.spec import Scenario


# ----------------------------------------------------------------------
# wide-bus aggressor/victim crosstalk
# ----------------------------------------------------------------------
def _run_bus_crosstalk(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.bus import BusRLCExtractor, crosstalk_analysis
    from repro.geometry.trace import TraceBlock
    from repro.rc.capacitance import CapacitanceModel

    n = int(params["N_TRACES"])
    block = TraceBlock.from_widths_and_spacings(
        widths=[params["WIDTH"]] * n,
        spacings=[params["SPACING"]] * (n - 1),
        length=params["LENGTH"],
        thickness=params["THICKNESS"],
    )
    extractor = BusRLCExtractor(
        frequency=params["FREQUENCY"],
        capacitance_model=CapacitanceModel(
            height_below=params["HEIGHT_BELOW"]),
    )
    bus = extractor.extract(block)
    aggressor = f"T{(n + 1) // 2}"
    full = crosstalk_analysis(extractor, bus, aggressor=aggressor)
    cap_only = crosstalk_analysis(extractor, bus, aggressor=aggressor,
                                  include_mutual=False)
    victims: Dict[str, object] = {}
    worst_full = 0.0
    for victim in sorted(full.victim_noise_peak):
        full_mv = full.noise_of(victim) * 1e3
        cap_mv = cap_only.noise_of(victim) * 1e3
        victims[victim] = {"full_mv": full_mv, "cap_only_mv": cap_mv}
        worst_full = max(worst_full, full_mv)
    return {
        "aggressor": aggressor,
        "n_traces": n,
        "worst_victim_noise_mv": worst_full,
        "victims": victims,
    }


def _render_bus_crosstalk(m: Dict[str, object]) -> str:
    lines = [
        f"{m['n_traces']}-trace bus crosstalk, aggressor {m['aggressor']} "
        "(outer traces are shields)",
        f"  {'victim':>7} {'full RLC':>12} {'cap-only':>12}",
    ]
    for victim in sorted(m.get("victims", {})):
        noise = m["victims"][victim]
        lines.append(f"  {victim:>7} {noise['full_mv']:9.1f} mV "
                     f"{noise['cap_only_mv']:9.1f} mV")
    lines.append("  inductive coupling is long-range: far victims lose most")
    lines.append("  of their noise when the mutual inductances are dropped.")
    return "\n".join(lines)


register(Scenario(
    name="bus-crosstalk",
    figure="extra",
    description="Wide-bus aggressor/victim noise, full RLC vs cap-only",
    defaults={
        "N_TRACES": 7,
        "WIDTH": 2e-6,
        "SPACING": 2e-6,
        "LENGTH": 2e-3,
        "THICKNESS": 1e-6,
        "HEIGHT_BELOW": 2e-6,
        "FREQUENCY": 6.4e9,
    },
    run=_run_bus_crosstalk,
    render=_render_bus_crosstalk,
))


# ----------------------------------------------------------------------
# Monte-Carlo skew: statistical RC x nominal L (paper ref [4] setup)
# ----------------------------------------------------------------------
def _run_variation_skew(params: Dict[str, object], session) -> Dict[str, object]:
    from repro.experiments import run_variation_skew

    result = run_variation_skew(
        n_samples=params["N_SAMPLES"],
        seed=params["SEED"],
    )
    return {
        "n_samples": int(params["N_SAMPLES"]),
        "nominal_skew_ps": to_ps(result.nominal_skew),
        "worst_skew_ps": to_ps(result.worst_skew),
        "skew_spread": result.skew_spread,
        "delay_spread": result.delay_spread,
    }


def _render_variation_skew(m: Dict[str, object]) -> str:
    return "\n".join([
        "Monte-Carlo skew: statistical RC x nominal L (Sec. V, ref [4])",
        f"  samples: {m['n_samples']}",
        f"  nominal skew = {m['nominal_skew_ps']:7.2f} ps",
        f"  worst skew   = {m['worst_skew_ps']:7.2f} ps",
        f"  skew spread (sigma/mean)  = {m['skew_spread'] * 100.0:5.2f} %",
        f"  delay spread (sigma/mean) = {m['delay_spread'] * 100.0:5.2f} %",
    ])


register(Scenario(
    name="variation-skew",
    figure="extra",
    description="Monte-Carlo clock-skew distribution: statistical RC, nominal L",
    defaults={"N_SAMPLES": 15, "SEED": 11},
    run=_run_variation_skew,
    render=_render_variation_skew,
))
