"""Clock skew simulation and the RC-vs-RLC comparison (Sec. V).

The paper's motivating numbers: on the Fig. 1 co-planar waveguide the
buffer-to-sink delay is 28.01 ps without inductance and 47.6 ps with it,
and the clock-skew error from omitting inductance exceeds 10 %.  These
helpers run both netlists, measure arrivals at every sink and quantify
the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.circuit.lint import NetlistHealthReport
from repro.circuit.transient import TransientResult, transient_analysis
from repro.circuit.waveform import skew
from repro.clocktree.extractor import ClocktreeNetlist, ClocktreeRLCExtractor
from repro.clocktree.htree import HTree
from repro.errors import CircuitError


@dataclass
class SkewResult:
    """Arrival times and skew of one clocktree simulation."""

    arrivals: Dict[str, float]
    source_crossing: float
    result: TransientResult
    sink_nodes: Dict[str, str] = field(default_factory=dict)
    #: Health report of the simulated netlist (None when linting was
    #: disabled on both the netlist build and the simulate call).
    health: Optional[NetlistHealthReport] = None

    def simulation_report(self) -> Dict[str, Any]:
        """Serializable diagnostics + health summary for RunReport v3."""
        report: Dict[str, Any] = {}
        if self.result.diagnostics is not None:
            report["diagnostics"] = self.result.diagnostics.to_dict()
        if self.health is not None:
            report["netlist_health"] = self.health.to_dict()
        return report

    @property
    def skew(self) -> float:
        """Max minus min sink arrival [s]."""
        return skew(self.arrivals)

    @property
    def delays(self) -> Dict[str, float]:
        """Source-to-sink insertion delays [s]."""
        return {
            name: t - self.source_crossing for name, t in self.arrivals.items()
        }

    @property
    def max_delay(self) -> float:
        """Largest insertion delay [s]."""
        return max(self.delays.values())


def simulate_clocktree(
    netlists: Sequence[ClocktreeNetlist],
    supply: float,
    t_stop: float,
    dt: float,
    threshold_fraction: float = 0.5,
    lint: bool = True,
    diagnostics: bool = True,
) -> List[SkewResult]:
    """Transient-simulate clocktree netlists and measure sink arrivals.

    All *netlists* run as one :func:`transient_analysis` batch on the
    same time grid; one :class:`SkewResult` per netlist comes back, in
    order.  Every netlist is checked for sinks before any step runs.

    Arrival is the first crossing of ``threshold_fraction * supply`` at
    each sink; the reference crossing is taken at the root driver node.

    Unless disabled, the netlist health report (cached from the build,
    or computed here) and the per-run :class:`TransientDiagnostics` ride
    along on each :class:`SkewResult`, so every skew number is traceable
    to the integration quality that produced it.
    """
    if isinstance(netlists, ClocktreeNetlist):
        raise CircuitError(
            "simulate_clocktree takes a sequence of netlists; "
            "pass [netlist] for a single one"
        )
    netlists = list(netlists)
    for netlist in netlists:
        if not netlist.sink_nodes:
            raise CircuitError(
                f"netlist {netlist.circuit.title!r} has no sinks"
            )
    healths = [
        netlist.lint() if (lint or netlist.health is not None) else None
        for netlist in netlists
    ]
    results = transient_analysis(
        [netlist.circuit for netlist in netlists],
        t_stop=t_stop, dt=dt, diagnostics=diagnostics,
    )
    level = threshold_fraction * supply
    return [
        _measure_arrivals(netlist, result, health, level)
        for netlist, result, health in zip(netlists, results, healths)
    ]


def _measure_arrivals(
    netlist: ClocktreeNetlist,
    result: TransientResult,
    health: Optional[NetlistHealthReport],
    level: float,
) -> SkewResult:
    """Threshold crossings of the root and every sink of one netlist."""
    root_wave = result.voltage(netlist.root_node)
    source_crossing = root_wave.threshold_crossing(level)
    if source_crossing is None:
        raise CircuitError(
            "root never crosses threshold; extend t_stop or check drive"
        )
    arrivals: Dict[str, float] = {}
    for sink, node in netlist.sink_nodes.items():
        crossing = result.voltage(node).threshold_crossing(level)
        if crossing is None:
            raise CircuitError(
                f"sink {sink!r} never crosses threshold; extend t_stop"
            )
        arrivals[sink] = crossing
    return SkewResult(
        arrivals=arrivals,
        source_crossing=source_crossing,
        result=result,
        sink_nodes=dict(netlist.sink_nodes),
        health=health,
    )


@dataclass
class SkewComparison:
    """RC-only vs RLC clocktree metrics."""

    rc: SkewResult
    rlc: SkewResult

    @property
    def delay_discrepancy(self) -> float:
        """Relative max-delay error of the RC netlist vs the RLC one."""
        rc_delay = self.rc.max_delay
        rlc_delay = self.rlc.max_delay
        return abs(rlc_delay - rc_delay) / rlc_delay

    @property
    def skew_discrepancy(self) -> float:
        """Relative skew error of the RC netlist vs the RLC one."""
        rlc_skew = self.rlc.skew
        if rlc_skew == 0.0:
            return 0.0 if self.rc.skew == 0.0 else float("inf")
        return abs(self.rlc.skew - self.rc.skew) / rlc_skew

    def simulation_reports(self) -> Dict[str, Any]:
        """Per-netlist diagnostics/health dicts for RunReport v3."""
        return {"rc": self.rc.simulation_report(),
                "rlc": self.rlc.simulation_report()}


def compare_rc_vs_rlc(
    extractor: ClocktreeRLCExtractor,
    htree: HTree,
    t_stop: float,
    dt: float,
    threshold_fraction: float = 0.5,
) -> SkewComparison:
    """Extract, formulate and simulate both netlists of one H-tree.

    The RC and RLC netlists run as one transient batch.
    """
    netlists = [extractor.build_netlist(htree, include_inductance=False),
                extractor.build_netlist(htree, include_inductance=True)]
    rc, rlc = simulate_clocktree(netlists, htree.buffer.supply, t_stop, dt,
                                 threshold_fraction)
    return SkewComparison(rc=rc, rlc=rlc)
