"""Clocktree RLC extraction (the paper's application, Sec. V).

Parameterized H-tree generation (:mod:`repro.clocktree.htree`), the two
shielded interconnect configurations of Figs. 8/9
(:mod:`repro.clocktree.configs`), table-driven per-segment RLC extraction
and cascaded netlist formulation (:mod:`repro.clocktree.extractor`), and
clock-skew simulation with and without inductance
(:mod:`repro.clocktree.skew`).
"""

from repro.clocktree.buffers import ClockBuffer
from repro.clocktree.configs import (
    CoplanarWaveguideConfig,
    MicrostripConfig,
    StriplineConfig,
)
from repro.clocktree.delay_models import (
    damping_factor,
    elmore_delay,
    rlc_delay,
)
from repro.clocktree.extractor import ClocktreeRLCExtractor, SegmentRLC
from repro.clocktree.htree import HTree, HTreeSegment
from repro.clocktree.multilayer import MultiLayerClocktreeExtractor
from repro.clocktree.optimize import OptimizationResult, WidthOptimizer
from repro.clocktree.repeaters import RepeaterPlan, optimal_repeaters
from repro.clocktree.skew import (
    SkewComparison,
    SkewResult,
    compare_rc_vs_rlc,
    simulate_clocktree,
)

__all__ = [
    "ClockBuffer",
    "CoplanarWaveguideConfig",
    "MicrostripConfig",
    "StriplineConfig",
    "ClocktreeRLCExtractor",
    "SegmentRLC",
    "HTree",
    "HTreeSegment",
    "SkewResult",
    "SkewComparison",
    "elmore_delay",
    "rlc_delay",
    "damping_factor",
    "WidthOptimizer",
    "OptimizationResult",
    "MultiLayerClocktreeExtractor",
    "RepeaterPlan",
    "optimal_repeaters",
    "simulate_clocktree",
    "compare_rc_vs_rlc",
]
