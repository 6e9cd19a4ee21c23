"""Sec. V: clock skew error when inductance is omitted (> 10 % claim).

An asymmetric buffered H-tree (one branch deliberately longer, as
happens with blockage-driven routing) is extracted twice -- RC-only and
full RLC -- and simulated.  The paper states the skew difference without
inductance "can be more than 10 %"; this experiment measures the skew
and per-sink delay discrepancies between the two netlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.clocktree.buffers import ClockBuffer
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor
from repro.clocktree.htree import HTree
from repro.clocktree.skew import SkewComparison, compare_rc_vs_rlc
from repro.constants import fF, ps, um
from repro.core.frequency import significant_frequency


@dataclass
class HTreeSkewResult:
    """RC vs RLC skew metrics for one H-tree."""

    comparison: SkewComparison
    htree: HTree

    @property
    def rc_skew(self) -> float:
        """Skew of the RC-only netlist [s]."""
        return self.comparison.rc.skew

    @property
    def rlc_skew(self) -> float:
        """Skew of the full RLC netlist [s]."""
        return self.comparison.rlc.skew

    @property
    def skew_discrepancy_percent(self) -> float:
        """Relative skew error of RC vs RLC [%]."""
        return self.comparison.skew_discrepancy * 100.0

    @property
    def delay_discrepancy_percent(self) -> float:
        """Relative max-delay error of RC vs RLC [%]."""
        return self.comparison.delay_discrepancy * 100.0


def default_htree(
    levels: int = 2,
    root_length: float = um(4000),
    asymmetry: float = 1.5,
) -> HTree:
    """A small buffered H-tree with one stretched branch.

    The ``s_LL`` branch is *asymmetry* times longer than its mirror, the
    kind of imbalance floorplan obstructions force.  Buffers use the
    strong-driver regime (15 ohm, 50 ps edges) where the line's ~27 ohm
    characteristic impedance makes inductance matter -- see the
    calibration note in :mod:`repro.experiments.fig1_delay`.
    """
    config = CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )
    buffer = ClockBuffer(
        drive_resistance=15.0, input_capacitance=fF(30),
        supply=1.8, rise_time=ps(50),
    )
    return HTree.generate(
        levels=levels,
        root_length=root_length,
        config=config,
        buffer=buffer,
        sink_capacitance=fF(50),
        branch_scale={"s_LL": asymmetry},
    )


def run_htree_skew(
    htree: Optional[HTree] = None,
    extractor: Optional[ClocktreeRLCExtractor] = None,
    t_stop: float = ps(3000),
    dt: float = ps(0.5),
    library: Optional[Union[str, Path, object]] = None,
) -> HTreeSkewResult:
    """Extract and simulate the skew comparison on an H-tree.

    When *library* names a characterization library
    (:class:`~repro.library.store.TableLibrary` or its root path) the
    default extractor pulls its loop-L/R and capacitance tables from it;
    on a warm library the whole experiment runs without a single
    field-solver call.
    """
    if htree is None:
        htree = default_htree()
    if extractor is None:
        extractor = ClocktreeRLCExtractor(
            htree.config,
            frequency=significant_frequency(htree.buffer.rise_time),
            library=library,
        )
    comparison = compare_rc_vs_rlc(extractor, htree, t_stop=t_stop, dt=dt)
    return HTreeSkewResult(comparison=comparison, htree=htree)
