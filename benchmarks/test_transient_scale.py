"""Chip-scale transient economics of the sparse MNA path.

Every analysis factors the CSC system with ``splu``: a dense MNA matrix
stops being *feasible* a few thousand unknowns in (10^5 squared doubles
is 80 GB before the first flop), while an extracted clocktree's matrix
holds a handful of entries per row.  These benchmarks measure the
transient throughput on constant-RLC H-tree netlists and record it into
``BENCH_transient.latest.json`` at the repo root (gitignored).  The
committed ``BENCH_transient.json`` is the reference record: a run never
rewrites it, and ``repro diff bench BENCH_transient.json
BENCH_transient.latest.json`` compares a fresh run against it.

1. **Sparse throughput** (CI): steps/sec on a ~12.5k-unknown tree.
2. **Chip scale** (``-m slow``): a >= 10^5-unknown H-tree integrated
   200 steps in single-digit seconds.

The netlists come from the *real* extraction flow -- the segment RLC
hook is overridden with constant per-length values so no field solves
run and the benchmark times the circuit layer alone.
"""

import time
from pathlib import Path

import pytest
from conftest import report

from repro.circuit.transient import transient_analysis
from repro.clocktree.buffers import ClockBuffer
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor, SegmentRLC
from repro.clocktree.htree import HTree
from repro.constants import GHz, fF, ps, um
from repro.quality.regress import record_bench

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_transient.latest.json"
)

#: 200 steps, the paper-style skew-simulation horizon.
CHIP_STEPS = 200


class ConstantRLCExtractor(ClocktreeRLCExtractor):
    """Extraction flow with fixed per-length RLC (no field solves).

    Values are in the ballpark of the paper's coplanar waveguide
    (25 ohm/mm, 0.5 nH/mm, 0.1 pF/mm) -- the netlist topology and
    matrix structure are real, only the table lookups are shorted out.
    """

    def segment_rlc_for(self, segment):
        mm = segment.length / 1e-3
        return SegmentRLC(
            length=segment.length,
            resistance=25.0 * mm,
            inductance=0.5e-9 * mm,
            capacitance=0.1e-12 * mm,
        )


def _assembled(levels: int, sections: int):
    """Assembled RLC netlist of a *levels*-deep H-tree."""
    config = CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )
    buffer = ClockBuffer(
        drive_resistance=15.0, input_capacitance=fF(30),
        supply=1.8, rise_time=ps(50),
    )
    htree = HTree.generate(
        levels=levels, root_length=um(4000), config=config,
        buffer=buffer, sink_capacitance=fF(50),
    )
    extractor = ConstantRLCExtractor(config, frequency=GHz(6.4))
    netlist = extractor.build_netlist(
        htree, include_inductance=True, sections=sections, lint=False,
    )
    return netlist.circuit.assemble()


def _time_transient(assembled, steps: int) -> float:
    t0 = time.perf_counter()
    transient_analysis(
        [assembled], t_stop=ps(1) * steps, dt=ps(1), diagnostics=False,
    )
    return time.perf_counter() - t0


def _record(update: dict) -> dict:
    return record_bench(RESULTS_PATH, update)


def test_sparse_throughput_ci_scale():
    """Sparse steps/sec on a tree far beyond where dense LU is sensible."""
    assembled = _assembled(7, 16)
    seconds = _time_transient(assembled, CHIP_STEPS)
    steps_per_second = CHIP_STEPS / seconds
    report(
        f"sparse transient at {assembled.size} unknowns",
        [
            ["unknowns", str(assembled.size)],
            ["structural nnz", str(assembled.stamps.nnz)],
            [f"{CHIP_STEPS} steps", f"{seconds:.3f} s"],
            ["throughput", f"{steps_per_second:.0f} steps/s"],
        ],
    )
    _record({"scale_ci": {
        "unknowns": assembled.size,
        "nnz": assembled.stamps.nnz,
        "steps": CHIP_STEPS,
        "seconds": round(seconds, 4),
        "steps_per_second": round(steps_per_second, 1),
    }})
    assert steps_per_second > 20.0, (
        f"sparse transient crawled: {steps_per_second:.1f} steps/s "
        f"at {assembled.size} unknowns"
    )


@pytest.mark.slow
def test_chip_scale_transient():
    """>= 10^5 unknowns, 200 steps, single-digit seconds via sparse."""
    assembled = _assembled(10, 16)
    assert assembled.size >= 100_000
    seconds = _time_transient(assembled, CHIP_STEPS)
    steps_per_second = CHIP_STEPS / seconds
    report(
        f"chip-scale sparse transient ({assembled.size} unknowns)",
        [
            ["unknowns", str(assembled.size)],
            ["structural nnz", str(assembled.stamps.nnz)],
            [f"{CHIP_STEPS} steps", f"{seconds:.2f} s"],
            ["throughput", f"{steps_per_second:.0f} steps/s"],
        ],
    )
    _record({"chip": {
        "unknowns": assembled.size,
        "nnz": assembled.stamps.nnz,
        "steps": CHIP_STEPS,
        "seconds": round(seconds, 3),
        "steps_per_second": round(steps_per_second, 1),
    }})
    assert seconds < 30.0, (
        f"chip-scale transient took {seconds:.1f} s; the sparse path "
        f"must keep 10^5 unknowns in interactive territory"
    )
