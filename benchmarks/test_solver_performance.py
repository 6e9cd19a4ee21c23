"""Raw performance of the extraction substrate (repeated-timing benches).

Unlike the reproduction benches (one-shot experiments), these time the
hot kernels the way pytest-benchmark intends -- many rounds -- so
regressions in the vectorized Hoer-Love assembly, the loop solve or the
spline lookup show up.
"""

import numpy as np
import pytest

from repro.constants import GHz, um
from repro.geometry.primitives import Point3D, RectBar
from repro.geometry.trace import TraceBlock
from repro.peec.loop import LoopProblem
from repro.peec.solver import assemble_partial_inductance_matrix
from repro.tables.lookup import ExtractionTable


def make_bars(n):
    return [
        RectBar(Point3D(0, um(4 * i), 0), um(1000), um(2), um(1))
        for i in range(n)
    ]


def test_lp_matrix_assembly_100_bars(benchmark):
    bars = make_bars(100)
    matrix = benchmark(assemble_partial_inductance_matrix, bars)
    assert matrix.shape == (100, 100)
    assert np.all(np.diag(matrix) > 0)


def test_cpw_loop_solve(benchmark):
    block = TraceBlock.coplanar_waveguide(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        length=um(2000), thickness=um(2),
    )

    def solve():
        return LoopProblem(block, n_width=4, n_thickness=2).loop_rl(GHz(3.2))

    resistance, inductance = benchmark(solve)
    assert resistance > 0 and inductance > 0


def test_table_lookup_speed(benchmark):
    rng = np.random.default_rng(0)
    table = ExtractionTable(
        name="perf", quantity="self_inductance",
        axis_names=("width", "length"),
        axes=[np.linspace(um(2), um(20), 6), np.linspace(um(200), um(6000), 6)],
        values=rng.uniform(1e-10, 1e-9, size=(6, 6)),
    )
    value = benchmark(table.lookup, um(7.3), um(1234.0))
    assert value > 0


def test_transient_step_throughput(benchmark):
    """Time a 4000-step transient of a 60-unknown clocktree netlist."""
    from repro.circuit.transient import transient_analysis
    from repro.clocktree.configs import CoplanarWaveguideConfig
    from repro.clocktree.extractor import ClocktreeRLCExtractor
    from repro.clocktree.htree import HTree

    config = CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )
    extractor = ClocktreeRLCExtractor(config, frequency=GHz(3.2))
    htree = HTree.generate(levels=2, root_length=um(2000), config=config)
    netlist = extractor.build_netlist(htree)

    def run():
        [result] = transient_analysis([netlist.circuit], t_stop=2e-9,
                                      dt=0.5e-12)
        return result

    result = benchmark(run)
    assert result.time.size == 4001
