"""Numerical verification of the extraction Foundations (Secs. II, Fig. 5).

*Foundation 1*: the self (partial or loop) inductance of a trace depends
only on that trace's geometry -- solving the trace alone gives the same
value as solving it inside the full n-trace block.

*Foundation 2*: the mutual inductance of two traces depends only on the
pair -- a 2-trace subproblem reproduces the full-block value.

Without ground planes these hold exactly for partial inductance under
the PEEC model; with a local ground plane they hold approximately for
the *loop* inductance (the paper's extension), which
:func:`foundation1_check` / :func:`foundation2_check` quantify the same
way the paper's Fig. 5 does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.geometry.trace import TraceBlock
from repro.peec.ground_plane import GroundPlane
from repro.peec.loop import LoopProblem


@dataclass(frozen=True)
class FoundationCheck:
    """One reduction-accuracy comparison."""

    description: str
    full_value: float
    reduced_value: float

    @property
    def relative_error(self) -> float:
        """|reduced - full| / |full|."""
        if self.full_value == 0.0:
            return 0.0 if self.reduced_value == 0.0 else float("inf")
        return abs(self.reduced_value - self.full_value) / abs(self.full_value)


def _loop_problem_for(
    block: TraceBlock,
    plane: GroundPlane,
    signal_index: int,
    n_width: int,
    n_thickness: int,
) -> LoopProblem:
    return LoopProblem(
        block,
        signal=block.traces[signal_index].name,
        plane=plane,
        n_width=n_width,
        n_thickness=n_thickness,
    )


def loop_inductance_matrix(
    block: TraceBlock,
    plane: GroundPlane,
    frequency: float,
    n_width: int = 2,
    n_thickness: int = 1,
) -> np.ndarray:
    """The Fig. 5(a) matrix: loop self/mutual L of every trace over a plane.

    ``M[i][i]`` is trace i's loop inductance with the plane return;
    ``M[i][j]`` is the open-circuit mutual loop inductance from loop i to
    trace j.  All traces are treated as signals (returns in the plane).
    """
    if any(t.is_ground for t in block.traces):
        raise GeometryError("Fig. 5 arrays have no coplanar ground traces")
    n = len(block)
    matrix = np.zeros((n, n))
    names = [t.name for t in block.traces]
    for i in range(n):
        problem = _loop_problem_for(block, plane, i, n_width, n_thickness)
        solution = problem.solve(frequency)
        matrix[i, i] = solution.loop_inductance
        for j, name in enumerate(names):
            if j != i:
                matrix[i, j] = solution.mutual_loop_inductances[name]
    return 0.5 * (matrix + matrix.T)  # reciprocity holds; average noise out


def foundation1_check(
    block: TraceBlock,
    plane: GroundPlane,
    frequency: float,
    trace_index: int = 0,
    n_width: int = 2,
    n_thickness: int = 1,
) -> FoundationCheck:
    """Self loop L of one trace: alone-over-plane vs inside the full array.

    The paper's Fig. 5(b) experiment.
    """
    full = _loop_problem_for(block, plane, trace_index, n_width, n_thickness)
    full_l = full.solve(frequency).loop_inductance
    alone_block = block.subblock([trace_index])
    alone = LoopProblem(
        alone_block,
        signal=alone_block.traces[0].name,
        plane=plane,
        n_width=n_width,
        n_thickness=n_thickness,
    )
    alone_l = alone.solve(frequency).loop_inductance
    return FoundationCheck(
        description=(
            f"Foundation 1 (loop): self L of {block.traces[trace_index].name} "
            "alone vs in array"
        ),
        full_value=full_l,
        reduced_value=alone_l,
    )


def foundation2_check(
    block: TraceBlock,
    plane: GroundPlane,
    frequency: float,
    index_a: int = 0,
    index_b: int = -1,
    n_width: int = 2,
    n_thickness: int = 1,
) -> FoundationCheck:
    """Mutual loop L of a pair: 2-trace subproblem vs the full array.

    The paper's Fig. 5(c) experiment.
    """
    index_b = index_b % len(block)
    if index_a == index_b:
        raise GeometryError("need two distinct traces")
    name_b = block.traces[index_b].name
    full = _loop_problem_for(block, plane, index_a, n_width, n_thickness)
    full_m = full.solve(frequency).mutual_loop_inductances[name_b]
    pair_block = block.subblock([index_a, index_b])
    pair = LoopProblem(
        pair_block,
        signal=block.traces[index_a].name,
        plane=plane,
        n_width=n_width,
        n_thickness=n_thickness,
    )
    pair_m = pair.solve(frequency).mutual_loop_inductances[name_b]
    return FoundationCheck(
        description=(
            f"Foundation 2 (loop): mutual L of "
            f"({block.traces[index_a].name}, {name_b}) pair vs in array"
        ),
        full_value=full_m,
        reduced_value=pair_m,
    )
