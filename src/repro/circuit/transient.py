"""Transient analysis with trapezoidal or backward-Euler integration.

The MNA system ``G x + C x' = b(t)`` is integrated on a fixed step:

* trapezoidal (default, SPICE's workhorse -- second order, A-stable,
  preserves the ringing the paper's RLC netlists exhibit), or
* backward Euler (first order, adds numerical damping; useful to confirm
  a suspected numerical oscillation is physical).

The step matrix is factorized once and reused for every step.

Observability (PR 5): every run executes under a ``circuit.transient``
span (matrix size, step count, factorization time) and -- unless
``diagnostics=False`` -- attaches a
:class:`~repro.circuit.diagnostics.TransientDiagnostics` to the result:
step-doubling LTE estimate, energy-balance residual, dt adequacy vs the
significant frequency, and start-up provenance.  When ``t_stop / dt``
is not an integer the step is *snapped* (``dt = t_stop / ceil(...)``)
with a warning and a ``circuit_dt_snapped`` counter tick so the time
grid is guaranteed to land exactly on ``t_stop``.
"""

from __future__ import annotations

import time as _time
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy.sparse.linalg import lsqr

from repro.circuit.backend import factorize, gmin_loaded
from repro.circuit.diagnostics import (
    LTE_SUBSAMPLE_PROBES,
    LTE_SUBSAMPLE_SIZE,
    TransientDiagnostics,
    dt_adequacy,
    energy_balance,
    estimate_local_truncation_error,
)
from repro.circuit.netlist import AssembledCircuit, Circuit
from repro.circuit.waveform import Waveform
from repro.errors import CircuitError, SolverError
from repro.telemetry.registry import (
    DC_START_FALLBACK,
    FACTOR_SECONDS,
    LTE_SUBSAMPLED,
    SINGULAR_SYSTEM,
    TRANSIENT_DT_SNAPPED,
    TRANSIENT_STEPS,
    get_registry,
)
from repro.telemetry.spans import span

#: Relative tolerance under which ``t_stop / dt`` counts as an integer
#: (floating-point noise, not a mis-sized grid).
_STEP_SNAP_RTOL = 1e-9

#: LSQR iteration budget of the singular DC start, per unknown.  In
#: exact arithmetic LSQR ends within rank(G) <= size steps; the slack
#: covers the loss of orthogonality in floating point.
_LSQR_ITERATIONS_PER_UNKNOWN = 4


@dataclass
class TransientResult:
    """Node voltages and branch currents over time."""

    time: np.ndarray
    node_voltages: Dict[str, np.ndarray]
    branch_currents: Dict[str, np.ndarray]
    #: Per-run self-diagnosis (None when ``diagnostics=False``).
    diagnostics: Optional[TransientDiagnostics] = None

    def voltage(self, node: str) -> Waveform:
        """Voltage waveform at *node*."""
        try:
            return Waveform(self.time, self.node_voltages[node])
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def current(self, element: str) -> Waveform:
        """Current waveform through a branch element."""
        try:
            return Waveform(self.time, self.branch_currents[element])
        except KeyError:
            raise CircuitError(f"element {element!r} has no branch current") from None


def _snap_steps(t_stop: float, dt: float) -> Tuple[int, float, bool]:
    """Step count and effective dt whose grid ends exactly on t_stop."""
    exact = t_stop / dt
    rounded = round(exact)
    if rounded >= 1 and abs(exact - rounded) <= _STEP_SNAP_RTOL * rounded:
        return int(rounded), t_stop / rounded, False
    n_steps = int(np.ceil(exact))
    snapped = t_stop / n_steps
    get_registry().inc(TRANSIENT_DT_SNAPPED)
    warnings.warn(
        f"t_stop/dt is not an integer; dt snapped {dt:.6e} -> "
        f"{snapped:.6e} s ({n_steps} steps) so time[-1] == t_stop",
        stacklevel=3,
    )
    return n_steps, snapped, True


def transient_analysis(
    circuit: Union[Circuit, AssembledCircuit],
    t_stop: float,
    dt: float,
    method: str = "trapezoidal",
    initial: str = "dc",
    diagnostics: bool = True,
    lte_probes: int = 16,
) -> TransientResult:
    """Integrate the circuit from 0 to *t_stop* with fixed step *dt*.

    Parameters
    ----------
    method:
        ``"trapezoidal"`` or ``"backward_euler"``.
    initial:
        ``"dc"`` starts from the operating point with sources at t = 0
        (the usual SPICE behaviour); ``"zero"`` starts from explicit
        initial conditions (or all-zero state).
    diagnostics:
        Attach a :class:`TransientDiagnostics` (LTE estimate, energy
        residual, dt adequacy) to the result.  Costs one extra
        half-step factorization plus ``2 * lte_probes`` solves and a
        vectorized energy pass; disable for tight inner loops.  At
        chip scale (``size > LTE_SUBSAMPLE_SIZE``) the probe count is
        capped at :data:`LTE_SUBSAMPLE_PROBES`.
    lte_probes:
        Steps probed by the step-doubling LTE estimate.
    """
    if t_stop <= 0.0 or dt <= 0.0:
        raise CircuitError("t_stop and dt must be positive")
    if dt >= t_stop:
        raise CircuitError("dt must be smaller than t_stop")
    if method not in ("trapezoidal", "backward_euler"):
        raise CircuitError(f"unknown method {method!r}")
    if initial not in ("dc", "zero"):
        raise CircuitError(f"unknown initial condition mode {initial!r}")

    assembled = circuit.assemble() if isinstance(circuit, Circuit) else circuit
    g, c = assembled.stamps.g_csc(), assembled.stamps.c_csc()
    registry = get_registry()

    requested_dt = dt
    n_steps, dt, dt_snapped = _snap_steps(t_stop, dt)
    # linspace pins the final sample to t_stop exactly (arange drifts).
    time = np.linspace(0.0, t_stop, n_steps + 1)

    with span(
        "circuit.transient",
        size=assembled.size,
        steps=n_steps,
        dt=dt,
        method=method,
    ) as sp:
        registry.inc(TRANSIENT_STEPS, n_steps)
        x = np.empty((n_steps + 1, assembled.size))
        dc_fallback = False
        if initial == "dc":
            x[0], dc_fallback = _dc_start(assembled, g)
        else:
            x[0] = assembled.initial_state()

        if method == "trapezoidal":
            lhs = 2.0 * c / dt + g
            rhs_matrix = 2.0 * c / dt - g
        else:
            lhs = c / dt + g
            rhs_matrix = c / dt
        # CSR mat-vec is the per-step hot operation.
        rhs_matrix = rhs_matrix.tocsr()

        t0 = _time.perf_counter()
        try:
            lu = factorize(lhs)
        except SolverError as exc:
            registry.inc(SINGULAR_SYSTEM)
            raise SolverError(f"singular transient step matrix: {exc}") from exc
        factor_seconds = _time.perf_counter() - t0
        registry.observe(FACTOR_SECONDS, factor_seconds)
        if sp is not None:
            sp.tags["factor_seconds"] = factor_seconds

        b_prev = assembled.stamps.source_vector(0.0)
        for k in range(n_steps):
            t_next = time[k + 1]
            b_next = assembled.stamps.source_vector(t_next)
            if method == "trapezoidal":
                rhs = rhs_matrix @ x[k] + b_prev + b_next
            else:
                rhs = rhs_matrix @ x[k] + b_next
            x[k + 1] = lu.solve(rhs)
            b_prev = b_next

        node_voltages = {"0": np.zeros(n_steps + 1)}
        for node, idx in assembled.node_index.items():
            if idx >= 0:
                node_voltages[node] = x[:, idx]
        branch_currents = {
            name: x[:, assembled.num_nodes + i]
            for i, name in enumerate(assembled.branch_names)
        }

        diag: Optional[TransientDiagnostics] = None
        if diagnostics:
            effective_probes = lte_probes
            if (
                assembled.size > LTE_SUBSAMPLE_SIZE
                and lte_probes > LTE_SUBSAMPLE_PROBES
            ):
                effective_probes = LTE_SUBSAMPLE_PROBES
                registry.inc(LTE_SUBSAMPLED)
            with span("circuit.diagnostics", probes=effective_probes):
                diag = _run_diagnostics(
                    assembled, x, time, dt, requested_dt, dt_snapped,
                    method, factor_seconds, dc_fallback, effective_probes,
                )

    return TransientResult(
        time=time,
        node_voltages=node_voltages,
        branch_currents=branch_currents,
        diagnostics=diag,
    )


def _run_diagnostics(
    assembled: AssembledCircuit,
    x: np.ndarray,
    time: np.ndarray,
    dt: float,
    requested_dt: float,
    dt_snapped: bool,
    method: str,
    factor_seconds: float,
    dc_fallback: bool,
    lte_probes: int,
) -> TransientDiagnostics:
    lte = estimate_local_truncation_error(
        assembled, x, time, dt, method, max_probes=lte_probes
    )
    energy = energy_balance(assembled.circuit, assembled, x, time)
    adequacy = dt_adequacy(assembled.circuit, dt)
    return TransientDiagnostics(
        method=method,
        dt=dt,
        requested_dt=requested_dt,
        dt_snapped=dt_snapped,
        t_stop=float(time[-1]),
        steps=len(time) - 1,
        matrix_size=assembled.size,
        num_nodes=assembled.num_nodes,
        num_branches=len(assembled.branch_names),
        factor_seconds=factor_seconds,
        dc_start_fallback=dc_fallback,
        lte_max=lte["max"],
        lte_p95=lte["p95"],
        lte_probes=lte["probes"],
        energy_input=energy["input"],
        energy_dissipated=energy["dissipated"],
        energy_stored_delta=energy["stored_delta"],
        energy_residual=energy["residual"],
        significant_frequency=adequacy["frequency"],
        steps_per_significant_period=adequacy["steps_per_period"],
        dt_adequate=adequacy["adequate"],
    )


def _dc_start(assembled: AssembledCircuit, g) -> Tuple[np.ndarray, bool]:
    """Operating-point start vector plus whether the fallback was taken.

    Inductor loops (an inductor directly across a voltage source, or two
    coupled inductors in a loop) make the DC system singular -- the loop
    current is genuinely undetermined at DC.  The minimum-norm
    least-squares solution (zero circulating current) is the physical
    start for a transient, so it is used as the fallback (ticking
    ``circuit_dc_start_fallback``).  LSQR from a zero start converges to
    that minimum-norm solution; its default 1e-6 stopping tolerances can
    stop it far short of it (100 % off on a milliohm-fed pair of
    parallel inductors), so they and its condition-number stop are
    disabled and only the iteration count bounds the run.
    """
    g = gmin_loaded(g, assembled.num_nodes, 1e-12)
    b = assembled.stamps.source_vector(0.0)
    try:
        return factorize(g).solve(b), False
    except SolverError:
        get_registry().inc(DC_START_FALLBACK)
        solution = lsqr(
            g, b, atol=0.0, btol=0.0, conlim=0.0,
            iter_lim=_LSQR_ITERATIONS_PER_UNKNOWN * assembled.size,
        )[0]
        residual = g @ solution - b
        if np.max(np.abs(residual)) > 1e-9 * max(1.0, np.max(np.abs(b))):
            get_registry().inc(SINGULAR_SYSTEM)
            raise SolverError(
                "inconsistent DC initialization (conflicting sources)"
            )
        return solution, True
