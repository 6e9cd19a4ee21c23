"""Transient analysis with trapezoidal or backward-Euler integration.

The MNA system ``G x + C x' = b(t)`` is integrated on a fixed step:

* trapezoidal (default, SPICE's workhorse -- second order, A-stable,
  preserves the ringing the paper's RLC netlists exhibit), or
* backward Euler (first order, adds numerical damping; useful to confirm
  a suspected numerical oscillation is physical).

:func:`transient_analysis` integrates a *batch* of decks that share the
time grid and method -- the paper's RC and RLC netlists of one H-tree,
or a nominal deck plus its Monte-Carlo samples.  Their ``G`` / ``C``
stamps form one block-diagonal system, factorized once; every source is
sampled once on the grid, so a step is one CSR mat-vec, one scatter-add
of the sampled sources and one sparse solve for the whole batch.  A
step costs mostly per-call overhead at paper scale, so two decks take
little longer than one.  Each deck gets its own
:class:`TransientResult` whose arrays are column views of the shared
state history.

Observability: the shared factorization and stepping run under a
``circuit.batch`` span; each deck then gets its own ``circuit.transient``
span (its own matrix size and step count, the batch's factorization
time) and ``circuit_transient_steps`` ticks by the step count once per
deck.  Unless ``diagnostics=False`` each result carries a
:class:`~repro.circuit.diagnostics.TransientDiagnostics`:
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
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
    circuits: Sequence[Union[Circuit, AssembledCircuit]],
    t_stop: float,
    dt: float,
    method: str = "trapezoidal",
    initial: str = "dc",
    diagnostics: bool = True,
    lte_probes: int = 16,
) -> List[TransientResult]:
    """Integrate a batch of decks from 0 to *t_stop* with fixed step *dt*.

    Every deck in *circuits* shares the time grid, *method* and
    *initial*; one :class:`TransientResult` per deck comes back, in
    order.  A single deck is the batch ``[circuit]``.

    Parameters
    ----------
    method:
        ``"trapezoidal"`` or ``"backward_euler"``.
    initial:
        ``"dc"`` starts from the operating point with sources at t = 0
        (the usual SPICE behaviour); ``"zero"`` starts from explicit
        initial conditions (or all-zero state).  Such a start need not
        satisfy the algebraic rows (a source node reads 0 V under a
        1 V source), so trapezoidal integration takes its first step
        with backward Euler, as SPICE does after a breakpoint;
        trapezoidal averaging would otherwise carry the inconsistency
        along as a period-2 oscillation.
    diagnostics:
        Attach a :class:`TransientDiagnostics` (LTE estimate, energy
        residual, dt adequacy) to each result.  Costs one extra
        half-step factorization plus two ``lte_probes``-column solves
        and a vectorized energy pass per deck; disable for tight inner
        loops.  At chip scale (``size > LTE_SUBSAMPLE_SIZE``) the probe
        count is capped at :data:`LTE_SUBSAMPLE_PROBES`.
    lte_probes:
        Steps probed by the step-doubling LTE estimate.
    """
    if isinstance(circuits, (Circuit, AssembledCircuit)):
        raise CircuitError(
            "transient_analysis takes a sequence of circuits; "
            "pass [circuit] for a single deck"
        )
    if t_stop <= 0.0 or dt <= 0.0:
        raise CircuitError("t_stop and dt must be positive")
    if dt >= t_stop:
        raise CircuitError("dt must be smaller than t_stop")
    if method not in ("trapezoidal", "backward_euler"):
        raise CircuitError(f"unknown method {method!r}")
    if initial not in ("dc", "zero"):
        raise CircuitError(f"unknown initial condition mode {initial!r}")
    decks = [c.assemble() if isinstance(c, Circuit) else c for c in circuits]
    if not decks:
        raise CircuitError("no circuits to simulate")

    registry = get_registry()
    requested_dt = dt
    n_steps, dt, dt_snapped = _snap_steps(t_stop, dt)
    # linspace pins the final sample to t_stop exactly (arange drifts).
    time = np.linspace(0.0, t_stop, n_steps + 1)
    offsets = np.cumsum([0] + [deck.size for deck in decks]).tolist()

    with span("circuit.batch", decks=len(decks), unknowns=offsets[-1],
              steps=n_steps, method=method):
        x, dc_fallbacks, factor_seconds, first_step = _integrate(
            decks, offsets, time, dt, method, initial
        )

    results = []
    for deck, lo, dc_fallback in zip(decks, offsets, dc_fallbacks):
        with span(
            "circuit.transient",
            size=deck.size,
            steps=n_steps,
            dt=dt,
            method=method,
            factor_seconds=factor_seconds,
        ):
            registry.inc(TRANSIENT_STEPS, n_steps)
            states = x[:, lo:lo + deck.size]
            diag: Optional[TransientDiagnostics] = None
            if diagnostics:
                effective_probes = lte_probes
                if (
                    deck.size > LTE_SUBSAMPLE_SIZE
                    and lte_probes > LTE_SUBSAMPLE_PROBES
                ):
                    effective_probes = LTE_SUBSAMPLE_PROBES
                    registry.inc(LTE_SUBSAMPLED)
                with span("circuit.diagnostics", probes=effective_probes):
                    diag = _run_diagnostics(
                        deck, states, time, dt, requested_dt, dt_snapped,
                        method, factor_seconds, dc_fallback,
                        effective_probes, first_step,
                    )
            results.append(_result(deck, states, time, diag))
    return results


def _integrate(
    decks: List[AssembledCircuit],
    offsets: List[int],
    time: np.ndarray,
    dt: float,
    method: str,
    initial: str,
) -> Tuple[np.ndarray, List[bool], float, int]:
    """Step the block-diagonal batch system over *time*.

    Returns the ``(steps + 1, unknowns)`` state history, the per-deck DC
    fallback flags, the seconds of the shared step-matrix factorization
    and the first step taken by the stepping loop (1 when a
    backward-Euler step started a trapezoidal run).
    """
    g_blocks = [deck.stamps.g_csc() for deck in decks]
    x = np.empty((len(time), offsets[-1]))
    dc_fallbacks = []
    for deck, g, lo in zip(decks, g_blocks, offsets):
        fallback = False
        if initial == "dc":
            x[0, lo:lo + deck.size], fallback = _dc_start(deck, g)
        else:
            x[0, lo:lo + deck.size] = deck.initial_state()
        dc_fallbacks.append(fallback)

    g = sparse.block_diag(g_blocks, format="csc")
    c = sparse.block_diag(
        [deck.stamps.c_csc() for deck in decks], format="csc"
    )
    if method == "trapezoidal":
        lhs = 2.0 * c / dt + g
        rhs_matrix = 2.0 * c / dt - g
    else:
        lhs = c / dt + g
        rhs_matrix = c / dt
    # CSR mat-vec is the per-step hot operation.
    rhs_matrix = rhs_matrix.tocsr()

    t0 = _time.perf_counter()
    lu = _factor_batch(lhs, decks, offsets)
    factor_seconds = _time.perf_counter() - t0
    get_registry().observe(FACTOR_SECONDS, factor_seconds)

    # Step k is forced by b(t_k+1), plus b(t_k) under trapezoidal.
    rows, samples = _sample_sources(decks, offsets, time)
    forcing = samples[1:]
    if method == "trapezoidal":
        forcing = samples[:-1] + forcing

    first_step = 0
    if initial == "zero" and method == "trapezoidal":
        # One backward-Euler step makes an inconsistent start consistent.
        start = _factor_batch(c / dt + g, decks, offsets)
        rhs = (c / dt) @ x[0]
        rhs[rows] += samples[1]
        x[1] = start.solve(rhs)
        first_step = 1

    solve = lu.solve
    for k in range(first_step, len(time) - 1):
        rhs = rhs_matrix @ x[k]
        rhs[rows] += forcing[k]
        x[k + 1] = solve(rhs)
    return x, dc_fallbacks, factor_seconds, first_step


def _factor_batch(lhs, decks: List[AssembledCircuit], offsets: List[int]):
    """Factor the batch step matrix; name the singular deck on failure.

    Only the error path factors the diagonal blocks one by one, to find
    which deck made the batch singular.
    """
    try:
        return factorize(lhs)
    except SolverError as exc:
        get_registry().inc(SINGULAR_SYSTEM)
        for i, (deck, lo, hi) in enumerate(zip(decks, offsets, offsets[1:])):
            try:
                factorize(lhs[lo:hi, lo:hi])
            except SolverError as deck_exc:
                name = deck.circuit.title or f"#{i}"
                raise SolverError(
                    f"singular transient step matrix in deck {name!r}: "
                    f"{deck_exc}"
                ) from exc
        raise SolverError(f"singular transient step matrix: {exc}") from exc


def _sample_sources(
    decks: List[AssembledCircuit], offsets: List[int], time: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch rows that carry a source, and b(t) there on the whole grid."""
    rows, samples = [], []
    for deck, lo in zip(decks, offsets):
        deck_rows, deck_samples = deck.stamps.source_samples(time)
        rows.append(deck_rows + lo)
        samples.append(deck_samples)
    return np.concatenate(rows), np.concatenate(samples, axis=1)


def _result(
    deck: AssembledCircuit,
    states: np.ndarray,
    time: np.ndarray,
    diag: Optional[TransientDiagnostics],
) -> TransientResult:
    """One deck's waveforms as column views of the batch states."""
    node_voltages = {"0": np.zeros(len(time))}
    for node, idx in deck.node_index.items():
        if idx >= 0:
            node_voltages[node] = states[:, idx]
    branch_currents = {
        name: states[:, deck.num_nodes + i]
        for i, name in enumerate(deck.branch_names)
    }
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
    first_step: int,
) -> TransientDiagnostics:
    lte = estimate_local_truncation_error(
        assembled, x, time, dt, method, max_probes=lte_probes,
        first_step=first_step,
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
