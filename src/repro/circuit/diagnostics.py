"""Per-run transient diagnostics: does the simulation explain itself?

Waveform-level simulation is this reproduction's standard of evidence
(every headline number -- Fig. 1 delays, Table I cascading errors, the
H-tree skew study -- is a transient measurement), so a run must carry
enough self-diagnosis to answer "can I trust this waveform?" without
re-running anything:

* **Local truncation error** -- a step-doubling (Richardson) estimate:
  on a deterministic subsample of steps the solver re-integrates the
  step with two half steps and compares against the recorded full-step
  state.  The normalized max / p95 over the probes bound the per-step
  integration error; halving ``dt`` must shrink it (a property test
  pins this).
* **Energy balance** -- by Tellegen's theorem the instantaneous powers
  absorbed by all elements sum to zero *exactly* on the solved states,
  so ``E_source = E_dissipated + dE_stored`` holds up to the time-
  integration error only.  The relative residual of that balance is a
  direct, physical measure of discretization quality (and a loud alarm
  for a non-passive netlist).
* **dt adequacy** -- the paper characterizes at the significant
  frequency ``f_s = 0.32 / t_rise`` of the switching edge; a transient
  step that undersamples ``1/f_s`` cannot resolve the very inductive
  effects being studied.  The check derives ``f_s`` from the circuit's
  own sources (min pulse rise/fall, else max sine frequency) and grades
  the steps-per-significant-period against a floor of 10.
* **Start-up provenance** -- whether the DC start fell back to the
  minimum-norm least-squares solution (inductor loops make the DC
  system genuinely singular), mirrored by process-wide counters
  (``circuit_dc_start_fallback``, ``circuit_singular_system``).

The result rides on :class:`~repro.circuit.transient.TransientResult`
as ``result.diagnostics`` and is embedded (as
:meth:`TransientDiagnostics.to_dict`) into run-report ``simulation``
sections (schema v3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.circuit.backend import factorize
from repro.circuit.elements import (
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.sources import PulseSource, SineSource
from repro.core.frequency import significant_frequency
from repro.errors import SolverError

__all__ = [
    "DT_ADEQUACY_FLOOR",
    "LTE_SUBSAMPLE_SIZE",
    "LTE_SUBSAMPLE_PROBES",
    "TransientDiagnostics",
    "estimate_local_truncation_error",
    "energy_balance",
    "dt_adequacy",
]

#: Minimum steps per significant period for ``dt`` to count as adequate.
DT_ADEQUACY_FLOOR = 10.0

#: Above this many MNA unknowns the LTE probe count is capped at
#: :data:`LTE_SUBSAMPLE_PROBES` -- each probe costs two solves against
#: an extra half-step factorization, which at chip scale would rival the
#: transient itself (``circuit_lte_subsampled`` counts the cap firing).
LTE_SUBSAMPLE_SIZE = 2000

#: Probe budget once :data:`LTE_SUBSAMPLE_SIZE` is exceeded.
LTE_SUBSAMPLE_PROBES = 4

#: Trapezoidal integration that survives the numpy 2.x trapz rename.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class TransientDiagnostics:
    """Self-diagnosis of one transient run (see the module docstring)."""

    #: Integration method used (``trapezoidal`` / ``backward_euler``).
    method: str
    #: Effective step actually integrated with [s].
    dt: float
    #: The step the caller asked for [s] (differs when snapped).
    requested_dt: float
    #: Whether ``dt`` was snapped so the grid lands exactly on t_stop.
    dt_snapped: bool
    t_stop: float
    steps: int
    #: MNA unknowns (nodes + branch currents).
    matrix_size: int
    num_nodes: int
    num_branches: int
    #: Wall seconds spent LU-factorizing the step matrix.
    factor_seconds: float
    #: Whether the DC start fell back to the least-squares solution.
    dc_start_fallback: bool
    #: Step-doubling local-truncation-error estimate (normalized to the
    #: state magnitude); NaN when the half-step system was singular.
    lte_max: float = 0.0
    lte_p95: float = 0.0
    lte_probes: int = 0
    #: Energy ledger [J] and its relative balance residual.
    energy_input: float = 0.0
    energy_dissipated: float = 0.0
    energy_stored_delta: float = 0.0
    energy_residual: float = 0.0
    #: Significant frequency inferred from the sources [Hz] (None when
    #: the circuit carries no pulse/sine source to infer it from).
    significant_frequency: Optional[float] = None
    #: Transient steps per significant period ``1 / (f_s dt)``.
    steps_per_significant_period: Optional[float] = None
    #: ``steps_per_significant_period >= DT_ADEQUACY_FLOOR`` (None when
    #: no significant frequency could be inferred).
    dt_adequate: Optional[bool] = None

    def to_dict(self) -> dict:
        """JSON-ready dict (the run-report ``simulation`` payload)."""
        return {
            "method": self.method,
            "dt": self.dt,
            "requested_dt": self.requested_dt,
            "dt_snapped": self.dt_snapped,
            "t_stop": self.t_stop,
            "steps": self.steps,
            "matrix_size": self.matrix_size,
            "num_nodes": self.num_nodes,
            "num_branches": self.num_branches,
            "factor_seconds": self.factor_seconds,
            "dc_start_fallback": self.dc_start_fallback,
            "lte_max": self.lte_max,
            "lte_p95": self.lte_p95,
            "lte_probes": self.lte_probes,
            "energy_input": self.energy_input,
            "energy_dissipated": self.energy_dissipated,
            "energy_stored_delta": self.energy_stored_delta,
            "energy_residual": self.energy_residual,
            "significant_frequency": self.significant_frequency,
            "steps_per_significant_period": self.steps_per_significant_period,
            "dt_adequate": self.dt_adequate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TransientDiagnostics":
        known = {f: data.get(f) for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)

    def flags(self) -> List[str]:
        """Human-readable warnings this run raised (empty = clean)."""
        out = []
        if self.dt_snapped:
            out.append(
                f"dt snapped {self.requested_dt:.3e} -> {self.dt:.3e} s "
                "so the grid lands on t_stop"
            )
        if self.dt_adequate is False:
            out.append(
                f"dt undersamples the significant frequency "
                f"({self.steps_per_significant_period:.1f} steps/period "
                f"< {DT_ADEQUACY_FLOOR:.0f})"
            )
        if self.dc_start_fallback:
            out.append("DC start used the least-squares fallback "
                       "(inductor loop at DC)")
        if np.isnan(self.lte_max):
            out.append("LTE probe failed (singular half-step system)")
        return out


# ----------------------------------------------------------------------
# step-doubling local truncation error
# ----------------------------------------------------------------------
def estimate_local_truncation_error(
    assembled,
    x: np.ndarray,
    time: np.ndarray,
    dt: float,
    method: str,
    max_probes: int = 16,
) -> Dict[str, float]:
    """Richardson (step-doubling) LTE estimate over a probe subsample.

    For up to *max_probes* evenly spaced steps ``k`` the step from
    ``x[k]`` is re-integrated with two half steps on a once-factorized
    half-step matrix; the normalized infinity-norm gap against the
    recorded ``x[k+1]`` estimates the local truncation error of that
    step.  Returns ``{"max", "p95", "probes"}`` (NaNs with 0 probes
    when the half-step matrix is singular).
    """
    g, c = assembled.stamps.g_csc(), assembled.stamps.c_csc()
    half = dt / 2.0
    if method == "trapezoidal":
        lhs = 2.0 * c / half + g
        rhs_matrix = 2.0 * c / half - g
    else:
        lhs = c / half + g
        rhs_matrix = c / half
    rhs_matrix = rhs_matrix.tocsr()
    try:
        lu = factorize(lhs)
    except SolverError:
        return {"max": float("nan"), "p95": float("nan"), "probes": 0}

    n_steps = len(time) - 1
    probes = np.unique(
        np.linspace(0, n_steps - 1, min(max_probes, n_steps)).astype(int)
    )
    scale = float(np.max(np.abs(x)))
    if scale <= 0.0:
        scale = 1.0
    source = assembled.stamps.source_vector
    errors = np.empty(len(probes))
    for i, k in enumerate(probes):
        t0 = time[k]
        t_mid = t0 + half
        t1 = time[k + 1]
        b0, bm, b1 = source(t0), source(t_mid), source(t1)
        if method == "trapezoidal":
            x_mid = lu.solve(rhs_matrix @ x[k] + b0 + bm)
            x_end = lu.solve(rhs_matrix @ x_mid + bm + b1)
        else:
            x_mid = lu.solve(rhs_matrix @ x[k] + bm)
            x_end = lu.solve(rhs_matrix @ x_mid + b1)
        errors[i] = np.max(np.abs(x_end - x[k + 1])) / scale
    return {
        "max": float(np.max(errors)),
        "p95": float(np.percentile(errors, 95.0)),
        "probes": int(len(probes)),
    }


# ----------------------------------------------------------------------
# energy balance
# ----------------------------------------------------------------------
def energy_balance(
    circuit,
    assembled,
    x: np.ndarray,
    time: np.ndarray,
) -> Dict[str, float]:
    """Energy ledger of a solved transient.

    Computes ``E_in`` (delivered by V/I/VCVS sources), ``E_diss``
    (resistors) and the stored-energy change of capacitors and
    (mutually coupled) inductors, all from the solved states.  KCL/KVL
    hold exactly on every solved instant, so the relative residual
    ``E_in - E_diss - dE_stored`` measures *time-integration* error
    (it would also expose a non-passive netlist pumping energy).
    """

    def volts(node: str) -> np.ndarray:
        idx = assembled.node_index[node]
        if idx < 0:
            return np.zeros(len(time))
        return x[:, idx]

    def branch_current(name: str) -> np.ndarray:
        return x[:, assembled.branch_row(name)]

    p_source = np.zeros(len(time))
    p_diss = np.zeros(len(time))
    e_stored_0 = 0.0
    e_stored_1 = 0.0
    for element in circuit.elements:
        dv = volts(element.node1) - volts(element.node2)
        if isinstance(element, Resistor):
            p_diss += dv * dv / element.resistance
        elif isinstance(element, Capacitor):
            e_stored_0 += 0.5 * element.capacitance * dv[0] ** 2
            e_stored_1 += 0.5 * element.capacitance * dv[-1] ** 2
        elif isinstance(element, (VoltageSource, VCVS)):
            # absorbed = dv * i; sources *deliver* the negative of it
            p_source += -dv * branch_current(element.name)
        elif isinstance(element, CurrentSource):
            current = np.array([element.waveform(t) for t in time])
            p_source += -dv * current

    # inductive energy 0.5 i^T L i with the full mutual matrix
    inductors = [e for e in circuit.elements if isinstance(e, Inductor)]
    if inductors:
        index = {e.name: i for i, e in enumerate(inductors)}
        l_matrix = np.diag([e.inductance for e in inductors])
        for mutual in circuit.mutuals:
            i, j = index[mutual.inductor1], index[mutual.inductor2]
            l_matrix[i, j] = l_matrix[j, i] = mutual.mutual
        i0 = np.array([branch_current(e.name)[0] for e in inductors])
        i1 = np.array([branch_current(e.name)[-1] for e in inductors])
        e_stored_0 += 0.5 * float(i0 @ l_matrix @ i0)
        e_stored_1 += 0.5 * float(i1 @ l_matrix @ i1)

    e_in = float(_trapezoid(p_source, time))
    e_diss = float(_trapezoid(p_diss, time))
    delta_stored = e_stored_1 - e_stored_0
    denom = max(abs(e_in), abs(e_diss), abs(delta_stored), 1e-30)
    residual = abs(e_in - e_diss - delta_stored) / denom
    return {
        "input": e_in,
        "dissipated": e_diss,
        "stored_delta": delta_stored,
        "residual": residual,
    }


# ----------------------------------------------------------------------
# dt adequacy vs the significant frequency
# ----------------------------------------------------------------------
def dt_adequacy(circuit, dt: float) -> Dict[str, Optional[float]]:
    """Grade *dt* against the circuit's own significant frequency.

    The significant frequency is ``0.32 / t_rise`` of the fastest pulse
    edge (the paper's characterization rule); circuits driven only by
    sine sources use the highest sine frequency.  Returns
    ``{"frequency", "steps_per_period", "adequate"}``; with no switching
    source to infer a frequency from, ``frequency`` and
    ``steps_per_period`` are ``None`` and ``adequate`` is vacuously
    ``True`` (a DC drive cannot be undersampled).
    """
    min_edge = None
    max_sine = None
    for element in circuit.elements:
        waveform = getattr(element, "waveform", None)
        if isinstance(waveform, PulseSource):
            edge = min(waveform.rise, waveform.fall)
            if min_edge is None or edge < min_edge:
                min_edge = edge
        elif isinstance(waveform, SineSource):
            if max_sine is None or waveform.frequency > max_sine:
                max_sine = waveform.frequency
    if min_edge is not None:
        frequency = significant_frequency(min_edge)
    elif max_sine is not None:
        frequency = max_sine
    else:
        return {"frequency": None, "steps_per_period": None, "adequate": True}
    steps_per_period = 1.0 / (frequency * dt)
    return {
        "frequency": frequency,
        "steps_per_period": steps_per_period,
        "adequate": steps_per_period >= DT_ADEQUACY_FLOOR,
    }
