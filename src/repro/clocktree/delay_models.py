"""Analytic delay estimates for extracted RLC segments.

Simulation gives the reference answer; closed-form estimates make the
extraction tables directly usable inside optimization loops (the
"clocktree RLC extraction and optimization" of the paper's abstract):

* :func:`elmore_delay` -- the classic RC first moment (what an RC-only
  flow would predict);
* :func:`rlc_delay` -- the two-pole RLC estimate of Ismail & Friedman
  ("Effects of inductance on the propagation delay and repeater
  insertion in VLSI circuits", TVLSI 2000), which reduces to the Elmore
  form for overdamped lines and captures the flight-time floor for
  underdamped ones;
* :func:`damping_factor` -- the zeta that decides whether a driver/line
  combination rings.
"""

from __future__ import annotations

import math

from repro.errors import CircuitError


def elmore_delay(
    resistance: float,
    capacitance: float,
    drive_resistance: float = 0.0,
    load_capacitance: float = 0.0,
) -> float:
    """Elmore (first-moment) 50 % delay of a distributed RC segment [s].

    ``0.693 [ Rs (C + CL) + R (C/2 + CL) ]`` -- the standard lumped
    approximation of a driver *Rs* into a uniform RC line with a far-end
    load.
    """
    if resistance < 0.0 or capacitance < 0.0:
        raise CircuitError("resistance and capacitance must be non-negative")
    if drive_resistance < 0.0 or load_capacitance < 0.0:
        raise CircuitError("driver and load terms must be non-negative")
    moment = (
        drive_resistance * (capacitance + load_capacitance)
        + resistance * (capacitance / 2.0 + load_capacitance)
    )
    return 0.693 * moment


def damping_factor(
    resistance: float,
    inductance: float,
    capacitance: float,
    drive_resistance: float = 0.0,
    load_capacitance: float = 0.0,
) -> float:
    """The Ismail-Friedman damping factor zeta of a driven RLC segment.

    ``zeta = (R_total / 2) sqrt(C_total / L)`` with the driver folded
    into R_total and the load into C_total.  zeta < 1 rings, zeta >> 1
    behaves like an RC line.
    """
    if inductance <= 0.0:
        raise CircuitError("inductance must be positive for a damping factor")
    r_total = drive_resistance + resistance / 2.0
    c_total = capacitance + load_capacitance
    if c_total <= 0.0:
        raise CircuitError("total capacitance must be positive")
    return (r_total / 2.0) * math.sqrt(c_total / inductance)


def rlc_delay(
    resistance: float,
    inductance: float,
    capacitance: float,
    drive_resistance: float = 0.0,
    load_capacitance: float = 0.0,
) -> float:
    """Ismail-Friedman two-pole 50 % delay estimate of an RLC segment [s].

        t_50 = ( e^(-2.9 zeta^1.35) + 1.48 zeta ) / omega_n

    with ``omega_n = 1 / sqrt(L C_total)``.  For zeta >> 1 this tends to
    the Elmore RC behaviour; for zeta << 1 it floors at the wave flight
    time -- the physics behind the paper's Fig. 2 vs Fig. 3 contrast.
    """
    if inductance <= 0.0:
        return elmore_delay(resistance, capacitance,
                            drive_resistance, load_capacitance)
    zeta = damping_factor(resistance, inductance, capacitance,
                          drive_resistance, load_capacitance)
    c_total = capacitance + load_capacitance
    omega_n = 1.0 / math.sqrt(inductance * c_total)
    return (math.exp(-2.9 * zeta ** 1.35) + 1.48 * zeta) / omega_n
