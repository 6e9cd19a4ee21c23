"""Waveform measurement: delays, overshoot, ringing, skew.

These are the quantities the paper reads off its SPICE runs: the 50 %
delay from buffer output to sink (28.01 ps vs 47.6 ps in Figs. 2/3), the
overshoot/undershoot the inductance introduces, and the clock skew
between sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import CircuitError


@dataclass
class Waveform:
    """A sampled waveform ``values(time)`` with measurement helpers."""

    time: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.time = np.asarray(self.time, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.time.ndim != 1 or self.time.shape != self.values.shape:
            raise CircuitError("time and values must be matching 1-D arrays")
        if self.time.size < 2:
            raise CircuitError("waveform needs at least two samples")
        if not np.all(np.diff(self.time) > 0.0):
            raise CircuitError("time must be strictly increasing")

    @property
    def final_value(self) -> float:
        """Last sampled value (the settled level for long-enough runs)."""
        return float(self.values[-1])

    @property
    def initial_value(self) -> float:
        """First sampled value."""
        return float(self.values[0])

    def at(self, t: float) -> float:
        """Linear interpolation of the waveform at time *t*."""
        return float(np.interp(t, self.time, self.values))

    def threshold_crossing(
        self,
        level: float,
        rising: bool = True,
        occurrence: int = 1,
    ) -> Optional[float]:
        """Time of the *occurrence*-th crossing of *level* (or ``None``).

        Crossing times are linearly interpolated between samples.
        """
        if occurrence < 1:
            raise CircuitError("occurrence must be >= 1")
        v = self.values
        if rising:
            mask = (v[:-1] < level) & (v[1:] >= level)
        else:
            mask = (v[:-1] > level) & (v[1:] <= level)
        indices = np.flatnonzero(mask)
        if indices.size < occurrence:
            return None
        i = indices[occurrence - 1]
        t0, t1 = self.time[i], self.time[i + 1]
        v0, v1 = v[i], v[i + 1]
        if v1 == v0:
            return float(t0)
        return float(t0 + (level - v0) * (t1 - t0) / (v1 - v0))

    def delay_to(
        self,
        other: "Waveform",
        fraction: float = 0.5,
        reference: Optional[float] = None,
    ) -> float:
        """Threshold delay from this waveform to *other* [s].

        Measures the time between the two waveforms crossing
        ``fraction * reference``; *reference* defaults to this waveform's
        final value (a shared swing for driver/sink pairs).
        """
        if not (0.0 < fraction < 1.0):
            raise CircuitError("fraction must be in (0, 1)")
        if reference is None:
            reference = self.final_value
        level = fraction * reference
        t_self = self.threshold_crossing(level, rising=reference > 0)
        t_other = other.threshold_crossing(level, rising=reference > 0)
        if t_self is None or t_other is None:
            raise CircuitError(
                f"waveform never crosses {level:.4g}; extend the simulation"
            )
        return t_other - t_self

    def overshoot(self, reference: Optional[float] = None) -> float:
        """Relative overshoot past the settled value (0 when monotone).

        ``(max - reference) / |reference|`` clamped at zero; *reference*
        defaults to the final value.
        """
        if reference is None:
            reference = self.final_value
        if reference == 0.0:
            raise CircuitError("reference must be non-zero for overshoot")
        peak = float(self.values.max()) if reference > 0 else float(self.values.min())
        return max((peak - reference) / abs(reference) * np.sign(reference), 0.0)

    def undershoot(self, reference: Optional[float] = None) -> float:
        """Relative dip below the initial value after the first rise.

        Quantifies ring-back: how far the waveform swings back below the
        settled level after its first peak.  Returns 0 for monotone
        waveforms.
        """
        if reference is None:
            reference = self.final_value
        if reference == 0.0:
            raise CircuitError("reference must be non-zero for undershoot")
        peak_index = int(np.argmax(self.values * np.sign(reference)))
        if peak_index >= self.values.size - 1:
            return 0.0
        tail = self.values[peak_index:]
        if reference > 0:
            dip = float(tail.min())
            return max((reference - dip) / abs(reference), 0.0)
        dip = float(tail.max())
        return max((dip - reference) / abs(reference), 0.0)


def skew(
    arrivals: Dict[str, float],
) -> float:
    """Clock skew: max minus min arrival time over the sinks [s]."""
    if not arrivals:
        raise CircuitError("no arrival times given")
    values = list(arrivals.values())
    return max(values) - min(values)
