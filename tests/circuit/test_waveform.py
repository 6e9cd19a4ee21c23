"""Waveform measurement: crossings, delay, overshoot, skew."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.waveform import Waveform, skew
from repro.errors import CircuitError


def ramp(t_end=1e-9, n=101, v_end=1.0):
    t = np.linspace(0.0, t_end, n)
    return Waveform(t, v_end * t / t_end)


def ringing(final=1.0, overshoot=0.3, n=1000):
    t = np.linspace(0.0, 10.0, n)
    v = final * (1.0 - np.exp(-t) * np.cos(3.0 * t) * (1 + overshoot))
    return Waveform(t, v)


class TestConstruction:
    def test_mismatched_shapes(self):
        with pytest.raises(CircuitError):
            Waveform(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))

    def test_non_monotone_time(self):
        with pytest.raises(CircuitError):
            Waveform(np.array([0.0, 1.0, 0.5]), np.zeros(3))

    def test_too_few_samples(self):
        with pytest.raises(CircuitError):
            Waveform(np.array([0.0]), np.array([1.0]))


class TestCrossings:
    def test_linear_interpolation(self):
        w = ramp()
        assert w.threshold_crossing(0.5) == pytest.approx(0.5e-9, rel=1e-9)

    def test_occurrence_selection(self):
        t = np.linspace(0, 6 * np.pi, 3000)
        w = Waveform(t, np.sin(t))
        first = w.threshold_crossing(0.5, rising=True, occurrence=1)
        second = w.threshold_crossing(0.5, rising=True, occurrence=2)
        assert second - first == pytest.approx(2 * np.pi, rel=1e-3)

    def test_falling_crossing(self):
        t = np.linspace(0, 1, 101)
        w = Waveform(t, 1.0 - t)
        assert w.threshold_crossing(0.5, rising=False) == pytest.approx(0.5)

    def test_no_crossing_returns_none(self):
        assert ramp().threshold_crossing(2.0) is None

    def test_bad_occurrence(self):
        with pytest.raises(CircuitError):
            ramp().threshold_crossing(0.5, occurrence=0)

    def test_at_interpolates(self):
        w = ramp()
        assert w.at(0.25e-9) == pytest.approx(0.25)


class TestDelay:
    def test_shifted_copy(self):
        t = np.linspace(0, 10e-9, 1001)
        v = np.clip((t - 1e-9) / 1e-10, 0, 1)
        source = Waveform(t, v)
        sink = Waveform(t, np.clip((t - 3e-9) / 1e-10, 0, 1))
        assert source.delay_to(sink) == pytest.approx(2e-9, rel=1e-6)

    def test_fraction_validated(self):
        w = ramp()
        with pytest.raises(CircuitError):
            w.delay_to(w, fraction=0.0)

    def test_never_crossing_raises(self):
        t = np.linspace(0, 1e-9, 100)
        low = Waveform(t, np.full(100, 0.1))
        with pytest.raises(CircuitError):
            ramp().delay_to(low)


class TestOvershoot:
    def test_ringing_overshoot_positive(self):
        w = ringing(overshoot=0.3)
        assert w.overshoot(reference=1.0) > 0.1

    def test_monotone_no_overshoot(self):
        assert ramp().overshoot(reference=1.0) == 0.0

    def test_undershoot_after_peak(self):
        w = ringing(overshoot=0.5)
        assert w.undershoot(reference=1.0) > 0.0

    def test_monotone_no_undershoot(self):
        assert ramp().undershoot(reference=1.0) == 0.0

    def test_zero_reference_rejected(self):
        t = np.linspace(0, 1, 10)
        w = Waveform(t, np.zeros(10))
        with pytest.raises(CircuitError):
            w.overshoot()

    def test_negative_swing_overshoot(self):
        t = np.linspace(0, 10, 500)
        v = -(1.0 - np.exp(-t) * np.cos(3 * t) * 1.4)
        w = Waveform(t, v)
        assert w.overshoot(reference=-1.0) > 0.1


class TestSkew:
    def test_max_minus_min(self):
        assert skew({"a": 10e-12, "b": 17e-12, "c": 12e-12}) == pytest.approx(
            7e-12
        )

    def test_single_sink_zero_skew(self):
        assert skew({"a": 5e-12}) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(CircuitError):
            skew({})

    def test_skew_of_measured_delays(self):
        t = np.linspace(0, 10e-9, 1001)
        source = Waveform(t, np.clip((t - 1e-9) / 1e-10, 0, 1))
        sinks = {
            "near": Waveform(t, np.clip((t - 2e-9) / 1e-10, 0, 1)),
            "far": Waveform(t, np.clip((t - 4e-9) / 1e-10, 0, 1)),
        }
        arrivals = {name: source.delay_to(sink) for name, sink in sinks.items()}
        assert arrivals["near"] == pytest.approx(1e-9, rel=1e-6)
        assert arrivals["far"] == pytest.approx(3e-9, rel=1e-6)
        assert skew(arrivals) == pytest.approx(2e-9, rel=1e-6)


@given(st.floats(0.1, 0.9))
@settings(max_examples=25)
def test_ramp_crossing_property(level):
    w = ramp()
    crossing = w.threshold_crossing(level)
    assert crossing == pytest.approx(level * 1e-9, rel=1e-6)
