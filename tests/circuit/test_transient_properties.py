"""Property-based transient-solver invariants (hypothesis, PR 5).

Two families of invariants over randomized passive RLC ladders:

* **Method agreement at steady state.**  Trapezoidal and backward-Euler
  integration are different discretizations of the same ODE; once the
  transient has died out, both must settle to the circuit's DC
  operating point.  Run long enough (many times the slowest ladder time
  constant), the final values agree with each other and with
  :func:`operating_point` regardless of the random component values.

* **LTE estimate shrinks with dt.**  The step-doubling local truncation
  error estimate attached to :class:`TransientDiagnostics` measures the
  O(dt^2)/O(dt) discretization error; halving dt on a smooth
  sine-driven circuit must (weakly, and in practice strictly) shrink
  it, and the energy-balance residual must shrink along with it.
"""

import warnings

import numpy as np
from hypothesis import (
    HealthCheck, example, given, settings, strategies as st,
)

from repro.circuit import (
    Circuit,
    SineSource,
    operating_point,
    transient_analysis,
)

inductances = st.floats(1e-10, 1e-8)
capacitances = st.floats(1e-14, 1e-12)

FAST = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
SLOW = settings(max_examples=8, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _ladder(stages):
    """A passive RLC ladder: DC source -> (R -> L -> C-to-ground)*n.

    Each stage is ``(zeta, l, cap)``: parameterizing by the damping
    ratio (``r = 2 zeta sqrt(l/cap)``) keeps random ladders reasonably
    damped.  A raw random R can produce Q ~ 600 resonators whose
    ringing a fixed 2000-step grid can neither resolve nor damp
    (the trapezoidal amplification magnitude tends to 1 as
    ``|lambda| dt`` grows), so "settled by t_stop" would be false for
    reasons that have nothing to do with solver correctness.
    """
    c = Circuit("ladder")
    c.add_voltage_source("Vs", "n0", "0", 1.0)
    node = "n0"
    for i, (zeta, l, cap) in enumerate(stages):
        r = 2.0 * zeta * np.sqrt(l / cap)
        mid = f"m{i}"
        nxt = f"n{i + 1}"
        c.add_resistor(f"R{i}", node, mid, r)
        c.add_inductor(f"L{i}", mid, nxt, l)
        c.add_capacitor(f"C{i}", nxt, "0", cap)
        node = nxt
    return c, node


def _settle_time(stages):
    """Generous settling horizon: 50x the ladder's time scales.

    The RC part is the Elmore constant ``sum_i R_i * sum_{j>=i} C_j``:
    each stage's resistance also charges every capacitor behind it, so
    summing only the stages' own ``R_i C_i`` undershoots (a two-stage
    ladder with a 1e-14 F first and an 8.5e-13 F second capacitor
    reached 0.89 V of 1 V).  The L/R and sqrt(LC) terms cover the
    inductive ringing.
    """
    resistances = [2.0 * zeta * np.sqrt(l / cap) for zeta, l, cap in stages]
    capacitors_behind = np.cumsum([cap for _, _, cap in stages][::-1])[::-1]
    total = float(np.dot(resistances, capacitors_behind))
    for r, (_, l, cap) in zip(resistances, stages):
        total += l / r + np.sqrt(l * cap)
    return 50.0 * total


dampings = st.floats(0.3, 2.0)
stage = st.tuples(dampings, inductances, capacitances)
ladders = st.lists(stage, min_size=1, max_size=3)
methods = st.sampled_from(["trapezoidal", "backward_euler"])


class TestSteadyStateAgreement:
    @given(stages=ladders)
    @example(stages=[(2.0, 1.040275054767173e-09, 1e-14),
                     (1.0, 1e-10, 8.473131925212006e-13)])
    @FAST
    def test_methods_agree_with_dc_operating_point(self, stages):
        circuit, out = _ladder(stages)
        t_stop = _settle_time(stages)
        dt = t_stop / 2000
        finals = {}
        for method in ("trapezoidal", "backward_euler"):
            [result] = transient_analysis(
                [circuit], t_stop=t_stop, dt=dt, method=method,
                initial="zero", diagnostics=False,
            )
            finals[method] = result.voltage(out).final_value
        dc = operating_point(circuit)[out]
        # a passive ladder driven by 1 V DC settles to 1 V everywhere
        # (gmin leakage perturbs the operating point by ~1e-12)
        assert abs(dc - 1.0) < 1e-6
        for method, value in finals.items():
            assert abs(value - dc) < 5e-2, (method, value, dc)
        assert abs(finals["trapezoidal"]
                   - finals["backward_euler"]) < 5e-2

    @given(stages=ladders)
    @FAST
    def test_passive_ladder_voltages_stay_bounded(self, stages):
        # Worst-case RLC ringing overshoot of a 1 V step stays finite
        # and small for a passive network; wild values flag instability.
        circuit, out = _ladder(stages)
        t_stop = _settle_time(stages)
        [result] = transient_analysis(
            [circuit], t_stop=t_stop, dt=t_stop / 2000,
            initial="zero", diagnostics=False,
        )
        v = result.voltage(out).values
        assert np.all(np.isfinite(v))
        assert np.max(np.abs(v)) < 10.0


class TestInconsistentStart:
    """``initial="zero"`` need not satisfy the algebraic MNA rows.

    Every capacitor starts at its DC voltage (1 V: no DC current flows
    in an unloaded ladder) and every inductor at its DC current (0 A),
    but the source node and the R-L junctions carry no capacitor, so
    the zero start puts them at 0 V against a 1 V source.  Trapezoidal
    integration averages those algebraic rows: without a consistent
    first step the source node read 0, 2, 0, 2 V for the whole run.
    """

    @given(stages=ladders, method=methods)
    @FAST
    def test_dc_driven_ladder_holds_dc_after_first_step(self, stages,
                                                        method):
        circuit, _ = _ladder(stages)
        for element in circuit.elements:
            if element.name.startswith("C"):
                element.initial_voltage = 1.0
        t_stop = _settle_time(stages)
        [result] = transient_analysis(
            [circuit], t_stop=t_stop, dt=t_stop / 200, method=method,
            initial="zero", diagnostics=False,
        )
        # DC is 1 V on every node (0 on ground); the operating point
        # itself carries gmin leakage of ~1e-9 V, so compare exactly.
        assert "n0" in result.node_voltages
        for node, volts in result.node_voltages.items():
            dc = 0.0 if node == "0" else 1.0
            assert np.all(np.abs(volts[1:] - dc) < 1e-9), (
                method, node, volts[:4])


class TestLTEShrinksWithDt:
    @given(
        zeta=st.floats(0.2, 2.0),
        l=st.floats(1e-9, 1e-8),
        cap=st.floats(4e-13, 1e-12),
        periods=st.integers(3, 6),
    )
    @SLOW
    def test_halving_dt_shrinks_lte_estimate(self, zeta, l, cap, periods):
        # The monotone-shrink claim is an *asymptotic* property: the
        # starting grid must already resolve both the 1 GHz drive and
        # the circuit's own resonance (dt <~ 1/(8 omega_0)), and the
        # damping ratio is drawn directly so no random high-Q resonator
        # pushes the run out of the asymptotic regime.
        freq = 1e9
        r = 2.0 * zeta * np.sqrt(l / cap)
        c = Circuit("sine")
        c.add_voltage_source("Vs", "in", "0", SineSource(
            offset=0.0, amplitude=1.0, frequency=freq))
        c.add_resistor("R1", "in", "mid", r)
        c.add_inductor("L1", "mid", "out", l)
        c.add_capacitor("C1", "out", "0", cap)
        t_stop = periods / freq
        dt0 = min(t_stop / 200, np.sqrt(l * cap) / 8.0)
        dts = [dt0, dt0 / 2, dt0 / 4]
        ltes = []
        residuals = []
        for dt in dts:
            with warnings.catch_warnings():
                # a random dt0 rarely divides t_stop: snapping (to a
                # marginally finer dt) is expected, not interesting
                warnings.simplefilter("ignore", UserWarning)
                [result] = transient_analysis([c], t_stop=t_stop, dt=dt)
            diag = result.diagnostics
            assert np.isfinite(diag.lte_max)
            ltes.append(diag.lte_max)
            residuals.append(diag.energy_residual)
        # Step-doubling LTE tracks the O(dt^3) per-step trapezoidal
        # error: each halving must shrink it (tiny absolute slack for
        # estimates already at the machine-noise floor).
        for coarse, fine in zip(ltes, ltes[1:]):
            assert fine <= coarse * 1.05 + 1e-12, ltes
        # and with a fine grid the estimate is genuinely small
        assert ltes[-1] < 1e-2
        # the energy-balance residual is integration error too
        assert residuals[-1] <= residuals[0] * 1.5 + 1e-12, residuals
