"""Transient diagnostics, dt snapping and circuit spans (PR 5)."""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    PulseSource,
    SineSource,
    operating_point,
    transient_analysis,
)
from repro.circuit.diagnostics import (
    TransientDiagnostics,
    dt_adequacy,
    energy_balance,
    estimate_local_truncation_error,
)
from repro.circuit.elements import (
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.errors import CircuitError
from repro.telemetry import get_tracer, metrics_meter, spans_disabled


def _rlc_circuit(rise=50e-12):
    c = Circuit("diag")
    c.add_voltage_source("Vin", "in", "0", PulseSource(
        v1=0.0, v2=1.0, delay=0.0, rise=rise, fall=rise,
        width=2e-9, period=0.0,
    ))
    c.add_resistor("R1", "in", "mid", 50.0)
    c.add_inductor("L1", "mid", "out", 1e-9)
    c.add_capacitor("C1", "out", "0", 2e-13)
    return c


def _find_span(node, name):
    if node["name"] == name:
        return node
    for child in node.get("children", ()):
        found = _find_span(child, name)
        if found is not None:
            return found
    return None


class TestStepSnapping:
    def test_non_integer_ratio_snaps_and_lands_on_t_stop(self):
        circuit = _rlc_circuit()
        with metrics_meter() as meter:
            with pytest.warns(UserWarning, match="dt snapped"):
                [result] = transient_analysis([circuit], t_stop=1e-9,
                                              dt=0.3e-10)
        assert result.time[-1] == 1e-9
        assert meter.delta.counter("circuit_dt_snapped") == 1
        diag = result.diagnostics
        assert diag.dt_snapped
        assert diag.requested_dt == 0.3e-10
        assert diag.dt < diag.requested_dt
        # grid is uniform with the snapped dt
        assert np.allclose(np.diff(result.time), diag.dt)
        assert any("snapped" in flag for flag in diag.flags())

    def test_integer_ratio_does_not_snap(self):
        circuit = _rlc_circuit()
        import warnings

        with metrics_meter() as meter:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                [result] = transient_analysis([circuit], t_stop=1e-9, dt=1e-12)
        assert meter.delta.counter("circuit_dt_snapped") == 0
        assert not result.diagnostics.dt_snapped
        assert result.time[-1] == 1e-9
        assert len(result.time) == 1001

    def test_float_noise_ratio_counts_as_integer(self):
        # 3e-9 / 1e-11 = 299.99999999999994 in floats: must not snap.
        circuit = _rlc_circuit()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [result] = transient_analysis([circuit], t_stop=3e-9, dt=1e-11)
        assert len(result.time) == 301
        assert result.time[-1] == 3e-9


class TestTransientDiagnostics:
    def test_fields_and_serialization(self):
        circuit = _rlc_circuit()
        [result] = transient_analysis([circuit], t_stop=2e-9, dt=1e-12)
        diag = result.diagnostics
        assert isinstance(diag, TransientDiagnostics)
        assert diag.method == "trapezoidal"
        assert diag.steps == 2000
        # 3 non-ground nodes + 2 branch currents (Vin, L1)
        assert diag.matrix_size == 5
        assert diag.num_nodes == 3
        assert diag.num_branches == 2
        assert diag.factor_seconds >= 0.0
        data = diag.to_dict()
        assert TransientDiagnostics.from_dict(data) == diag

    def test_lte_estimate_finite_and_small_for_fine_dt(self):
        circuit = _rlc_circuit()
        [result] = transient_analysis([circuit], t_stop=2e-9, dt=0.5e-12)
        diag = result.diagnostics
        assert 0.0 <= diag.lte_p95 <= diag.lte_max
        assert np.isfinite(diag.lte_max)
        assert diag.lte_probes > 0
        assert diag.lte_max < 1e-2

    def test_energy_balance_residual_small(self):
        circuit = _rlc_circuit()
        [result] = transient_analysis([circuit], t_stop=3e-9, dt=1e-12)
        diag = result.diagnostics
        assert diag.energy_input > 0.0
        assert diag.energy_dissipated > 0.0
        # Tellegen: the residual measures integration error only.
        assert diag.energy_residual < 1e-4

    def test_dt_adequacy_flags_undersampling(self):
        circuit = _rlc_circuit(rise=50e-12)  # f_s = 6.4 GHz
        [fine] = transient_analysis([circuit], t_stop=2e-9, dt=1e-12)
        assert fine.diagnostics.dt_adequate
        [coarse] = transient_analysis([circuit], t_stop=2e-9, dt=5e-11)
        assert not coarse.diagnostics.dt_adequate
        assert coarse.diagnostics.steps_per_significant_period < 10.0
        assert any("undersample" in f for f in coarse.diagnostics.flags())

    def test_dt_adequacy_helper_without_timed_sources(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", 1.0)  # DC: no frequency
        c.add_resistor("R1", "a", "0", 10.0)
        info = dt_adequacy(c, 1e-12)
        assert info["frequency"] is None
        assert info["adequate"] is True

    def test_dt_adequacy_from_sine_source(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", SineSource(
            offset=0.0, amplitude=1.0, frequency=1e9))
        c.add_resistor("R1", "a", "0", 10.0)
        info = dt_adequacy(c, 1e-11)
        assert info["frequency"] == pytest.approx(1e9)
        assert info["steps_per_period"] == pytest.approx(100.0)

    def test_diagnostics_disabled(self):
        [result] = transient_analysis(
            [_rlc_circuit()], t_stop=1e-9, dt=1e-12, diagnostics=False
        )
        assert result.diagnostics is None

    def test_dc_start_fallback_flag_and_counter(self):
        # An inductor directly across the source makes DC singular; the
        # least-squares start must be taken and flagged.
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", PulseSource(
            v1=0.0, v2=1.0, delay=1e-10, rise=1e-10, fall=1e-10,
            width=1e-9, period=0.0,
        ))
        c.add_inductor("L1", "a", "0", 1e-9)
        c.add_resistor("R1", "a", "0", 100.0)
        with metrics_meter() as meter:
            [result] = transient_analysis([c], t_stop=1e-9, dt=1e-12)
        assert result.diagnostics.dc_start_fallback
        assert meter.delta.counter("circuit_dc_start_fallback") == 1
        assert any("fallback" in f for f in result.diagnostics.flags())

    def test_transient_steps_counter(self):
        with metrics_meter() as meter:
            transient_analysis([_rlc_circuit()], t_stop=1e-9, dt=1e-12,
                               diagnostics=False)
        assert meter.delta.counter("circuit_transient_steps") == 1000


class TestCircuitSpans:
    def test_transient_and_assemble_spans_recorded(self):
        tracer = get_tracer()
        tracer.reset()
        previous = tracer.enabled
        tracer.enabled = True
        try:
            circuit = _rlc_circuit()
            transient_analysis([circuit], t_stop=1e-9, dt=1e-12)
            operating_point(circuit)
            roots = [sp.to_dict() for sp in tracer.drain()]
        finally:
            tracer.enabled = previous
        names = [r["name"] for r in roots]
        assert "circuit.assemble" in names
        assert "circuit.transient" in names
        assert "circuit.dc" in names
        transient = next(r for r in roots if r["name"] == "circuit.transient")
        assert transient["tags"]["steps"] == 1000
        assert transient["tags"]["factor_seconds"] >= 0.0
        assert transient["tags"]["size"] > 0
        # diagnostics execute under their own child span
        assert _find_span(transient, "circuit.diagnostics") is not None

    def test_batch_keeps_per_deck_spans_and_step_counts(self):
        small = _rlc_circuit()
        large = _rlc_circuit()
        large.add_resistor("R2", "out", "tail", 10.0)
        large.add_capacitor("C2", "tail", "0", 1e-13)
        tracer = get_tracer()
        tracer.reset()
        previous = tracer.enabled
        tracer.enabled = True
        try:
            with metrics_meter() as meter:
                results = transient_analysis([small, large], t_stop=1e-9,
                                             dt=1e-12)
            roots = [sp.to_dict() for sp in tracer.drain()]
        finally:
            tracer.enabled = previous
        # Steps count per deck: two decks of 1000 steps each.
        assert meter.delta.counter("circuit_transient_steps") == 2000
        transients = [r for r in roots if r["name"] == "circuit.transient"]
        sizes = [r.diagnostics.matrix_size for r in results]
        assert [t["tags"]["size"] for t in transients] == sizes
        assert sizes[0] < sizes[1]
        for transient in transients:
            assert transient["tags"]["steps"] == 1000
            assert transient["metrics"]["circuit_transient_steps"] == 1000
            assert _find_span(transient, "circuit.diagnostics") is not None
        # One shared factorization, reported on every deck.
        factor = {t["tags"]["factor_seconds"] for t in transients}
        assert factor == {r.diagnostics.factor_seconds for r in results}
        assert len(factor) == 1
        [batch] = [r for r in roots if r["name"] == "circuit.batch"]
        assert batch["tags"]["decks"] == 2
        assert batch["tags"]["unknowns"] == sum(sizes)

    def test_spans_disabled_still_produces_diagnostics(self):
        with spans_disabled():
            [result] = transient_analysis([_rlc_circuit()], t_stop=1e-9,
                                          dt=1e-12)
        assert result.diagnostics is not None
        assert result.diagnostics.steps == 1000


def _reference_lte(assembled, x, time, dt, method, max_probes=16):
    """Step-doubling LTE probe by probe: one solve pair per step."""
    from repro.circuit.backend import factorize

    g, c = assembled.stamps.g_csc(), assembled.stamps.c_csc()
    half = dt / 2.0
    if method == "trapezoidal":
        lu = factorize(2.0 * c / half + g)
        rhs_matrix = (2.0 * c / half - g).tocsr()
    else:
        lu = factorize(c / half + g)
        rhs_matrix = (c / half).tocsr()
    n_steps = len(time) - 1
    probes = np.unique(
        np.linspace(0, n_steps - 1, min(max_probes, n_steps)).astype(int))
    scale = float(np.max(np.abs(x)))
    source = assembled.stamps.source_vector
    errors = []
    for k in probes:
        b0, bm, b1 = source(time[k]), source(time[k] + half), source(
            time[k + 1])
        if method == "trapezoidal":
            x_mid = lu.solve(rhs_matrix @ x[k] + b0 + bm)
            x_end = lu.solve(rhs_matrix @ x_mid + bm + b1)
        else:
            x_mid = lu.solve(rhs_matrix @ x[k] + bm)
            x_end = lu.solve(rhs_matrix @ x_mid + b1)
        errors.append(np.max(np.abs(x_end - x[k + 1])) / scale)
    return {"max": float(np.max(errors)),
            "p95": float(np.percentile(errors, 95.0)),
            "probes": len(probes)}


def _reference_energy(circuit, assembled, x, time):
    """Energy ledger element by element."""
    def volts(node):
        idx = assembled.node_index[node]
        return np.zeros(len(time)) if idx < 0 else x[:, idx]

    p_source = np.zeros(len(time))
    p_diss = np.zeros(len(time))
    e0 = e1 = 0.0
    for element in circuit.elements:
        dv = volts(element.node1) - volts(element.node2)
        if isinstance(element, Resistor):
            p_diss += dv * dv / element.resistance
        elif isinstance(element, Capacitor):
            e0 += 0.5 * element.capacitance * dv[0] ** 2
            e1 += 0.5 * element.capacitance * dv[-1] ** 2
        elif isinstance(element, (VoltageSource, VCVS)):
            p_source += -dv * x[:, assembled.branch_row(element.name)]
        elif isinstance(element, CurrentSource):
            p_source += -dv * np.array([element.waveform(t) for t in time])
    inductors = [e for e in circuit.elements if isinstance(e, Inductor)]
    index = {e.name: i for i, e in enumerate(inductors)}
    l_matrix = np.diag([e.inductance for e in inductors])
    for mutual in circuit.mutuals:
        i, j = index[mutual.inductor1], index[mutual.inductor2]
        l_matrix[i, j] = l_matrix[j, i] = mutual.mutual
    rows = [assembled.branch_row(e.name) for e in inductors]
    e0 += 0.5 * float(x[0, rows] @ l_matrix @ x[0, rows])
    e1 += 0.5 * float(x[-1, rows] @ l_matrix @ x[-1, rows])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    e_in = float(trapezoid(p_source, time))
    e_diss = float(trapezoid(p_diss, time))
    denom = max(abs(e_in), abs(e_diss), abs(e1 - e0), 1e-30)
    return {"input": e_in, "dissipated": e_diss, "stored_delta": e1 - e0,
            "residual": abs(e_in - e_diss - (e1 - e0)) / denom}


class TestVectorizedDiagnostics:
    """Probe stacks and per-kind gathers reproduce the loops bit for bit."""

    @staticmethod
    def _mixed_circuit():
        # A falling pulse drives the state negative, so max |x| is the
        # negated minimum; every element kind the ledger knows appears.
        c = Circuit("mixed")
        c.add_voltage_source("V1", "a", "0", PulseSource(
            v1=0.0, v2=-1.0, delay=0.0, rise=2e-11, fall=2e-11,
            width=1e-9, period=0.0))
        c.add_resistor("R1", "a", "b", 10.0)
        c.add_inductor("L1", "b", "c", 1e-9)
        c.add_inductor("L2", "c", "0", 2e-9)
        c.add_mutual("K1", "L1", "L2", coupling=0.3)
        c.add_capacitor("C1", "c", "0", 1e-13)
        c.add_capacitor("C2", "b", "c", 5e-14)
        c.add_current_source("I1", "0", "c", SineSource(0.0, 1e-3, 2e9))
        c.add_vcvs("E1", "d", "0", "c", "0", 2.0)
        c.add_resistor("R2", "d", "0", 50.0)
        c.add_resistor("R3", "b", "d", 75.0)
        return c

    @staticmethod
    def _htree_circuit():
        # An extracted deck: element counts of the paper's H-trees.
        from repro.clocktree.extractor import ClocktreeRLCExtractor
        from repro.core.frequency import significant_frequency
        from repro.experiments.htree_skew import default_htree

        htree = default_htree(levels=3, asymmetry=1.37)
        extractor = ClocktreeRLCExtractor(
            htree.config,
            frequency=significant_frequency(htree.buffer.rise_time),
        )
        return extractor.build_netlist(htree).circuit

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    @pytest.mark.parametrize("deck", ["mixed", "htree"])
    def test_bitwise_equal_to_per_probe_and_per_element_loops(self, deck,
                                                               method):
        circuit = (self._mixed_circuit() if deck == "mixed"
                   else self._htree_circuit())
        # Batch it behind another deck: the states arrive as a strided
        # column view of the shared history.
        [_, result] = transient_analysis(
            [_rlc_circuit(), circuit], t_stop=1e-9, dt=1e-12, method=method,
            diagnostics=False)
        assembled = circuit.assemble()
        columns = [None] * assembled.size
        for node, idx in assembled.node_index.items():
            if idx >= 0:
                columns[idx] = result.node_voltages[node]
        for i, name in enumerate(assembled.branch_names):
            columns[assembled.num_nodes + i] = result.branch_currents[name]
        x = np.array(columns).T
        first_node = circuit.nodes[0]
        view = result.node_voltages[first_node].base[:, -assembled.size:]
        assert np.array_equal(view, x) and not view.flags.c_contiguous
        if deck == "mixed":
            assert np.max(np.abs(x)) == -np.min(x)
        time = result.time
        assert estimate_local_truncation_error(
            assembled, view, time, 1e-12, method) == _reference_lte(
            assembled, x, time, 1e-12, method)
        assert energy_balance(circuit, assembled, view, time) == (
            _reference_energy(circuit, assembled, x, time))


class TestValidation:
    def test_bad_arguments_rejected(self):
        circuit = _rlc_circuit()
        with pytest.raises(CircuitError):
            transient_analysis([circuit], t_stop=0.0, dt=1e-12)
        with pytest.raises(CircuitError):
            transient_analysis([circuit], t_stop=1e-9, dt=2e-9)
        with pytest.raises(CircuitError):
            transient_analysis([circuit], t_stop=1e-9, dt=1e-12, method="rk4")
        with pytest.raises(CircuitError):
            transient_analysis([circuit], t_stop=1e-9, dt=1e-12,
                               initial="warm")
