"""The sparse MNA path against an independent dense numpy oracle.

Every analysis factors the CSC ``G`` / ``C`` pair with ``splu``.  The
oracle below shares no code with :mod:`repro.circuit.backend`: it reads
the stamped matrices as dense arrays (``stamps.g_csc().toarray()``) and
solves them with plain numpy/LAPACK -- ``np.linalg.solve`` for DC and
the moment recursion, a dense-LU trapezoidal / backward-Euler stepper
for transients, ``np.linalg.lstsq`` for a singular DC start.  Production
and oracle must agree to solver roundoff (<= 1e-10 relative -- far
tighter than any physical tolerance in the suite).

Decks: hypothesis-random passive RLC ladders, the same ladders with
every inductor pair mutually coupled, a seeded H-tree deck from the
real extraction flow (mutuals, buffer VCVS stages) and a coupled bus
from :mod:`repro.bus.extractor` (dense mutual inductance between every
pair of matching sections).  The four decks also run as one transient
batch, which must agree with the oracle deck by deck and with each deck
run alone.  Also pinned here: the singular-DC start fallback matches
the minimum-norm least-squares solution (and is flagged only on its own
deck of a batch), a singular deck is named in the batch's error, and
the chip-scale LTE probe subsampling kicks in exactly above its size
cutoff.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuit.ac import ac_analysis
from repro.circuit.dc import operating_point
from repro.circuit.diagnostics import LTE_SUBSAMPLE_PROBES, LTE_SUBSAMPLE_SIZE
from repro.circuit.moments import compute_moments
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PulseSource
from repro.circuit.transient import transient_analysis
from repro.errors import CircuitError, SolverError
from repro.telemetry import LTE_SUBSAMPLED, SOLVER_FACTOR_SPARSE, get_registry
from repro.telemetry.registry import DC_START_FALLBACK, TRANSIENT_STEPS

#: Acceptance bound: production and oracle agree to this relative tolerance.
AGREEMENT_RTOL = 1e-10

#: The gmin every analysis loads onto the node-voltage diagonal.
GMIN = 1e-12

FAST = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

dampings = st.floats(0.3, 2.0)
inductances = st.floats(1e-10, 1e-8)
capacitances = st.floats(1e-14, 1e-12)
stage = st.tuples(dampings, inductances, capacitances)
ladders = st.lists(stage, min_size=1, max_size=4)
methods = st.sampled_from(["trapezoidal", "backward_euler"])


# ----------------------------------------------------------------------
# dense numpy oracle
# ----------------------------------------------------------------------
class DenseOracle:
    """Textbook dense MNA solves of one assembled circuit."""

    def __init__(self, circuit):
        self.assembled = circuit.assemble()
        stamps = self.assembled.stamps
        self.g = stamps.g_csc().toarray()
        self.c = stamps.c_csc().toarray()
        self.source = stamps.source_vector
        self.g_loaded = self.g.copy()
        nodes = np.arange(self.assembled.num_nodes)
        self.g_loaded[nodes, nodes] += GMIN

    def dc(self, time=0.0):
        return np.linalg.solve(self.g_loaded, self.source(time))

    def transient(self, t_stop, dt, method):
        n_steps = int(round(t_stop / dt))
        time = np.linspace(0.0, t_stop, n_steps + 1)
        if method == "trapezoidal":
            lhs = 2.0 * self.c / dt + self.g
            rhs_matrix = 2.0 * self.c / dt - self.g
        else:
            lhs = self.c / dt + self.g
            rhs_matrix = self.c / dt
        lu = scipy.linalg.lu_factor(lhs)
        x = np.empty((n_steps + 1, self.assembled.size))
        x[0] = self.dc()
        for k in range(n_steps):
            b_next = self.source(time[k + 1])
            rhs = rhs_matrix @ x[k] + b_next
            if method == "trapezoidal":
                rhs = rhs + self.source(time[k])
            x[k + 1] = scipy.linalg.lu_solve(lu, rhs)
        return x

    def ac(self, frequencies):
        b = self.assembled.stamps.ac_source_vector()
        return np.array([
            np.linalg.solve(self.g + 2j * np.pi * f * self.c, b)
            for f in frequencies
        ])

    def moments(self, order):
        out = [self.dc()]
        for _ in range(order):
            out.append(np.linalg.solve(self.g_loaded, -(self.c @ out[-1])))
        return np.array(out)

    def state(self, node_voltages, branch_currents, k=None):
        """Production result dicts laid out as the oracle's x vector(s)."""
        a = self.assembled
        pick = (lambda v: v) if k is None else (lambda v: v[k])
        columns = [None] * a.size
        for node, idx in a.node_index.items():
            if idx >= 0:
                columns[idx] = pick(node_voltages[node])
        for i, name in enumerate(a.branch_names):
            columns[a.num_nodes + i] = pick(branch_currents[name])
        return np.array(columns).T


def assert_agreement(values, reference):
    """Relative agreement against the scale of the dense reference."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = np.max(np.abs(reference))
    if scale == 0.0:
        scale = 1.0
    np.testing.assert_allclose(
        values, reference, rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL * scale,
    )


def check_dc(circuit):
    oracle = DenseOracle(circuit)
    voltages = operating_point(circuit)
    x = oracle.dc()
    for node, idx in oracle.assembled.node_index.items():
        assert_agreement(voltages[node], x[idx] if idx >= 0 else 0.0)


def check_transient(circuit, t_stop, dt, method="trapezoidal"):
    oracle = DenseOracle(circuit)
    [result] = transient_analysis([circuit], t_stop=t_stop, dt=dt,
                                  method=method, diagnostics=False)
    x = oracle.state(result.node_voltages, result.branch_currents)
    reference = oracle.transient(t_stop, dt, method)
    assert x.shape == reference.shape
    for col in range(reference.shape[1]):
        assert_agreement(x[:, col], reference[:, col])


def check_ac(circuit, frequencies):
    oracle = DenseOracle(circuit)
    result = ac_analysis(circuit, frequencies)
    x = oracle.state(result.node_voltages, result.branch_currents)
    reference = oracle.ac(frequencies)
    for col in range(reference.shape[1]):
        for part in (np.real, np.imag):
            assert_agreement(part(x[:, col]), part(reference[:, col]))


def check_moments(circuit, order=4):
    reference = DenseOracle(circuit).moments(order)
    production = compute_moments(circuit, order=order).moments
    # Moment magnitudes fall as (RC)^k; compare order by order.
    for k in range(order + 1):
        assert_agreement(production[k], reference[k])


# ----------------------------------------------------------------------
# decks
# ----------------------------------------------------------------------
def _ladder(stages, coupling=0.0, ac_magnitude=0.0):
    """Step-driven RLC ladder parameterized by damping ratio per stage.

    With *coupling* > 0 every pair of inductors is mutually coupled by
    that coefficient (a uniform-k inductance matrix, positive definite
    for k < 1).
    """
    c = Circuit("ladder")
    c.add_voltage_source(
        "Vs", "n0", "0", PulseSource(0.0, 1.0, rise=1e-11, width=1.0),
        ac_magnitude=ac_magnitude,
    )
    node = "n0"
    for i, (zeta, l, cap) in enumerate(stages):
        r = 2.0 * zeta * np.sqrt(l / cap)
        mid = f"m{i}"
        nxt = f"n{i + 1}"
        c.add_resistor(f"R{i}", node, mid, r)
        c.add_inductor(f"L{i}", mid, nxt, l)
        c.add_capacitor(f"C{i}", nxt, "0", cap)
        node = nxt
    if coupling:
        for i in range(len(stages)):
            for j in range(i + 1, len(stages)):
                c.add_mutual(f"K{i}_{j}", f"L{i}", f"L{j}", coupling=coupling)
    return c


@pytest.fixture(scope="module")
def htree_netlist():
    """A seeded H-tree RLC deck from the real extraction flow."""
    from repro.clocktree.extractor import ClocktreeRLCExtractor
    from repro.core.frequency import significant_frequency
    from repro.experiments.htree_skew import default_htree

    htree = default_htree(levels=2)
    extractor = ClocktreeRLCExtractor(
        htree.config, frequency=significant_frequency(htree.buffer.rise_time)
    )
    return extractor.build_netlist(htree, include_inductance=True)


@pytest.fixture(scope="module")
def bus_circuit():
    """A 5-trace shielded bus with mutuals between all matching sections,
    its middle signal driven by a step through a driver resistance."""
    from repro.bus import BusRLCExtractor
    from repro.constants import GHz, um
    from repro.geometry.trace import TraceBlock
    from repro.rc.capacitance import CapacitanceModel

    block = TraceBlock.from_widths_and_spacings(
        widths=[um(2)] * 5, spacings=[um(2)] * 4,
        length=um(1000), thickness=um(1),
    )
    extractor = BusRLCExtractor(
        frequency=GHz(3.2),
        capacitance_model=CapacitanceModel(height_below=um(2)),
    )
    netlist = extractor.build_netlist(extractor.extract(block), sections=3)
    circuit = netlist.circuit
    assert circuit.mutuals
    signals = sorted(netlist.input_nodes)
    aggressor = signals[len(signals) // 2]
    circuit.add_voltage_source(
        "Vagg", "agg_src", "0",
        PulseSource(0.0, 1.8, delay=2e-11, rise=2e-11, width=1.0),
    )
    circuit.add_resistor("Ragg", "agg_src", netlist.input_nodes[aggressor],
                         25.0)
    for name in signals:
        circuit.add_capacitor(f"Cload_{name}", netlist.output_nodes[name],
                              "0", 20e-15)
        if name != aggressor:
            circuit.add_resistor(f"Rterm_{name}", netlist.input_nodes[name],
                                 "0", 50.0)
    return circuit


# ----------------------------------------------------------------------
# agreement
# ----------------------------------------------------------------------
class TestLadderAgreement:
    @given(stages=ladders)
    @FAST
    def test_dc_operating_point(self, stages):
        check_dc(_ladder(stages))

    @given(stages=ladders, method=methods)
    @FAST
    def test_transient_waveforms(self, stages, method):
        check_transient(_ladder(stages), t_stop=2e-9, dt=1e-11, method=method)

    @given(stages=ladders)
    @FAST
    def test_moments(self, stages):
        check_moments(_ladder(stages))


class TestCoupledLadderAgreement:
    """Every inductor pair coupled: the densest C block MNA produces."""

    couplings = st.floats(0.05, 0.9)
    coupled_ladders = st.lists(stage, min_size=2, max_size=5)

    @given(stages=coupled_ladders, k=couplings)
    @FAST
    def test_dc_operating_point(self, stages, k):
        check_dc(_ladder(stages, coupling=k))

    @given(stages=coupled_ladders, k=couplings, method=methods)
    @FAST
    def test_transient_waveforms(self, stages, k, method):
        check_transient(_ladder(stages, coupling=k), t_stop=2e-9, dt=1e-11,
                        method=method)

    @given(stages=coupled_ladders, k=couplings)
    @FAST
    def test_moments(self, stages, k):
        check_moments(_ladder(stages, coupling=k))

    @given(stages=coupled_ladders, k=couplings)
    @FAST
    def test_ac_sweep(self, stages, k):
        check_ac(_ladder(stages, coupling=k, ac_magnitude=1.0),
                 np.logspace(6.0, 11.0, 25))


class TestHTreeDeckAgreement:
    def test_transient_sparse_matches_dense(self, htree_netlist):
        check_transient(htree_netlist.circuit, t_stop=3e-10, dt=5e-13)

    def test_dc_sparse_matches_dense(self, htree_netlist):
        check_dc(htree_netlist.circuit)


class TestBusDeckAgreement:
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_transient(self, bus_circuit, method):
        check_transient(bus_circuit, t_stop=2e-10, dt=1e-12, method=method)

    def test_dc(self, bus_circuit):
        check_dc(bus_circuit)

    def test_moments(self, bus_circuit):
        check_moments(bus_circuit)


# ----------------------------------------------------------------------
# batches: several decks on one time grid
# ----------------------------------------------------------------------
class TestBatchAgreement:
    """One block-diagonal factorization, one solve per step for all."""

    @pytest.fixture(scope="class")
    def mixed_decks(self, htree_netlist, bus_circuit):
        return [
            _ladder([(0.7, 2e-9, 3e-13), (1.5, 5e-10, 1e-13)]),
            _ladder([(0.5, 1e-9, 2e-13), (1.2, 3e-9, 5e-13),
                     (0.9, 2e-9, 1e-13)], coupling=0.4),
            htree_netlist.circuit,
            bus_circuit,
        ]

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_mixed_batch_matches_dense_oracle(self, mixed_decks, method):
        t_stop, dt = 2e-10, 1e-12
        results = transient_analysis(mixed_decks, t_stop=t_stop, dt=dt,
                                     method=method, diagnostics=False)
        assert len(results) == len(mixed_decks)
        for circuit, result in zip(mixed_decks, results):
            oracle = DenseOracle(circuit)
            x = oracle.state(result.node_voltages, result.branch_currents)
            reference = oracle.transient(t_stop, dt, method)
            assert x.shape == reference.shape
            for col in range(reference.shape[1]):
                assert_agreement(x[:, col], reference[:, col])

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_deck_alone_matches_deck_in_batch(self, mixed_decks, method):
        batch = transient_analysis(mixed_decks, t_stop=2e-10, dt=1e-12,
                                   method=method)
        for circuit, in_batch in zip(mixed_decks, batch):
            [alone] = transient_analysis([circuit], t_stop=2e-10, dt=1e-12,
                                         method=method)
            oracle = DenseOracle(circuit)
            a = oracle.state(alone.node_voltages, alone.branch_currents)
            b = oracle.state(in_batch.node_voltages,
                             in_batch.branch_currents)
            scale = np.max(np.abs(a))
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12 * scale)
            assert in_batch.diagnostics.matrix_size == oracle.assembled.size
            assert in_batch.diagnostics.steps == alone.diagnostics.steps
            np.testing.assert_allclose(in_batch.diagnostics.lte_max,
                                       alone.diagnostics.lte_max, rtol=1e-6)
        factor_times = {r.diagnostics.factor_seconds for r in batch}
        assert len(factor_times) == 1  # the batch's one factorization

    def test_dc_fallback_flagged_only_on_its_deck(self):
        registry = get_registry()
        registry.reset()
        results = transient_analysis(
            [_ladder([(1.0, 1e-9, 1e-13)]), _parallel_inductors(10.0),
             _ladder([(0.6, 2e-9, 2e-13)])],
            t_stop=1e-10, dt=1e-12,
        )
        flags = [r.diagnostics.dc_start_fallback for r in results]
        assert flags == [False, True, False]
        assert registry.counter_value(DC_START_FALLBACK) == 1

    def test_singular_deck_is_named(self):
        # Node "c" only controls the VCVS: its KCL row is all zeros, so
        # the step matrix of this deck (and of any batch holding it) is
        # singular.
        floating = Circuit("floating-control")
        floating.add_voltage_source("V1", "a", "0", 1.0)
        floating.add_resistor("R1", "a", "b", 10.0)
        floating.add_capacitor("C1", "b", "0", 1e-13)
        floating.add_vcvs("E1", "d", "0", "c", "0", 2.0)
        floating.add_resistor("R2", "d", "0", 50.0)
        registry = get_registry()
        registry.reset()
        with pytest.raises(SolverError, match="floating-control"):
            transient_analysis(
                [_ladder([(1.0, 1e-9, 1e-13)]), floating],
                t_stop=1e-10, dt=1e-12, initial="zero",
            )
        assert registry.counter_value(TRANSIENT_STEPS) == 0

    def test_single_circuit_is_not_a_batch(self):
        with pytest.raises(CircuitError, match="sequence"):
            transient_analysis(_ladder([(1.0, 1e-9, 1e-13)]),
                               t_stop=1e-10, dt=1e-12)
        with pytest.raises(CircuitError, match="no circuits"):
            transient_analysis([], t_stop=1e-10, dt=1e-12)


# ----------------------------------------------------------------------
# singular DC start
# ----------------------------------------------------------------------
def _parallel_inductors(r_feed):
    """Two inductors in parallel at DC: singular but consistent."""
    c = Circuit("parallel-L")
    c.add_voltage_source("V1", "a", "0", 1.0)
    c.add_resistor("R1", "a", "b", r_feed)
    c.add_inductor("L1", "b", "0", 1e-9)
    c.add_inductor("L2", "b", "0", 2e-9)
    c.add_resistor("R2", "b", "0", 50.0)
    return c


class TestDCStartFallback:
    @pytest.mark.parametrize("r_feed", [10.0, 1.0, 0.1, 1e-2, 1e-3, 1e4])
    def test_matches_minimum_norm_least_squares(self, r_feed):
        circuit = _parallel_inductors(r_feed)
        oracle = DenseOracle(circuit)
        reference = np.linalg.lstsq(
            oracle.g_loaded, oracle.source(0.0), rcond=None)[0]
        registry = get_registry()
        registry.reset()
        [result] = transient_analysis([circuit], t_stop=1e-10, dt=1e-12)
        assert result.diagnostics.dc_start_fallback
        assert registry.counter_value(DC_START_FALLBACK) == 1
        start = oracle.state(result.node_voltages, result.branch_currents, k=0)
        assert_agreement(start, reference)


# ----------------------------------------------------------------------
# chip-scale LTE probe subsampling
# ----------------------------------------------------------------------
def _rc_chain(stages):
    """A long RC chain: one node per stage, chip-scale-sized cheaply."""
    c = Circuit("chain")
    c.add_voltage_source(
        "Vs", "n0", "0", PulseSource(0.0, 1.0, rise=1e-11, width=1.0)
    )
    node = "n0"
    for i in range(stages):
        nxt = f"n{i + 1}"
        c.add_resistor(f"R{i}", node, nxt, 10.0)
        c.add_capacitor(f"C{i}", nxt, "0", 1e-15)
        node = nxt
    return c


class TestLTESubsampling:
    def test_large_circuit_caps_probes_and_ticks_counter(self):
        circuit = _rc_chain(LTE_SUBSAMPLE_SIZE + 50)
        registry = get_registry()
        registry.reset()
        [result] = transient_analysis(
            [circuit], t_stop=1e-9, dt=5e-11, diagnostics=True, lte_probes=16,
        )
        assert registry.counter_value(LTE_SUBSAMPLED) == 1
        assert result.diagnostics.lte_probes <= LTE_SUBSAMPLE_PROBES
        assert registry.counter_value(SOLVER_FACTOR_SPARSE) >= 1

    def test_small_circuit_keeps_requested_probes(self):
        circuit = _rc_chain(20)
        registry = get_registry()
        registry.reset()
        [result] = transient_analysis(
            [circuit], t_stop=1e-9, dt=5e-11, diagnostics=True, lte_probes=16,
        )
        assert registry.counter_value(LTE_SUBSAMPLED) == 0
        assert result.diagnostics.lte_probes == 16

    def test_explicit_probe_request_below_cap_unchanged(self):
        circuit = _rc_chain(LTE_SUBSAMPLE_SIZE + 50)
        registry = get_registry()
        registry.reset()
        [result] = transient_analysis(
            [circuit], t_stop=1e-9, dt=5e-11, diagnostics=True, lte_probes=2,
        )
        assert registry.counter_value(LTE_SUBSAMPLED) == 0
        assert result.diagnostics.lte_probes <= 2
