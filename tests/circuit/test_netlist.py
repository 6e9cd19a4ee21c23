"""Circuit construction and MNA assembly."""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.errors import CircuitError


def rc_circuit():
    c = Circuit("rc")
    c.add_voltage_source("V1", "in", "0", 1.0)
    c.add_resistor("R1", "in", "out", 1e3)
    c.add_capacitor("C1", "out", "0", 1e-12)
    return c


class TestConstruction:
    def test_duplicate_names_rejected(self):
        c = Circuit()
        c.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(CircuitError):
            c.add_capacitor("R1", "a", "0", 1e-12)

    def test_self_connection_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().add_resistor("R1", "a", "a", 1.0)

    def test_nonpositive_values_rejected(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.add_resistor("R1", "a", "0", 0.0)
        with pytest.raises(CircuitError):
            c.add_capacitor("C1", "a", "0", -1e-12)
        with pytest.raises(CircuitError):
            c.add_inductor("L1", "a", "0", 0.0)

    def test_nodes_in_first_use_order(self):
        c = rc_circuit()
        assert c.nodes == ["in", "out"]

    def test_element_lookup(self):
        c = rc_circuit()
        assert c.element("R1").resistance == 1e3
        with pytest.raises(CircuitError):
            c.element("R9")

    def test_branch_elements(self):
        c = rc_circuit()
        c.add_inductor("L1", "out", "0", 1e-9)
        assert [e.name for e in c.branch_elements] == ["V1", "L1"]


class TestMutuals:
    def make_pair(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", 1.0)
        c.add_inductor("L1", "a", "0", 4e-9)
        c.add_inductor("L2", "b", "0", 1e-9)
        c.add_resistor("RL", "b", "0", 50.0)
        return c

    def test_coupling_coefficient_form(self):
        c = self.make_pair()
        k = c.add_mutual("K1", "L1", "L2", coupling=0.5)
        assert k.mutual == pytest.approx(0.5 * np.sqrt(4e-9 * 1e-9))

    def test_direct_mutual_form(self):
        c = self.make_pair()
        k = c.add_mutual("K1", "L1", "L2", mutual=1e-9)
        assert k.mutual == 1e-9

    def test_passivity_guard(self):
        c = self.make_pair()
        with pytest.raises(CircuitError):
            c.add_mutual("K1", "L1", "L2", mutual=3e-9)   # > sqrt(L1 L2)
        with pytest.raises(CircuitError):
            c.add_mutual("K2", "L1", "L2", coupling=1.0)

    def test_unknown_inductor(self):
        c = self.make_pair()
        with pytest.raises(CircuitError):
            c.add_mutual("K1", "L1", "L9", coupling=0.5)

    def test_exactly_one_spec(self):
        c = self.make_pair()
        with pytest.raises(CircuitError):
            c.add_mutual("K1", "L1", "L2")
        with pytest.raises(CircuitError):
            c.add_mutual("K1", "L1", "L2", mutual=1e-10, coupling=0.1)


class TestAssembly:
    def test_size_counts_nodes_and_branches(self):
        c = rc_circuit()
        assembled = c.assemble()
        assert assembled.num_nodes == 2
        assert assembled.size == 3    # 2 nodes + 1 V-source branch

    def test_empty_circuit_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().assemble()

    def test_no_ground_rejected(self):
        c = Circuit()
        c.add_resistor("R1", "a", "b", 1.0)
        with pytest.raises(CircuitError):
            c.assemble()

    def test_g_matrix_resistor_stamp(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "b", 2.0)
        c.add_resistor("R2", "b", "0", 2.0)
        assembled = c.assemble()
        g = assembled.stamps.g_csc().toarray()
        ia, ib = assembled.node_row("a"), assembled.node_row("b")
        assert g[ia, ia] == pytest.approx(0.5)
        assert g[ib, ib] == pytest.approx(1.0)
        assert g[ia, ib] == pytest.approx(-0.5)

    def test_c_matrix_symmetric(self):
        c = rc_circuit()
        c.add_inductor("L1", "out", "0", 1e-9)
        c.add_inductor("L2", "in", "0", 1e-9)
        c.add_mutual("K", "L1", "L2", coupling=0.3)
        c_matrix = c.assemble().stamps.c_csc().toarray()
        assert np.allclose(c_matrix, c_matrix.T)

    def test_branch_row_lookup(self):
        assembled = rc_circuit().assemble()
        assert assembled.branch_row("V1") == assembled.num_nodes
        with pytest.raises(CircuitError):
            assembled.branch_row("R1")

    def test_node_row_unknown(self):
        assembled = rc_circuit().assemble()
        with pytest.raises(CircuitError):
            assembled.node_row("zzz")

    def test_initial_state_from_ics(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", 0.0)
        c.add_resistor("R1", "a", "b", 1.0)
        c.add_capacitor("C1", "b", "0", 1e-12, initial_voltage=0.7)
        c.add_inductor("L1", "b", "0", 1e-9, initial_current=1e-3)
        assembled = c.assemble()
        x0 = assembled.initial_state()
        assert x0[assembled.node_row("b")] == pytest.approx(0.7)
        assert x0[assembled.branch_row("L1")] == pytest.approx(1e-3)
