"""Cross-cutting property-based tests (hypothesis).

These check the physical and mathematical invariants the whole library
rests on, over randomized geometry and circuits: energy positivity of
inductance matrices, exactness of the Foundation reductions, network
reciprocity, interpolation consistency, and lossless netlist round
trips.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.constants import um
from repro.geometry.primitives import Point3D, RectBar
from repro.geometry.trace import TraceBlock
from repro.peec.hoer_love import bar_mutual_inductance, bar_self_inductance
from repro.peec.network import FilamentNetwork
from repro.peec.solver import Conductor, PartialInductanceSolver

# geometry strategies: micron-scale on-chip dimensions
widths = st.floats(0.5, 20.0)
spacings = st.floats(0.5, 30.0)
lengths = st.floats(50.0, 3000.0)
thicknesses = st.floats(0.3, 4.0)

FAST = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestInductanceEnergyInvariants:
    @given(w1=widths, w2=widths, s=spacings, l=lengths, t=thicknesses)
    @FAST
    def test_two_bar_matrix_positive_definite(self, w1, w2, s, l, t):
        b1 = RectBar(Point3D(0, 0, 0), um(l), um(w1), um(t))
        b2 = RectBar(Point3D(0, um(w1 + s), 0), um(l), um(w2), um(t))
        l11 = bar_self_inductance(b1)
        l22 = bar_self_inductance(b2)
        m = bar_mutual_inductance(b1, b2)
        matrix = np.array([[l11, m], [m, l22]])
        assert np.all(np.linalg.eigvalsh(matrix) > 0)

    @given(w=widths, s=spacings, l=lengths)
    @FAST
    def test_mutual_bounded_by_geometric_mean(self, w, s, l):
        b1 = RectBar(Point3D(0, 0, 0), um(l), um(w), um(1))
        b2 = RectBar(Point3D(0, um(w + s), 0), um(l), um(w), um(1))
        m = bar_mutual_inductance(b1, b2)
        self_l = bar_self_inductance(b1)
        assert 0 < m < self_l

    @given(w=widths, l=lengths, scale=st.floats(1.1, 4.0))
    @FAST
    def test_self_inductance_superlinear_in_length(self, w, l, scale):
        short = bar_self_inductance(
            RectBar(Point3D(0, 0, 0), um(l), um(w), um(1))
        )
        long = bar_self_inductance(
            RectBar(Point3D(0, 0, 0), um(l * scale), um(w), um(1))
        )
        assert long > scale * short


class TestFoundationReductionProperty:
    @given(
        w=st.floats(1.0, 6.0),
        s=st.floats(1.0, 10.0),
        l=st.floats(100.0, 1000.0),
        n=st.integers(3, 5),
    )
    @FAST
    def test_pairwise_reduction_exact_at_uniform_current(self, w, s, l, n):
        """The paper's Foundations as a property: any pair extracted from
        an n-trace block equals the 2-trace subproblem, exactly."""
        block = TraceBlock.from_widths_and_spacings(
            widths=[um(w)] * n, spacings=[um(s)] * (n - 1),
            length=um(l), thickness=um(1), ground_flags=[False] * n,
        )
        solver_full = PartialInductanceSolver([
            Conductor.from_bar(t.name, t.to_bar()) for t in block.traces
        ])
        lp_full = solver_full.conductor_lp_matrix()
        sub = block.subblock([0, n - 1])
        solver_pair = PartialInductanceSolver([
            Conductor.from_bar(t.name, t.to_bar()) for t in sub.traces
        ])
        lp_pair = solver_pair.conductor_lp_matrix()
        assert lp_full[0, n - 1] == pytest.approx(lp_pair[0, 1], rel=1e-9)
        assert lp_full[0, 0] == pytest.approx(lp_pair[0, 0], rel=1e-9)


class TestNetworkReciprocity:
    @given(
        s1=st.floats(2.0, 20.0),
        s2=st.floats(2.0, 20.0),
        l=st.floats(100.0, 1000.0),
        f=st.floats(1e8, 1e10),
    )
    @FAST
    def test_transfer_impedance_symmetric(self, s1, s2, l, f):
        """Z(i, j) == Z(j, i) for any passive reciprocal network."""
        net = FilamentNetwork(ground="gnd")
        net.add_conductor(
            "a", RectBar(Point3D(0, 0, 0), um(l), um(2), um(1)),
            "pa", "far",
        )
        net.add_conductor(
            "b", RectBar(Point3D(0, um(s1), 0), um(l), um(2), um(1)),
            "pb", "far",
        )
        net.add_conductor(
            "ret", RectBar(Point3D(0, um(s1 + s2), 0), um(l), um(2), um(1)),
            "gnd", "far",
        )
        za_b = net.solve(f, {"pa": 1.0}).node_voltages["pb"]
        zb_a = net.solve(f, {"pb": 1.0}).node_voltages["pa"]
        # reciprocity is exact in the model; the tolerance only absorbs
        # the conditioning of the dense complex solve, which hypothesis
        # occasionally pushes past 1e-9 (a real asymmetry would be O(1))
        assert za_b == pytest.approx(zb_a, rel=1e-6)

    @given(f=st.floats(1e7, 2e10))
    @FAST
    def test_loop_impedance_passive(self, f):
        net = FilamentNetwork(ground="gnd")
        net.add_conductor(
            "sig", RectBar(Point3D(0, 0, 0), um(500), um(3), um(1)),
            "in", "far",
        )
        net.add_conductor(
            "ret", RectBar(Point3D(0, um(10), 0), um(500), um(3), um(1)),
            "gnd", "far",
        )
        z = net.input_impedance("in", "gnd", f)
        assert z.real > 0          # dissipative
        assert z.imag > 0          # inductive


class TestSplineConsistency:
    @given(
        values=st.lists(st.floats(-5, 5), min_size=3, max_size=7),
        q=st.floats(0.0, 1.0),
    )
    @FAST
    def test_tensor_spline_matches_1d_spline(self, values, q):
        from repro.tables.grid import TensorSplineInterpolator
        from repro.tables.spline import CubicSpline1D

        x = np.linspace(0, 1, len(values))
        direct = CubicSpline1D(x, values)(q)
        tensor = TensorSplineInterpolator([x], values,
                                          warn_on_extrapolation=False)(q)
        assert tensor == pytest.approx(direct, abs=1e-12)

    @given(
        rows=st.integers(3, 5), cols=st.integers(3, 5),
        qx=st.floats(0.05, 0.95), qy=st.floats(0.05, 0.95),
    )
    @FAST
    def test_bicubic_vs_tensor_2d(self, rows, cols, qx, qy):
        from repro.tables.grid import TensorSplineInterpolator
        from repro.tables.spline import BicubicSpline

        rng = np.random.default_rng(rows * 10 + cols)
        x1 = np.linspace(0, 1, rows)
        x2 = np.linspace(0, 1, cols)
        values = rng.normal(size=(rows, cols))
        bicubic = BicubicSpline(x1, x2, values)(qx, qy)
        tensor = TensorSplineInterpolator([x1, x2], values,
                                          warn_on_extrapolation=False)(qx, qy)
        assert tensor == pytest.approx(bicubic, abs=1e-10)


class TestSpiceRoundTripProperty:
    @given(
        r=st.floats(1.0, 1e5),
        c=st.floats(1e-15, 1e-9),
        l=st.floats(1e-12, 1e-7),
        k=st.floats(0.05, 0.95),
    )
    @FAST
    def test_values_survive_round_trip(self, r, c, l, k):
        from repro.circuit.netlist import Circuit
        from repro.circuit.spice_export import to_spice
        from repro.circuit.spice_import import from_spice

        original = Circuit()
        original.add_voltage_source("V1", "a", "0", 1.0)
        original.add_resistor("R1", "a", "b", r)
        original.add_inductor("L1", "b", "c", l)
        original.add_inductor("L2", "d", "0", l * 2)
        original.add_resistor("R2", "d", "0", 50.0)
        original.add_capacitor("C1", "c", "0", c)
        original.add_mutual("K1", "L1", "L2", coupling=k)

        rebuilt = from_spice(to_spice(original)).circuit
        assert rebuilt.element("R1").resistance == pytest.approx(r, rel=1e-5)
        assert rebuilt.element("L1").inductance == pytest.approx(l, rel=1e-5)
        assert rebuilt.element("C1").capacitance == pytest.approx(c, rel=1e-5)
        assert rebuilt.mutuals[0].mutual == pytest.approx(
            original.mutuals[0].mutual, rel=1e-4
        )


class TestCapacitanceMatrixProperties:
    @given(
        w=st.floats(0.5, 5.0),
        s=st.floats(0.5, 5.0),
        h=st.floats(0.5, 4.0),
        n=st.integers(2, 5),
    )
    @FAST
    def test_maxwell_form_for_random_blocks(self, w, s, h, n):
        from repro.rc.capacitance import CapacitanceModel, block_capacitance_matrix

        block = TraceBlock.from_widths_and_spacings(
            widths=[um(w)] * n, spacings=[um(s)] * (n - 1),
            length=um(500), thickness=um(1), ground_flags=[False] * n,
        )
        matrix = block_capacitance_matrix(block, CapacitanceModel(um(h)))
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) > 0)
        off = matrix - np.diag(np.diag(matrix))
        assert np.all(off <= 0)
        # diagonally dominant => positive semidefinite
        for i in range(n):
            assert matrix[i, i] + (off[i].sum()) >= -1e-25


class TestTransientStability:
    @given(
        r=st.floats(1.0, 100.0),
        l=st.floats(0.1, 5.0),
        c=st.floats(0.1, 5.0),
    )
    @FAST
    def test_passive_rlc_settles_to_source(self, r, l, c):
        from repro.circuit.netlist import Circuit
        from repro.circuit.sources import PulseSource
        from repro.circuit.transient import transient_analysis

        circuit = Circuit()
        circuit.add_voltage_source(
            "V1", "in", "0", PulseSource(0, 1.0, rise=1e-12, width=1.0)
        )
        circuit.add_resistor("R1", "in", "m", r)
        circuit.add_inductor("L1", "m", "out", l * 1e-9)
        circuit.add_capacitor("C1", "out", "0", c * 1e-12)
        tau = max(r * c * 1e-12, np.sqrt(l * 1e-9 * c * 1e-12))
        ring_decay = 2.0 * l * 1e-9 / r   # underdamped envelope constant
        t_stop = max(200 * tau, 15 * ring_decay, 2e-9)
        [result] = transient_analysis([circuit], t_stop=t_stop,
                                      dt=t_stop / 4000)
        wave = result.voltage("out")
        assert abs(wave.final_value - 1.0) < 0.05
        assert np.max(np.abs(wave.values)) < 2.5   # bounded (passive)
