"""Per-segment extraction and cascaded netlist formulation."""

import dataclasses
import math

import pytest

from repro.constants import GHz, ps, um
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor, SegmentRLC
from repro.clocktree.htree import HTree
from repro.clocktree.skew import compare_rc_vs_rlc
from repro.core.extraction import TableBasedExtractor
from repro.errors import CircuitError, GeometryError
from repro.experiments.htree_skew import default_htree
from repro.telemetry import metrics_meter
from repro.telemetry.registry import TABLE_LOOKUP


def config():
    return CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )


def extractor(**kwargs):
    return ClocktreeRLCExtractor(config(), frequency=GHz(3.2), **kwargs)


def htree(levels=1):
    return HTree.generate(levels=levels, root_length=um(2000), config=config())


class TestSegmentRLC:
    def test_validation(self):
        with pytest.raises(GeometryError):
            SegmentRLC(length=0.0, resistance=1.0, inductance=1e-9,
                       capacitance=1e-12)
        with pytest.raises(GeometryError):
            SegmentRLC(length=1e-3, resistance=1.0, inductance=-1e-9,
                       capacitance=1e-12)

    @pytest.mark.parametrize("field", ["length", "resistance", "inductance",
                                       "capacitance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        values = dict(length=1e-3, resistance=1.0, inductance=1e-9,
                      capacitance=1e-12)
        values[field] = value
        with pytest.raises(GeometryError, match="finite"):
            SegmentRLC(**values)


class TestDirectExtraction:
    def test_positive_rlc(self):
        rlc = extractor().segment_rlc(um(1000))
        assert rlc.resistance > 0
        assert rlc.inductance > 0
        assert rlc.capacitance > 0

    def test_capacitance_linear_in_length(self):
        ex = extractor()
        c1 = ex.segment_rlc(um(1000)).capacitance
        c2 = ex.segment_rlc(um(2000)).capacitance
        assert c2 == pytest.approx(2 * c1, rel=1e-6)

    def test_inductance_superlinear_in_length(self):
        ex = extractor()
        l1 = ex.segment_rlc(um(1000)).inductance
        l2 = ex.segment_rlc(um(2000)).inductance
        assert l2 > 1.9 * l1

    def test_direct_solve_cached(self):
        ex = extractor()
        ex.segment_rlc(um(1000))
        assert (config().signal_width, um(1000)) in ex._direct_cache

    def test_invalid_length(self):
        with pytest.raises(GeometryError):
            extractor().segment_rlc(0.0)

    def test_invalid_parameters(self):
        with pytest.raises(GeometryError):
            ClocktreeRLCExtractor(config(), frequency=0.0)
        with pytest.raises(GeometryError):
            ClocktreeRLCExtractor(config(), sections_per_segment=0)


class TestTableDrivenExtraction:
    @pytest.fixture(scope="class")
    def tables(self):
        return TableBasedExtractor.characterize(
            config(), frequency=GHz(3.2),
            widths=[um(5), um(10), um(15)],
            lengths=[um(500), um(1000), um(2000)],
        )

    def test_table_lookup_matches_direct(self, tables):
        ex_table = tables.as_clocktree_extractor()
        ex_direct = extractor()
        l_table = ex_table.segment_rlc(um(1000)).inductance
        l_direct = ex_direct.segment_rlc(um(1000)).inductance
        assert l_table == pytest.approx(l_direct, rel=0.02)

    def test_resistance_from_table(self, tables):
        ex = tables.as_clocktree_extractor()
        rlc = ex.segment_rlc(um(1000))
        direct_r, _ = config().loop_problem(um(10), um(1000)).loop_rl(GHz(3.2))
        assert rlc.resistance == pytest.approx(direct_r, rel=0.02)


class TestNetlistFormulation:
    def test_rlc_netlist_structure(self):
        netlist = extractor().build_netlist(htree(), include_inductance=True)
        names = {e.name for e in netlist.circuit.elements}
        assert "Vclk" in names
        assert "Rdrv_root" in names
        assert any(n.startswith("L_s_L") for n in names)
        assert netlist.includes_inductance

    def test_rc_netlist_has_no_inductors(self):
        netlist = extractor().build_netlist(htree(), include_inductance=False)
        from repro.circuit.elements import Inductor
        inductors = [e for e in netlist.circuit.elements
                     if isinstance(e, Inductor)]
        assert inductors == []

    def test_sink_nodes_per_leaf(self):
        tree = htree(levels=2)
        netlist = extractor().build_netlist(tree)
        assert set(netlist.sink_nodes) == {s.name for s in tree.leaves()}

    def test_total_rlc_preserved_across_sections(self):
        ex = extractor(sections_per_segment=5)
        tree = htree(levels=1)
        rlc = ex.segment_rlc(tree.segments[0].length)
        netlist = ex.build_netlist(tree)
        circuit = netlist.circuit
        r_total = sum(
            e.resistance for e in circuit.elements
            if e.name.startswith("R_s_L_")
        )
        l_total = sum(
            e.inductance for e in circuit.elements
            if e.name.startswith("L_s_L_")
        )
        c_total = sum(
            e.capacitance for e in circuit.elements
            if e.name.startswith("C_s_L_")
        )
        assert r_total == pytest.approx(rlc.resistance, rel=1e-9)
        assert l_total == pytest.approx(rlc.inductance, rel=1e-9)
        assert c_total == pytest.approx(rlc.capacitance, rel=1e-9)

    def test_buffers_inserted_at_internal_junctions(self):
        netlist = extractor().build_netlist(htree(levels=2))
        names = {e.name for e in netlist.circuit.elements}
        assert "Ebuf_s_L" in names
        assert "Rdrv_s_L" in names
        assert "Cin_s_L" in names
        # leaves carry sinks, not buffers
        assert "Ebuf_s_LL" not in names
        assert "Csink_s_LL" in names

    def test_sections_validated(self):
        with pytest.raises(CircuitError):
            extractor().build_netlist(htree(), sections=0)

    def test_netlist_simulates(self):
        from repro.circuit.transient import transient_analysis

        netlist = extractor().build_netlist(htree())
        [result] = transient_analysis([netlist.circuit], t_stop=2e-9, dt=1e-12)
        sink_node = next(iter(netlist.sink_nodes.values()))
        final = result.voltage(sink_node).final_value
        assert final == pytest.approx(1.8, rel=0.05)


def _cards(circuit):
    """Every element as (type, fields), floats as their exact hex."""
    return [
        (type(e).__name__,) + tuple(
            value.hex() if isinstance(value, float) else value
            for value in (getattr(e, f.name) for f in dataclasses.fields(e))
        )
        for e in circuit.elements
    ]


class TestTreeExtraction:
    """One extraction per distinct (layer, length), stamped bitwise."""

    @pytest.fixture(scope="class")
    def tables(self):
        return TableBasedExtractor.characterize(
            config(), frequency=GHz(6.4),
            widths=[um(8), um(10), um(12)],
            lengths=[um(500), um(1500), um(3000), um(5000)],
            spacings=[um(0.5), um(1), um(2)], capacitance_grid=(32, 24),
        )

    def test_compare_looks_up_each_distinct_segment_once_per_deck(
            self, tables):
        built = []

        class Recording(ClocktreeRLCExtractor):
            def build_netlist(self, *args, **kwargs):
                built.append(super().build_netlist(*args, **kwargs))
                return built[-1]

        class PerSegment(ClocktreeRLCExtractor):
            """The reference: one hook call per segment, no dedup."""

            def extract_htree(self, htree):
                return {s.name: self.segment_rlc_for(s)
                        for s in htree.segments}

        def make(cls):
            return cls(config(), frequency=GHz(6.4),
                       inductance_table=tables.inductance_table,
                       resistance_table=tables.resistance_table,
                       capacitance_table=tables.capacitance_table)

        tree = default_htree(levels=3)
        distinct = {(s.layer, s.length) for s in tree.segments}
        assert len(distinct) == 4 < len(tree.segments) == 14
        with metrics_meter() as meter:
            compare_rc_vs_rlc(make(Recording), tree, t_stop=ps(1000),
                              dt=ps(1))
        # two decks x three tables (L, R, C) x distinct segments
        assert meter.delta.counter(TABLE_LOOKUP) == 2 * 3 * len(distinct)

        reference = make(PerSegment)
        rc, rlc = built
        for netlist in (rc, rlc):
            expected = reference.build_netlist(
                tree, include_inductance=netlist.includes_inductance)
            assert _cards(netlist.circuit) == _cards(expected.circuit)
        assert not rc.includes_inductance and rlc.includes_inductance

    def test_extraction_keyed_by_segment_in_tree_order(self):
        tree = htree(levels=2)
        extraction = extractor().extract_htree(tree)
        assert list(extraction) == [s.name for s in tree.segments]
        assert extraction["s_LL"] is extraction["s_RR"]
        assert extraction["s_L"].length == tree.segment("s_L").length
