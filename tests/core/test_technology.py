"""Per-layer technology tables and multi-layer clocktree extraction."""

import pytest

from repro.constants import GHz, um
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.htree import HTree
from repro.clocktree.multilayer import MultiLayerClocktreeExtractor
from repro.core.technology import TechnologyTables
from repro.errors import TableError
from repro.geometry.stackup import default_stackup

WIDTHS = [um(5), um(10)]
LENGTHS = [um(500), um(1500)]


def config_for_layer(layer):
    return CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=layer.thickness, height_below=um(2),
        resistivity=layer.resistivity,
    )


@pytest.fixture(scope="module")
def technology():
    stackup = default_stackup(6)
    return TechnologyTables.for_stackup(
        stackup, config_for_layer, frequency=GHz(3.2),
        widths=WIDTHS, lengths=LENGTHS, layers=("M5", "M6"),
    )


class TestTechnologyTables:
    def test_layers_characterized(self, technology):
        assert technology.layer_names() == ["M5", "M6"]

    def test_unknown_layer_rejected(self, technology):
        with pytest.raises(TableError):
            technology.extractor_for("M1")

    def test_empty_rejected(self):
        with pytest.raises(TableError):
            TechnologyTables(extractors={}, frequency=GHz(3.2))

    def test_per_layer_thickness_flows_into_tables(self, technology):
        # M5 and M6 share the default 2 um thickness in default_stackup,
        # so their loop inductances should agree; a thinner layer differs
        l5 = technology.extractor_for("M5").loop_inductance(um(10), um(1000))
        l6 = technology.extractor_for("M6").loop_inductance(um(10), um(1000))
        assert l5 == pytest.approx(l6, rel=1e-6)

        stackup = default_stackup(6)
        thin = TechnologyTables.for_stackup(
            stackup, config_for_layer, frequency=GHz(3.2),
            widths=WIDTHS, lengths=LENGTHS, layers=("M1",),
        )
        l1 = thin.extractor_for("M1").loop_inductance(um(10), um(1000))
        assert l1 != pytest.approx(l5, rel=1e-3)

    def test_save_load_round_trip(self, technology, tmp_path):
        technology.save(tmp_path)
        stackup = default_stackup(6)
        configs = {
            name: config_for_layer(stackup.layer(name))
            for name in ("M5", "M6")
        }
        reloaded = TechnologyTables.load(tmp_path, configs, GHz(3.2))
        a = technology.extractor_for("M5").loop_inductance(um(8), um(1000))
        b = reloaded.extractor_for("M5").loop_inductance(um(8), um(1000))
        assert b == pytest.approx(a)


class TestMultiLayerExtraction:
    def test_layer_annotations_on_htree(self):
        htree = HTree.generate(
            levels=3, root_length=um(2000),
            config=config_for_layer(default_stackup(6).layer("M6")),
            layers_by_level=("M6", "M5"),
        )
        assert htree.segment("s_L").layer == "M6"
        assert htree.segment("s_LL").layer == "M5"
        assert htree.segment("s_LLL").layer == "M6"

    def test_segment_dispatch(self, technology):
        extractor = MultiLayerClocktreeExtractor(technology, "M6")
        stackup = default_stackup(6)
        htree = HTree.generate(
            levels=2, root_length=um(1500),
            config=config_for_layer(stackup.layer("M6")),
            layers_by_level=("M6", "M5"),
        )
        root_rlc = extractor.segment_rlc_for(htree.segment("s_L"))
        leaf_rlc = extractor.segment_rlc_for(htree.segment("s_LL"))
        assert root_rlc.inductance > leaf_rlc.inductance  # longer segment

    def test_unannotated_segments_use_default_layer(self, technology):
        extractor = MultiLayerClocktreeExtractor(technology, "M6")
        stackup = default_stackup(6)
        htree = HTree.generate(
            levels=1, root_length=um(1000),
            config=config_for_layer(stackup.layer("M6")),
        )
        rlc = extractor.segment_rlc_for(htree.segment("s_L"))
        direct = technology.extractor_for("M6").loop_inductance(
            um(10), um(1000)
        )
        assert rlc.inductance == pytest.approx(direct, rel=1e-9)

    def test_unknown_layer_raises(self, technology):
        extractor = MultiLayerClocktreeExtractor(technology, "M6")
        from repro.clocktree.htree import HTreeSegment

        segment = HTreeSegment(
            name="s_X", level=0, parent=None, length=um(500),
            start=(0, 0), end=(um(500), 0), axis="x", layer="M2",
        )
        with pytest.raises(TableError):
            extractor.segment_rlc_for(segment)

    def test_full_netlist_simulates(self, technology):
        from repro.circuit.transient import transient_analysis
        from repro.constants import ps

        extractor = MultiLayerClocktreeExtractor(technology, "M6")
        stackup = default_stackup(6)
        htree = HTree.generate(
            levels=2, root_length=um(1500),
            config=config_for_layer(stackup.layer("M6")),
            layers_by_level=("M6", "M5"),
        )
        netlist = extractor.build_netlist(htree)
        [result] = transient_analysis([netlist.circuit], t_stop=ps(2000),
                                      dt=ps(1))
        sink = next(iter(netlist.sink_nodes.values()))
        assert result.voltage(sink).final_value == pytest.approx(1.8, rel=0.05)


class TestTreeExtractionPerLayer:
    """The per-tree dedup keys on (layer, length), never length alone."""

    @pytest.fixture(scope="class")
    def two_thickness(self):
        # M3 is 1 um thick, M6 2 um: equal lengths extract differently
        return TechnologyTables.for_stackup(
            default_stackup(6), config_for_layer, frequency=GHz(3.2),
            widths=WIDTHS, lengths=LENGTHS, layers=("M3", "M6"),
        )

    @staticmethod
    def tree(levels, length_ratio):
        return HTree.generate(
            levels=levels, root_length=um(1500),
            config=config_for_layer(default_stackup(6).layer("M6")),
            length_ratio=length_ratio, layers_by_level=("M6", "M3"),
        )

    def test_equal_lengths_on_two_layers_keep_their_own_values(
            self, two_thickness):
        extractor = MultiLayerClocktreeExtractor(two_thickness, "M6")
        htree = self.tree(levels=2, length_ratio=1.0)
        extraction = extractor.extract_htree(htree)
        for segment in htree.segments:
            own = extractor.extractor_for_layer(segment.layer).segment_rlc(
                segment.length)
            assert extraction[segment.name] == own
        root, leaf = extraction["s_L"], extraction["s_LL"]
        assert root.length == leaf.length
        assert root.resistance < leaf.resistance  # thicker M6 root

    @pytest.mark.parametrize("levels, length_ratio, pairs",
                             [(2, 1.0, 2), (3, 0.6, 3)])
    def test_hook_runs_once_per_distinct_layer_and_length(
            self, two_thickness, levels, length_ratio, pairs):
        calls = []

        class Counting(MultiLayerClocktreeExtractor):
            def segment_rlc_for(self, segment):
                calls.append((segment.layer, segment.length))
                return super().segment_rlc_for(segment)

        htree = self.tree(levels, length_ratio)
        Counting(two_thickness, "M6").build_netlist(htree)
        assert len(calls) == len(set(calls)) == pairs
        assert set(calls) == {(s.layer, s.length) for s in htree.segments}
