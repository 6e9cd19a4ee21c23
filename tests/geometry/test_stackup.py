"""Layer and Stackup behaviour."""

import pytest

from repro.constants import um
from repro.errors import StackupError
from repro.geometry.stackup import Layer, Stackup, default_stackup


def make_layer(name="M1", index=1, z=um(1), t=um(0.5), rho=1.7e-8):
    return Layer(name=name, index=index, z_bottom=z, thickness=t, resistivity=rho)


class TestLayer:
    def test_z_top_and_center(self):
        layer = make_layer(z=um(2), t=um(1))
        assert layer.z_top == pytest.approx(um(3))
        assert layer.z_center == pytest.approx(um(2.5))

    def test_sheet_resistance(self):
        layer = make_layer(t=um(1), rho=2e-8)
        assert layer.sheet_resistance() == pytest.approx(0.02)

    @pytest.mark.parametrize("kwargs", [
        {"t": 0.0},
        {"rho": -1.0},
        {"z": -um(1)},
    ])
    def test_invalid_layers_rejected(self, kwargs):
        with pytest.raises(StackupError):
            make_layer(**kwargs)


class TestStackup:
    def test_lookup_by_name_and_index(self):
        stack = default_stackup(4)
        assert stack.layer("M3") is stack.layer(3)

    def test_unknown_layer_raises(self):
        stack = default_stackup(2)
        with pytest.raises(StackupError):
            stack.layer("M9")
        with pytest.raises(StackupError):
            stack.layer(9)

    def test_duplicate_name_rejected(self):
        with pytest.raises(StackupError):
            Stackup(layers=[make_layer("M1", 1), make_layer("M1", 2, z=um(3))])

    def test_duplicate_index_rejected(self):
        with pytest.raises(StackupError):
            Stackup(layers=[make_layer("M1", 1), make_layer("M2", 1, z=um(3))])

    def test_add_enforces_uniqueness(self):
        stack = Stackup(layers=[make_layer("M1", 1)])
        stack.add(make_layer("M2", 2, z=um(3)))
        assert len(stack) == 2
        with pytest.raises(StackupError):
            stack.add(make_layer("M2", 5, z=um(9)))

    def test_iteration_sorted_by_index(self):
        stack = Stackup(layers=[make_layer("M2", 2, z=um(3)), make_layer("M1", 1)])
        assert [l.name for l in stack] == ["M1", "M2"]

    def test_eps_r_must_be_physical(self):
        with pytest.raises(StackupError):
            Stackup(layers=[make_layer()], eps_r=0.5)


class TestDefaultStackup:
    def test_layer_count(self):
        assert len(default_stackup(6)) == 6

    def test_needs_at_least_one_layer(self):
        with pytest.raises(StackupError):
            default_stackup(0)

    def test_layers_do_not_overlap_vertically(self):
        stack = default_stackup(6)
        ordered = list(stack)
        for below, above in zip(ordered, ordered[1:]):
            assert above.z_bottom >= below.z_top

    def test_upper_layers_thicker(self):
        stack = default_stackup(6)
        assert stack.layer("M6").thickness > stack.layer("M1").thickness
