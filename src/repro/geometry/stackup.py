"""Technology stackup: metal layers, dielectric environment, materials.

The paper assumes a standard multi-level metal VLSI process in which traces
in adjacent layers run orthogonally (so only same-layer traces couple
inductively) and wide power/ground wires in layer N+2 / N-2 act as local
ground planes.  :class:`Stackup` captures exactly the parameters the
extraction needs: per-layer thickness and elevation, conductor resistivity
and the dielectric constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.constants import EPS_R_SIO2, RHO_CU, um
from repro.errors import StackupError


@dataclass(frozen=True)
class Layer:
    """A metal routing layer.

    Parameters
    ----------
    name:
        Layer identifier, e.g. ``"M5"``.
    index:
        Integer level; adjacent integers route orthogonally.
    z_bottom:
        Elevation of the bottom face above the substrate reference [m].
    thickness:
        Nominal metal thickness [m].
    resistivity:
        Conductor resistivity [ohm*m].
    """

    name: str
    index: int
    z_bottom: float
    thickness: float
    resistivity: float = RHO_CU

    def __post_init__(self) -> None:
        if self.thickness <= 0.0:
            raise StackupError(f"layer {self.name!r}: thickness must be positive")
        if self.resistivity <= 0.0:
            raise StackupError(f"layer {self.name!r}: resistivity must be positive")
        if self.z_bottom < 0.0:
            raise StackupError(f"layer {self.name!r}: z_bottom must be non-negative")

    @property
    def z_top(self) -> float:
        """Elevation of the top face [m]."""
        return self.z_bottom + self.thickness

    @property
    def z_center(self) -> float:
        """Elevation of the layer mid-plane [m]."""
        return self.z_bottom + self.thickness / 2.0

    def sheet_resistance(self) -> float:
        """Sheet resistance [ohm/square] at the nominal thickness."""
        return self.resistivity / self.thickness


@dataclass
class Stackup:
    """An ordered collection of metal layers plus the dielectric constant."""

    layers: List[Layer] = field(default_factory=list)
    eps_r: float = EPS_R_SIO2

    def __post_init__(self) -> None:
        if self.eps_r < 1.0:
            raise StackupError("relative permittivity must be >= 1")
        seen_names: Dict[str, Layer] = {}
        seen_indices: Dict[int, Layer] = {}
        for layer in self.layers:
            if layer.name in seen_names:
                raise StackupError(f"duplicate layer name {layer.name!r}")
            if layer.index in seen_indices:
                raise StackupError(f"duplicate layer index {layer.index}")
            seen_names[layer.name] = layer
            seen_indices[layer.index] = layer
        self._by_name = seen_names
        self._by_index = seen_indices

    def __iter__(self):
        return iter(sorted(self.layers, key=lambda layer: layer.index))

    def __len__(self) -> int:
        return len(self.layers)

    def layer(self, key) -> Layer:
        """Look a layer up by name (str) or index (int)."""
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                raise StackupError(f"unknown layer {key!r}") from None
        try:
            return self._by_index[int(key)]
        except KeyError:
            raise StackupError(f"unknown layer index {key!r}") from None

    def add(self, layer: Layer) -> None:
        """Add a layer, enforcing unique names and indices."""
        if layer.name in self._by_name:
            raise StackupError(f"duplicate layer name {layer.name!r}")
        if layer.index in self._by_index:
            raise StackupError(f"duplicate layer index {layer.index}")
        self.layers.append(layer)
        self._by_name[layer.name] = layer
        self._by_index[layer.index] = layer


def default_stackup(num_layers: int = 6, eps_r: float = EPS_R_SIO2) -> Stackup:
    """A representative late-1990s copper process stackup.

    Thin lower metals (0.5 um) for local routing, progressively thicker
    upper metals (up to 2 um) for clock and power distribution, 1 um
    inter-layer dielectric gaps.  This matches the regime of the paper's
    examples (2 um-thick clock routing layer, orthogonal layer below).
    """
    if num_layers < 1:
        raise StackupError("stackup needs at least one layer")
    layers: List[Layer] = []
    z = um(1.0)
    for i in range(1, num_layers + 1):
        if i <= 2:
            thickness = um(0.5)
        elif i <= 4:
            thickness = um(1.0)
        else:
            thickness = um(2.0)
        layers.append(
            Layer(name=f"M{i}", index=i, z_bottom=z, thickness=thickness)
        )
        z += thickness + um(1.0)
    return Stackup(layers=layers, eps_r=eps_r)
