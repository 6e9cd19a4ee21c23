"""Mutual loop inductance tables for neighbour coupling."""

from dataclasses import dataclass

import pytest

from repro.clocktree.configs import CoplanarWaveguideConfig, MicrostripConfig
from repro.constants import GHz, um
from repro.errors import TableError
from repro.library.jobs import MutualLoopJob


@dataclass(frozen=True)
class NoVictimConfig:
    """A pair structure without an open 'VICTIM' trace (a plain CPW loop)."""

    cpw: CoplanarWaveguideConfig

    def pair_problem(self, separation, length, n_width=2, n_thickness=1):
        return self.cpw.loop_problem(self.cpw.signal_width, length)


@pytest.fixture(scope="module")
def config():
    return MicrostripConfig(signal_width=um(5), thickness=um(1),
                            plane_gap=um(3))


@pytest.fixture(scope="module")
def table(config):
    [table] = MutualLoopJob(
        config=config, frequency=GHz(3.2),
        separations=(um(3), um(8), um(20)),
        lengths=(um(500), um(1500)),
    ).build()
    return table


class TestMutualLoopTable:
    def test_axes_and_quantity(self, table):
        assert tuple(table.axis_names) == ("separation", "length")
        assert table.quantity == "mutual_loop_inductance"

    def test_coupling_decays_with_separation(self, table):
        near = table.lookup(separation=um(3), length=um(1500))
        far = table.lookup(separation=um(20), length=um(1500))
        assert near > far > 0

    def test_coupling_grows_with_length(self, table):
        short = table.lookup(separation=um(8), length=um(500))
        long = table.lookup(separation=um(8), length=um(1500))
        assert long > 2.0 * short    # super-linear, like self L

    def test_knot_matches_direct_solve(self, config, table):
        problem = config.pair_problem(um(8), um(1500))
        direct = problem.solve(GHz(3.2)).mutual_loop_inductances["VICTIM"]
        assert table.lookup(separation=um(8), length=um(1500)) == pytest.approx(
            direct, rel=1e-9
        )

    def test_bad_factory_detected(self):
        cpw = CoplanarWaveguideConfig(
            signal_width=um(10), ground_width=um(5), spacing=um(1),
            thickness=um(2), height_below=um(2),
        )
        # caught when the job is made, before any loop solve
        with pytest.raises(TableError, match="VICTIM"):
            MutualLoopJob(config=NoVictimConfig(cpw), frequency=GHz(3.2),
                          separations=(um(2), um(4)),
                          lengths=(um(500), um(900)))

    def test_invalid_frequency(self, config):
        with pytest.raises(TableError):
            MutualLoopJob(config=config, frequency=0.0,
                          separations=(um(2), um(4)),
                          lengths=(um(500), um(900)))
