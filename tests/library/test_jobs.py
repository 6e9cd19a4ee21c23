"""CharacterizationJob specs: keys, grids, assembly, picklability."""

import pickle

import numpy as np
import pytest

from repro.clocktree.configs import CoplanarWaveguideConfig, MicrostripConfig
from repro.constants import GHz, um
from repro.errors import TableError
from repro.library.jobs import (
    LoopTableJob,
    MutualLoopJob,
    PartialMutualInductanceJob,
    PartialSelfInductanceJob,
    ThreeTraceCapacitanceJob,
    TotalCapacitanceJob,
    config_fingerprint,
    standard_clocktree_jobs,
)


def cpw(**overrides):
    params = dict(signal_width=um(10), ground_width=um(5), spacing=um(1),
                  thickness=um(2), height_below=um(2))
    params.update(overrides)
    return CoplanarWaveguideConfig(**params)


def loop_job(**overrides):
    params = dict(config=cpw(), frequency=GHz(3.2),
                  widths=(um(6), um(10), um(14)),
                  lengths=(um(500), um(2000), um(6000)))
    params.update(overrides)
    return LoopTableJob(**params)


class TestCacheKeys:
    def test_job_id_deterministic(self):
        assert loop_job().job_id == loop_job().job_id

    def test_job_id_sensitive_to_frequency(self):
        assert loop_job().job_id != loop_job(frequency=GHz(6.4)).job_id

    def test_job_id_sensitive_to_grid(self):
        other = loop_job(widths=(um(6), um(10), um(16)))
        assert loop_job().job_id != other.job_id

    def test_job_id_sensitive_to_config(self):
        other = loop_job(config=cpw(ground_width=um(6)))
        assert loop_job().job_id != other.job_id

    def test_table_keys_distinct_per_output(self):
        keys = loop_job().table_keys()
        assert set(keys) == {"loop_inductance", "loop_resistance"}
        assert len(set(keys.values())) == 2

    def test_unknown_output_rejected(self):
        with pytest.raises(TableError):
            loop_job().table_key("nonsense")

    def test_family_fingerprint_tracks_config_not_grid(self):
        assert loop_job().family == loop_job(widths=(um(4), um(8))).family
        assert loop_job().family == config_fingerprint(cpw())
        assert loop_job().family != config_fingerprint(cpw(spacing=um(2)))


class TestGrid:
    def test_points_row_major(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        assert job.points() == [
            (um(6), um(500)), (um(6), um(2000)),
            (um(10), um(500)), (um(10), um(2000)),
        ]
        assert job.shape() == (2, 2)
        assert job.num_points() == 4

    def test_axis_validation_applies(self):
        with pytest.raises(TableError):
            loop_job(widths=(um(10), um(6)))  # not increasing
        with pytest.raises(TableError):
            loop_job(widths=(um(10),))  # too short

    def test_positive_frequency_required(self):
        with pytest.raises(TableError):
            loop_job(frequency=0.0)


class TestAssembly:
    def test_assemble_shapes_and_metadata(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        values = [[float(i), 10.0 + i] for i in range(4)]
        l_table, r_table = job.assemble(values)
        assert l_table.quantity == "loop_inductance"
        assert r_table.quantity == "loop_resistance"
        np.testing.assert_array_equal(
            l_table.values, np.array([[0.0, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(
            r_table.values, np.array([[10.0, 11.0], [12.0, 13.0]]))
        lib_meta = l_table.metadata["library"]
        assert lib_meta["job_id"] == job.job_id
        assert lib_meta["table_key"] == job.table_key("loop_inductance")
        assert lib_meta["family"] == job.family

    def test_assemble_wrong_count_rejected(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        with pytest.raises(TableError):
            job.assemble([[1.0, 2.0]] * 3)

    def test_assemble_wrong_width_rejected(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        with pytest.raises(TableError):
            job.assemble([[1.0]] * 4)


class TestPicklability:
    def test_every_job_kind_pickles(self):
        micro = MicrostripConfig(signal_width=um(4), thickness=um(1),
                                 plane_gap=um(2))
        jobs = [
            loop_job(),
            MutualLoopJob(config=micro, frequency=GHz(3.2),
                          separations=(um(2), um(6)),
                          lengths=(um(500), um(2000))),
            PartialSelfInductanceJob(thickness=um(1),
                                     widths=(um(1), um(2)),
                                     lengths=(um(100), um(500))),
            PartialMutualInductanceJob(thickness=um(1),
                                       widths1=(um(1), um(2)),
                                       widths2=(um(1), um(2)),
                                       spacings=(um(1), um(3)),
                                       lengths=(um(100), um(500))),
            ThreeTraceCapacitanceJob(height_below=um(2), thickness=um(1),
                                     widths=(um(1), um(2)),
                                     spacings=(um(1), um(2))),
            TotalCapacitanceJob(config=cpw(), widths=(um(6), um(10)),
                                spacings=(um(1), um(2))),
        ]
        for job in jobs:
            clone = pickle.loads(pickle.dumps(job))
            assert clone.job_id == job.job_id

    def test_roundtripped_job_solves(self):
        job = PartialSelfInductanceJob(
            thickness=um(1), widths=(um(1), um(2)), lengths=(um(100), um(500)))
        clone = pickle.loads(pickle.dumps(job))
        (value,) = clone.solve_point((um(1), um(100)))
        assert value > 0.0


class TestSolvePoints:
    def test_loop_point_matches_builder_semantics(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        inductance, resistance = job.solve_point((um(10), um(2000)))
        problem = cpw().loop_problem(um(10), um(2000))
        r_direct, l_direct = problem.loop_rl(GHz(3.2))
        assert inductance == pytest.approx(l_direct)
        assert resistance == pytest.approx(r_direct)

    @pytest.mark.parametrize("point, golden", [
        ((um(10), um(2000)), (5.332724755586527e-10, 4.85483135472559)),
        ((um(6), um(6000)), (1.7050261983696877e-09, 17.92769224430688)),
    ])
    def test_loop_point_golden(self, point, golden):
        # recorded from the per-corner Hoer-Love loop the stacked
        # kernel replaced; a tolerance, not bit equality, because the
        # suite runs on several numpy / scipy versions
        values = loop_job().solve_point(point)
        np.testing.assert_allclose(values, golden, rtol=1e-12, atol=0.0)

    def test_total_cap_point_positive(self):
        job = TotalCapacitanceJob(config=cpw(), widths=(um(6), um(10)),
                                  spacings=(um(1), um(2)), nx=40, nz=30)
        (cap,) = job.solve_point((um(10), um(1)))
        assert cap > 0.0

    def test_standard_jobs_cover_extractor_needs(self):
        jobs = standard_clocktree_jobs(
            cpw(), frequency=GHz(3.2),
            widths=[um(6), um(10)], lengths=[um(500), um(2000)],
            spacings=[um(1), um(2)],
        )
        quantities = {o.quantity for job in jobs for o in job.outputs()}
        assert quantities == {
            "loop_inductance", "loop_resistance", "capacitance_per_length",
        }
