"""Golden cache keys: every design kit keeps its job_id and table_keys.

A job's keys hash its whole spec, including the ``builder_spec()``
strings.  Renaming one of those strings, a spec field or an output
would silently re-key every kit already on disk, so the hex values of
one small job of each kind are pinned here.  Building a job solves
nothing: these tests only construct jobs and hash their specs.
"""

import pytest

from repro.clocktree.configs import CoplanarWaveguideConfig, MicrostripConfig
from repro.constants import GHz, um
from repro.library.jobs import (
    LoopTableJob,
    MutualLoopJob,
    PartialMutualInductanceJob,
    PartialSelfInductanceJob,
    ThreeTraceCapacitanceJob,
    TotalCapacitanceJob,
)

CPW = CoplanarWaveguideConfig(
    signal_width=um(10), ground_width=um(5), spacing=um(1),
    thickness=um(2), height_below=um(2),
)
MICROSTRIP = MicrostripConfig(signal_width=um(5), thickness=um(1),
                              plane_gap=um(3))


def _jobs():
    return {
        "loop_rl": LoopTableJob(
            config=CPW, frequency=GHz(3.2), widths=(um(5), um(10)),
            lengths=(um(500), um(1500)), layer="M5"),
        "mutual_loop": MutualLoopJob(
            config=MICROSTRIP, frequency=GHz(3.2),
            separations=(um(3), um(8)), lengths=(um(500), um(1500))),
        "partial_self": PartialSelfInductanceJob(
            thickness=um(2), widths=(um(2), um(5)),
            lengths=(um(500), um(1000))),
        "partial_mutual": PartialMutualInductanceJob(
            thickness=um(1), widths1=(um(1), um(2)), widths2=(um(1), um(2)),
            spacings=(um(1), um(3)), lengths=(um(200), um(500)),
            frequency=GHz(3.2)),
        "three_trace_cap": ThreeTraceCapacitanceJob(
            height_below=um(2), thickness=um(1), widths=(um(1), um(2)),
            spacings=(um(1), um(2)), nx=80, nz=60),
        "total_cap": TotalCapacitanceJob(
            config=CPW, widths=(um(5), um(10)), spacings=(um(1), um(3)),
            nx=60, nz=45),
    }


GOLDEN = {
    "loop_rl": (
        "36605f973d73a9fd4ca7fd596d6c525ce89b2dccf5dd2f2f77848925640aa259",
        {
            "loop_inductance":
                "0bb273ab515717dce7879bb80841e0673db3cbdb2c1f32cbd5ee1d3a2b42b5ce",
            "loop_resistance":
                "e8f2dcf71daf50a94836f84d1b793c56c8fde0a61a7ba08a09519e37f8095d14",
        },
    ),
    "mutual_loop": (
        "891c58781b6e486249b49740526125e58453c78a2ab8258bf9b631e2151b0670",
        {
            "mutual_loop_inductance":
                "9ae0ac0c2fb66ef990d2a23eb6c8a4d7336b23f3530f4e8aaeb99890742c837a",
        },
    ),
    "partial_self": (
        "e29d5f62b4acb8fb5c6f885f72d7ef97571925e1e6ab4b283568201dee200252",
        {
            "self_partial_inductance":
                "e8f60ed68eead3e532c4d822354540f6558379cb63b76e27a96d110a38acf0a4",
        },
    ),
    "partial_mutual": (
        "ea6d40d4f9e95f3411742a4039aad64f8d61bf1b24e379604694911621e691fc",
        {
            "mutual_partial_inductance":
                "f3c2b46c70b73eb96cb821da98b48ee15ba0e62eadffc0a2f50e5fe3b4ff608e",
        },
    ),
    "three_trace_cap": (
        "ed210ed5e3fad4400843d59523ba5b5919b13f78c20508154884df93c2e572ac",
        {
            "three_trace_ground_capacitance":
                "dfa215a73b7d9707ce0ad39e2b280e40f9d163bfdebea31d97a425e7e8b0b37e",
            "three_trace_coupling_capacitance":
                "1b6915a218f69e83ae035cbe4ef4d2455657006d6cb6204bdd16238286be7189",
        },
    ),
    "total_cap": (
        "594f20c1954680d520689d25444147a5f4f06820d22e64d0fed23087dc13fb12",
        {
            "signal_capacitance_per_length":
                "54b5d38eec3eaed4f4488b6d70a3bf3f08be19d310f4b648de2dc0f1d2caf38c",
        },
    ),
}


def test_every_job_kind_is_pinned():
    assert {job.kind for job in _jobs().values()} == set(GOLDEN)


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_job_id_is_golden(kind):
    assert _jobs()[kind].job_id == GOLDEN[kind][0]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_table_keys_are_golden(kind):
    assert _jobs()[kind].table_keys() == GOLDEN[kind][1]
