"""fan_out: the one executor behind library builds and sweep campaigns.

The killed-worker cases live with their callers (tests/library/
test_runner.py, tests/test_sweep_campaigns.py), where the resume after
a ``WorkerLostError`` can be checked too.
"""

import multiprocessing

import pytest

from repro.fanout import fan_out

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


def _square(x, in_worker=True):
    if x < 0:
        raise ValueError(f"negative task {x}")
    return x * x, in_worker


def test_one_worker_runs_in_order_in_process():
    results = []
    fan_out(_square, [(3,), (1,), (2,)], 1, results.append)
    assert results == [(9, False), (1, False), (4, False)]


@pytest.mark.skipif(not _FORK, reason="pool workers must resolve this "
                    "test module's task function, which fork guarantees")
def test_pool_folds_every_result_in_a_worker():
    results = []
    fan_out(_square, [(x,) for x in range(6)], 2, results.append)
    assert sorted(results) == [(x * x, True) for x in range(6)]


@pytest.mark.skipif(not _FORK, reason="pool workers must resolve this "
                    "test module's task function, which fork guarantees")
def test_pool_task_error_propagates_unchanged():
    with pytest.raises(ValueError, match="negative task -1"):
        fan_out(_square, [(1,), (-1,), (2,)], 2, lambda result: None)
