"""Clocktree skew simulation and the RC-vs-RLC comparison."""

import dataclasses

import pytest

from repro.constants import GHz, fF, ps, um
from repro.clocktree.buffers import ClockBuffer
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor
from repro.clocktree.htree import HTree
from repro.clocktree.skew import compare_rc_vs_rlc, simulate_clocktree
from repro.errors import CircuitError
from repro.telemetry import metrics_meter


def config():
    return CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )


def strong_buffer():
    return ClockBuffer(drive_resistance=15.0, input_capacitance=fF(30),
                       supply=1.8, rise_time=ps(50))


def make_tree(branch_scale=None, levels=1):
    return HTree.generate(
        levels=levels, root_length=um(3000), config=config(),
        buffer=strong_buffer(), sink_capacitance=fF(50),
        branch_scale=branch_scale,
    )


def make_extractor():
    return ClocktreeRLCExtractor(config(), frequency=GHz(6.4))


class TestSimulation:
    @pytest.fixture(scope="class")
    def symmetric_result(self):
        netlist = make_extractor().build_netlist(make_tree())
        [result] = simulate_clocktree([netlist], supply=1.8,
                                      t_stop=ps(2000), dt=ps(0.5))
        return result

    def test_all_sinks_measured(self, symmetric_result):
        assert set(symmetric_result.arrivals) == {"s_L", "s_R"}

    def test_symmetric_tree_zero_skew(self, symmetric_result):
        assert symmetric_result.skew < ps(0.1)

    def test_delays_positive(self, symmetric_result):
        for delay in symmetric_result.delays.values():
            assert delay > 0

    def test_too_short_simulation_raises(self):
        netlist = make_extractor().build_netlist(make_tree())
        with pytest.raises(CircuitError):
            simulate_clocktree([netlist], supply=1.8, t_stop=ps(20),
                               dt=ps(0.5))

    def test_sinkless_netlist_rejected_before_any_step(self):
        good = make_extractor().build_netlist(make_tree())
        sinkless = dataclasses.replace(good, sink_nodes={})
        with metrics_meter() as meter:
            with pytest.raises(CircuitError, match="no sinks"):
                simulate_clocktree([good, sinkless], supply=1.8,
                                   t_stop=ps(2000), dt=ps(0.5))
        assert meter.delta.counter("circuit_transient_steps") == 0

    def test_batch_returns_one_result_per_netlist(self):
        tree = make_tree(branch_scale={"s_L": 1.4})
        netlists = [make_extractor().build_netlist(tree),
                    make_extractor().build_netlist(make_tree())]
        skewed, symmetric = simulate_clocktree(
            netlists, supply=1.8, t_stop=ps(2000), dt=ps(0.5))
        assert skewed.skew > ps(0.1) > symmetric.skew
        [alone] = simulate_clocktree(netlists[:1], supply=1.8,
                                     t_stop=ps(2000), dt=ps(0.5))
        assert alone.skew == pytest.approx(skewed.skew, rel=1e-12)


class TestAsymmetricSkew:
    @pytest.fixture(scope="class")
    def comparison(self):
        tree = make_tree(branch_scale={"s_L": 1.4})
        return compare_rc_vs_rlc(
            make_extractor(), tree, t_stop=ps(3000), dt=ps(0.5)
        )

    def test_asymmetry_creates_skew(self, comparison):
        assert comparison.rlc.skew > ps(1)

    def test_stretched_branch_arrives_later(self, comparison):
        delays = comparison.rlc.delays
        assert delays["s_L"] > delays["s_R"]

    def test_rc_netlist_underestimates_delay(self, comparison):
        # inductive flight time is missing from the RC netlist
        assert comparison.rlc.max_delay > comparison.rc.max_delay

    def test_skew_discrepancy_exceeds_10_percent(self, comparison):
        # the paper's headline claim for this regime
        assert comparison.skew_discrepancy > 0.10
