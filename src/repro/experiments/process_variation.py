"""Sec. V: statistical RC with nominal inductance.

The paper combines statistically generated RC (ref [4]) with the
*nominal* inductance when studying process impact on skew, arguing that
inductance is insensitive to process variation.  This experiment
verifies the premise -- loop L varies far less than R and C under the
same geometry perturbations -- and propagates the RC population through
a clock-net delay simulation with nominal L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.constants import GHz, um
from repro.peec.loop import LoopProblem
from repro.rc.statistical import (
    ProcessVariation,
    StatisticalRC,
    monte_carlo_rc,
    perturb_block,
    sample_factors,
)

#: Decks per transient batch in :func:`run_variation_skew`: enough to
#: share the per-step solve overhead, few enough that the histories a
#: batch holds keep peak memory flat in the number of samples.
_BATCH_DECKS = 4


@dataclass
class ProcessVariationResult:
    """Relative variability of R, C and loop L under process variation."""

    statistical_rc: StatisticalRC
    loop_inductances: np.ndarray

    @property
    def r_spread(self) -> float:
        """sigma/mean of the signal resistance."""
        return self.statistical_rc.resistance_std / self.statistical_rc.resistance_mean

    @property
    def c_spread(self) -> float:
        """sigma/mean of the signal capacitance."""
        return self.statistical_rc.capacitance_std / self.statistical_rc.capacitance_mean

    @property
    def l_spread(self) -> float:
        """sigma/mean of the loop inductance."""
        return float(self.loop_inductances.std() / self.loop_inductances.mean())

    @property
    def l_insensitivity_factor(self) -> float:
        """How much steadier L is than the RC geometry quantities.

        min(r_spread, c_spread) / l_spread -- the paper's premise holds
        when this is well above 1.
        """
        if self.l_spread == 0.0:
            return float("inf")
        return min(self.r_spread, self.c_spread) / self.l_spread


@dataclass
class VariationSkewResult:
    """Skew distribution with statistical RC and nominal L (Sec. V)."""

    skews: np.ndarray
    max_delays: np.ndarray
    nominal_skew: float
    nominal_max_delay: float

    @property
    def skew_spread(self) -> float:
        """sigma/mean of the skew population."""
        return float(self.skews.std() / self.skews.mean())

    @property
    def delay_spread(self) -> float:
        """sigma/mean of the max-delay population."""
        return float(self.max_delays.std() / self.max_delays.mean())

    @property
    def worst_skew(self) -> float:
        """Largest sampled skew [s]."""
        return float(self.skews.max())


def run_variation_skew(
    variation: Optional[ProcessVariation] = None,
    n_samples: int = 15,
    seed: int = 11,
) -> VariationSkewResult:
    """Clock-skew distribution: statistical RC, nominal L (Sec. V).

    The paper's proposal verbatim: "we can combine the nominal
    inductance with the statistically generated RC in the formulation of
    RLC netlist in the study of process variation impact to clock skew."
    Each Monte-Carlo sample scales the wire R and C of an asymmetric
    H-tree netlist by factors drawn from the process model while the
    inductances stay at their nominal table values.
    """
    from repro.constants import ps
    from repro.core.frequency import significant_frequency
    from repro.clocktree.skew import simulate_clocktree
    from repro.experiments.htree_skew import default_htree
    from repro.rc.statistical import monte_carlo_rc

    if variation is None:
        variation = ProcessVariation(
            sigma_width=0.01, sigma_thickness=0.05,
            sigma_ild=0.07, sigma_resistivity=0.03,
        )
    htree = default_htree()
    from repro.clocktree.extractor import ClocktreeRLCExtractor

    extractor = ClocktreeRLCExtractor(
        htree.config, frequency=significant_frequency(htree.buffer.rise_time)
    )

    # per-sample R/C factors from the single-block statistical model
    block = htree.config.trace_block(um(2000))
    stats = monte_carlo_rc(
        block, htree.config.capacitance_model(), variation,
        n_samples=n_samples, seed=seed,
    )
    nominal = monte_carlo_rc(
        block, htree.config.capacitance_model(),
        ProcessVariation(0.0, 0.0, 0.0, 0.0), n_samples=1,
    )
    r_factors = stats.resistances / nominal.resistances[0]
    c_factors = stats.ground_capacitances / nominal.ground_capacitances[0]

    # The nominal deck and the samples share the grid.  A batch holds
    # every history it made until it returns, so they run _BATCH_DECKS
    # at a time; the comprehension drops each batch before the next.
    scales = [(1.0, 1.0)] + [(float(r), float(c))
                             for r, c in zip(r_factors, c_factors)]
    measured = []
    for start in range(0, len(scales), _BATCH_DECKS):
        measured += [(result.skew, result.max_delay)
                     for result in simulate_clocktree(
                         [extractor.build_netlist(htree, rc_scale=scale)
                          for scale in scales[start:start + _BATCH_DECKS]],
                         supply=htree.buffer.supply, t_stop=ps(4000),
                         dt=ps(1))]
    (nominal_skew, nominal_delay), *samples = measured
    return VariationSkewResult(
        skews=np.array([skew for skew, _ in samples]),
        max_delays=np.array([delay for _, delay in samples]),
        nominal_skew=nominal_skew,
        nominal_max_delay=nominal_delay,
    )


def run_process_variation(
    variation: Optional[ProcessVariation] = None,
    n_rc_samples: int = 200,
    n_l_samples: int = 25,
    length: float = um(2000),
    frequency: float = GHz(3.2),
    seed: int = 7,
) -> ProcessVariationResult:
    """Monte-Carlo R/C and loop-L populations on the Fig. 1 CPW.

    The default variation uses a 1 % width sigma: etch bias is an
    *absolute* excursion (~0.1 um), which on a 10 um clock wire is a
    small relative change -- applying minimum-width-style 5 % relative
    sigma to a wide wire would swallow the 1 um shield gap and overstate
    every spread.
    """
    if variation is None:
        variation = ProcessVariation(
            sigma_width=0.01, sigma_thickness=0.05,
            sigma_ild=0.07, sigma_resistivity=0.03,
        )
    config = CoplanarWaveguideConfig(
        signal_width=um(10), ground_width=um(5), spacing=um(1),
        thickness=um(2), height_below=um(2),
    )
    block = config.trace_block(length)
    stats = monte_carlo_rc(
        block, config.capacitance_model(), variation,
        n_samples=n_rc_samples, seed=seed,
    )

    rng = np.random.default_rng(seed + 1)
    loop_values = np.empty(n_l_samples)
    for k in range(n_l_samples):
        sample = sample_factors(variation, rng)
        perturbed = perturb_block(block, sample)
        problem = LoopProblem(perturbed, n_width=1, n_thickness=1)
        _, loop_values[k] = problem.loop_rl(frequency)
    return ProcessVariationResult(
        statistical_rc=stats, loop_inductances=loop_values
    )
