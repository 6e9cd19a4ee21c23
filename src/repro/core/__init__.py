"""The paper's primary contribution, packaged.

* :mod:`repro.core.frequency` -- the significant-frequency rule and skin
  depth.
* :mod:`repro.core.foundations` -- numerical verification of the two
  extraction Foundations and their ground-plane extension (Fig. 5).
* :mod:`repro.core.extraction` -- :class:`TableBasedExtractor`, the
  characterize-once / look-up-fast front end.
"""

from repro.core.extraction import TableBasedExtractor
from repro.core.foundations import (
    FoundationCheck,
    foundation1_check,
    foundation2_check,
    loop_inductance_matrix,
)
from repro.core.frequency import significant_frequency
from repro.core.technology import TechnologyTables

__all__ = [
    "TableBasedExtractor",
    "TechnologyTables",
    "FoundationCheck",
    "foundation1_check",
    "foundation2_check",
    "loop_inductance_matrix",
    "significant_frequency",
]
