"""DRAM Physical Unclonable Functions (Section 5.1 / 6.1).

This package implements the CODIC-sig PUF and the two state-of-the-art
baselines the paper compares against:

* **CODIC-sig PUF** -- drives a memory segment's cells to Vdd/2 with the
  CODIC-sig command and amplifies them with a regular activation; the
  resulting minority-cell addresses form the response.
* **DRAM Latency PUF** (Kim et al., HPCA'18) -- accesses the segment with a
  strongly reduced tRCD and uses the addresses of failing cells, filtered
  over 100 reads.
* **PreLatPUF** (Talukder et al., IEEE Access'19) -- uses failures induced by
  a strongly reduced tRP.

It also provides the Jaccard-index quality metrics, the evaluation harness
used for Figures 5 and 6 (including temperature and aging sweeps), the
response-time model of Table 4, and a challenge-response authentication
protocol with false-accept/false-reject analysis.
"""

from repro.puf.base import Challenge, PUFResponse, DRAMPUF
from repro.puf.codic_puf import CODICSigPUF
from repro.puf.latency_puf import DRAMLatencyPUF
from repro.puf.prelat_puf import PreLatPUF
from repro.puf.filtering import majority_filter, intersect_filter
from repro.puf.jaccard import jaccard_index, JaccardDistribution
from repro.puf.positions import (
    as_position_array,
    intersect_positions,
    jaccard_index_arrays,
    positions_equal,
    union_positions,
)
from repro.puf.evaluation import (
    PUFEvaluator,
    PUFQualityResult,
    TemperaturePoint,
    aging_pairs_batch,
    quality_pairs_batch,
    temperature_pairs_batch,
)
from repro.puf.timing import PUFTimingModel, ResponseTimeEstimate
from repro.puf.authentication import AuthenticationProtocol, AuthenticationResult

#: PUF classes by the names the figures, the fleet and the job configs use,
#: in the order the paper plots them.
PUF_FACTORIES: dict[str, type[DRAMPUF]] = {
    "DRAM Latency PUF": DRAMLatencyPUF,
    "PreLatPUF": PreLatPUF,
    "CODIC-sig PUF": CODICSigPUF,
}

__all__ = [
    "Challenge",
    "PUFResponse",
    "DRAMPUF",
    "CODICSigPUF",
    "DRAMLatencyPUF",
    "PreLatPUF",
    "PUF_FACTORIES",
    "majority_filter",
    "intersect_filter",
    "jaccard_index",
    "JaccardDistribution",
    "as_position_array",
    "intersect_positions",
    "jaccard_index_arrays",
    "positions_equal",
    "union_positions",
    "PUFEvaluator",
    "PUFQualityResult",
    "TemperaturePoint",
    "quality_pairs_batch",
    "temperature_pairs_batch",
    "aging_pairs_batch",
    "PUFTimingModel",
    "ResponseTimeEstimate",
    "AuthenticationProtocol",
    "AuthenticationResult",
]
