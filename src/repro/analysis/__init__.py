"""Analysis beyond the paper's figures: ablations, crossovers, advice.

* :mod:`repro.analysis.sweeps` — the A1–A6 ablations listed in
  DESIGN.md §4 (utilization skew, α sensitivity, frequency scaling,
  table-size scaling, clock gating, leaf pushing).
* :mod:`repro.analysis.crossover` — locate where one scheme overtakes
  another along the K axis.
* :mod:`repro.analysis.advisor` — rank deployment schemes for a given
  consolidation problem under resource/throughput/power constraints.
"""

from repro.analysis.sweeps import (
    alpha_sweep,
    duty_cycle_sweep,
    frequency_sweep,
    leafpush_ablation,
    table_size_sweep,
    utilization_sweep,
)
from repro.analysis.crossover import find_crossover, scheme_crossover_k
from repro.analysis.advisor import Recommendation, recommend_scheme
from repro.analysis.governor import DesignPoint, pareto_frontier, plan_operating_point
from repro.analysis.study import ConsolidationStudy, SchemeAssessment, run_study

__all__ = [
    "DesignPoint",
    "pareto_frontier",
    "plan_operating_point",
    "ConsolidationStudy",
    "SchemeAssessment",
    "run_study",
    "alpha_sweep",
    "duty_cycle_sweep",
    "frequency_sweep",
    "leafpush_ablation",
    "table_size_sweep",
    "utilization_sweep",
    "find_crossover",
    "scheme_crossover_k",
    "Recommendation",
    "recommend_scheme",
]
