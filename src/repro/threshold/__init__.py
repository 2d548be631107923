"""Accuracy-threshold theory and estimation (paper §5–§6).

Four complementary routes to the same physics:

* :mod:`repro.threshold.flow` — the concatenation flow equations
  (Eq. 33/36), thresholds, and the coupled Clifford+Toffoli flow;
* :mod:`repro.threshold.scaling` — the non-concatenated code-family
  scaling of Eqs. 30–32;
* :mod:`repro.threshold.counting` — exhaustive single-fault-path counting
  over the Steane-EC protocol's own factory and extraction circuits,
  weighted as ``circuit_level(ε)`` draws each fault, reproducing the
  ε₀ ≈ 6·10⁻⁴ estimate's methodology;
* :mod:`repro.threshold.montecarlo` — direct Monte Carlo of the EC
  protocols with the Pauli-frame engine (pseudo-threshold crossings,
  quadratic level-1 fits);
* :mod:`repro.threshold.resources` — the §6 factoring resource estimates.
"""

from repro.threshold.flow import (
    CONCATENATION_COEFFICIENT,
    flow_map,
    iterate_flow,
    levels_needed,
    logical_rate_closed_form,
    threshold_from_coefficient,
    toffoli_flow,
)
from repro.threshold.scaling import (
    block_error_probability,
    minimum_block_error,
    optimal_t,
    required_accuracy,
    block_size_required,
)
from repro.threshold.counting import count_fault_paths, threshold_from_counting
from repro.threshold.montecarlo import (
    PseudoThresholdNotBracketed,
    PseudoThresholdWarning,
    code_capacity_memory,
    crossing_from_curve,
    fit_level1_coefficient,
    memory_experiment,
    pseudo_threshold,
)
from repro.threshold.sharded import shard_sizes, spawn_shard_seeds
from repro.threshold.runtime import (
    ResilienceOptions,
    RunDegraded,
    ShardRetryExhausted,
    ShardTimeout,
)
from repro.threshold.journal import (
    CacheCorrupt,
    CheckpointJournal,
    JournalDegraded,
    JournalMismatch,
    JournalSchemaError,
    compute_run_key,
    row_checksum,
)
from repro.threshold.resources import (
    FactoringProblem,
    FactoringPlan,
    plan_factoring,
    FACTORING_432_BIT,
)

__all__ = [
    "CONCATENATION_COEFFICIENT",
    "flow_map",
    "iterate_flow",
    "levels_needed",
    "logical_rate_closed_form",
    "threshold_from_coefficient",
    "toffoli_flow",
    "block_error_probability",
    "minimum_block_error",
    "optimal_t",
    "required_accuracy",
    "block_size_required",
    "count_fault_paths",
    "threshold_from_counting",
    "PseudoThresholdNotBracketed",
    "PseudoThresholdWarning",
    "code_capacity_memory",
    "crossing_from_curve",
    "fit_level1_coefficient",
    "memory_experiment",
    "pseudo_threshold",
    "shard_sizes",
    "spawn_shard_seeds",
    "ResilienceOptions",
    "RunDegraded",
    "ShardRetryExhausted",
    "ShardTimeout",
    "CacheCorrupt",
    "CheckpointJournal",
    "JournalDegraded",
    "JournalMismatch",
    "JournalSchemaError",
    "compute_run_key",
    "row_checksum",
    "FactoringProblem",
    "FactoringPlan",
    "plan_factoring",
    "FACTORING_432_BIT",
]
