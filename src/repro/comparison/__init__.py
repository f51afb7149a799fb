"""Comparison functions and comparison units — the paper's core contribution."""

from .spec import ComparisonSpec
from .identify import (
    DEFAULT_PERM_BUDGET,
    IdentificationCache,
    IdentificationResult,
    candidate_permutations,
    identification_cache,
    identification_key,
    identify_comparison,
    identify_positions,
    is_comparison_function,
    lookup_positions,
    warm_identification_cache,
)
from .unit import (
    UnitCost,
    best_spec,
    build_unit,
    cheapest_position,
    emit_comparison_unit,
    unit_cost,
)
from .testgen import (
    TwoPatternTest,
    format_test_table,
    robust_tests_for_unit,
)
from .census import (
    comparison_fraction,
    comparison_truth_tables,
    count_comparison_functions,
)
from .exact import (
    ExactIdentifier,
    exact_identify,
    is_comparison_exact,
)
from .multiunit import (
    MultiUnitCover,
    build_multi_unit,
    emit_multi_unit,
    find_multi_unit_cover,
)
from .threshold import (
    ThresholdFunction,
    evaluate_as_threshold_pair,
    geq_block_threshold,
    leq_block_threshold,
)

__all__ = [
    "ComparisonSpec",
    "DEFAULT_PERM_BUDGET",
    "ExactIdentifier",
    "IdentificationCache",
    "IdentificationResult",
    "MultiUnitCover",
    "ThresholdFunction",
    "TwoPatternTest",
    "UnitCost",
    "best_spec",
    "build_multi_unit",
    "build_unit",
    "candidate_permutations",
    "cheapest_position",
    "comparison_fraction",
    "comparison_truth_tables",
    "count_comparison_functions",
    "emit_comparison_unit",
    "emit_multi_unit",
    "exact_identify",
    "evaluate_as_threshold_pair",
    "find_multi_unit_cover",
    "format_test_table",
    "geq_block_threshold",
    "identification_cache",
    "identification_key",
    "identify_comparison",
    "identify_positions",
    "is_comparison_exact",
    "is_comparison_function",
    "leq_block_threshold",
    "lookup_positions",
    "robust_tests_for_unit",
    "unit_cost",
    "warm_identification_cache",
]
