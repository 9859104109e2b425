"""Exact Young diagram dimensions, growth heuristics, and dimension search.

The pieces, bottom up: diagrams and their geometry (`diagram`), exact
and log-domain dimensions (`dimension`), growth transition
probabilities and greedy/shaking heuristics (`plancherel`), the
diagonal-reflection and balancing transforms (`transforms`), exhaustive
ground truth (`oracle`), best-first search for maximum-dimension
diagrams (`search`), and run-record persistence (`records`).
"""

from .diagram import Box, YoungDiagram, reflected
from .dimension import (
    count_syt_enumeration,
    dim_exact,
    dim_recursive,
    hook_product,
    log_dim,
    log_factorial,
    normalized_dim,
)
from .oracle import (
    MaxTableEntry,
    max_dimension_core,
    max_dimension_diagrams,
    max_table,
    partition_count,
    partitions,
    verify_max_geometry,
    verify_one_box_claim,
)
from .plancherel import (
    GrowthPath,
    TransitionEdge,
    branches,
    greedy_grow,
    greedy_sequence,
    greedy_step,
    path_cost,
    shake,
    shake_variant,
    transition_edges,
    transition_prob,
)
from .records import (
    RunRecord,
    emit_records,
    format_partition,
    load_records,
    parse_partition,
    ratios_csv,
    record_for,
)
from .search import (
    SearchResult,
    TreeNode,
    astar,
    local_improve,
    remaining_cost_estimate,
    sequence_improve,
    tree_children,
    tree_sweep,
)
from .transforms import (
    TransformReport,
    balance,
    balance_sweep,
    balance_to_core,
    check_reflection_hook_identities,
    reflection_hooks_sweep,
    symmetrize,
    symmetrize_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "GrowthPath",
    "MaxTableEntry",
    "RunRecord",
    "SearchResult",
    "TransformReport",
    "TransitionEdge",
    "TreeNode",
    "YoungDiagram",
    "astar",
    "balance",
    "balance_sweep",
    "balance_to_core",
    "branches",
    "check_reflection_hook_identities",
    "count_syt_enumeration",
    "dim_exact",
    "dim_recursive",
    "emit_records",
    "format_partition",
    "greedy_grow",
    "greedy_sequence",
    "greedy_step",
    "hook_product",
    "load_records",
    "local_improve",
    "log_dim",
    "log_factorial",
    "max_dimension_core",
    "max_dimension_diagrams",
    "max_table",
    "normalized_dim",
    "parse_partition",
    "partition_count",
    "partitions",
    "path_cost",
    "ratios_csv",
    "record_for",
    "reflected",
    "reflection_hooks_sweep",
    "remaining_cost_estimate",
    "sequence_improve",
    "shake",
    "shake_variant",
    "symmetrize",
    "symmetrize_sweep",
    "transition_edges",
    "transition_prob",
    "tree_children",
    "tree_sweep",
    "verify_max_geometry",
    "verify_one_box_claim",
]
