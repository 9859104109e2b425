"""Exact Young diagram dimensions, growth heuristics, and dimension search.

The pieces, bottom up: diagrams and their geometry (`diagram`), exact
and log-domain dimensions (`dimension`), growth transition
probabilities and greedy/shaking heuristics (`plancherel`), the
diagonal-reflection and balancing transforms (`transforms`), exhaustive
ground truth (`oracle`), best-first search for maximum-dimension
diagrams (`search`), and run-record persistence (`records`).

`_EXPORTS` maps each module to the public names it defines, and
`__all__` is read from it, so each name is written once.  The
namespace is lazy (PEP 562): `import youngdim` loads none of the
modules, and a public name, or a module such as `youngdim.search`,
imports its module the first time it is used.  A process that never
verifies the transforms then never compiles them.  A public name is
looked up in its module on every use, so it always reads what the
module holds.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "diagram": ("Box", "YoungDiagram", "reflected"),
    "dimension": (
        "count_syt_enumeration",
        "dim_exact",
        "dim_recursive",
        "hook_product",
        "log_dim",
        "log_factorial",
        "normalized_dim",
    ),
    "oracle": (
        "MaxTableEntry",
        "all_dimensions",
        "max_dimension_core",
        "max_dimension_diagrams",
        "max_table",
        "verify_max_geometry",
        "verify_one_box_claim",
    ),
    "plancherel": (
        "GrowthPath",
        "TransitionEdge",
        "branches",
        "greedy_grow",
        "greedy_sequence",
        "greedy_step",
        "path_cost",
        "shake_variant",
        "transition_edges",
        "transition_prob",
    ),
    "records": (
        "RunRecord",
        "emit_records",
        "format_partition",
        "load_records",
        "parse_partition",
        "ratios_csv",
        "record_for",
    ),
    "search": (
        "SearchResult",
        "astar",
        "local_improve",
        "search_from",
        "sequence_improve",
    ),
    "transforms": (
        "TransformReport",
        "balance",
        "balance_sweep",
        "balance_to_core",
        "check_reflection_hook_identities",
        "reflection_hooks_sweep",
        "symmetrize",
        "symmetrize_sweep",
    ),
    # its error classes are used as `youngdim.errors.<name>`
    "errors": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
