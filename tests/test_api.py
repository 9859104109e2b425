import ast
import inspect
import pathlib
import subprocess
import sys

import pytest

import youngdim

PUBLIC = [
    "Box",
    "GrowthPath",
    "MaxTableEntry",
    "RunRecord",
    "SearchResult",
    "TransformReport",
    "TransitionEdge",
    "YoungDiagram",
    "all_dimensions",
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
    "path_cost",
    "ratios_csv",
    "record_for",
    "reflected",
    "reflection_hooks_sweep",
    "search_from",
    "sequence_improve",
    "shake_variant",
    "symmetrize",
    "symmetrize_sweep",
    "transition_edges",
    "transition_prob",
    "verify_max_geometry",
    "verify_one_box_claim",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(youngdim.__all__) == PUBLIC
    assert len(set(youngdim.__all__)) == len(youngdim.__all__)
    for name in youngdim.__all__:
        assert getattr(youngdim, name) is not None


def test_search_result_carries_no_timing_or_derived_fields():
    assert list(youngdim.SearchResult._fields) == [
        "diagram", "dim", "cost", "nodes_expanded", "frontier_peak", "mode"
    ]


def test_size_queries_take_no_bound():
    for fn in (
        youngdim.max_dimension_diagrams,
        youngdim.max_dimension_core,
        youngdim.max_table,
        youngdim.verify_max_geometry,
        youngdim.verify_one_box_claim,
    ):
        assert "bound" not in inspect.signature(fn).parameters
    for fn in (youngdim.local_improve, youngdim.sequence_improve):
        assert "uniform_cost" not in inspect.signature(fn).parameters


def test_runtime_imports_are_standard_library_only():
    # zero runtime dependencies: every absolute import in the package
    # names a standard-library module
    sources = sorted(pathlib.Path(youngdim.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def _in_child(code):
    """Stdout of `code` in a fresh interpreter that imports this package."""
    src = str(pathlib.Path(youngdim.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r})\n{code}"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout


def test_cli_import_skips_dataclasses():
    # the result types are NamedTuples, so importing the command line
    # pulls in neither dataclasses nor the inspect module it needs
    out = _in_child("import youngdim.cli; print('dataclasses' in sys.modules)")
    assert out == "False\n"


def test_cli_import_skips_the_transforms():
    # only the verify commands use them, and they import them on first use
    out = _in_child(
        "import youngdim.cli; print('youngdim.transforms' in sys.modules)"
    )
    assert out == "False\n"


def test_package_import_loads_no_module():
    out = _in_child(
        "import youngdim\n"
        "print(sorted(m for m in sys.modules if m.startswith('youngdim.')))"
    )
    assert out == "[]\n"


def test_modules_resolve_on_first_use():
    # youngdim.search needs no import of its own, and loads no transforms
    out = _in_child(
        "import youngdim\n"
        "print(youngdim.search.__name__, youngdim.errors.__name__,"
        " 'youngdim.transforms' in sys.modules)"
    )
    assert out == "youngdim.search youngdim.errors False\n"


def test_module_names_resolve_through_the_package_getattr(monkeypatch):
    # the in-process twin of the check above: with the submodule
    # attribute gone, `youngdim.search` is found by `__getattr__`
    module = youngdim.search
    monkeypatch.delattr(youngdim, "search")
    assert "search" not in vars(youngdim)
    assert youngdim.search is module


def test_public_names_are_their_modules_objects():
    for name in youngdim.__all__:
        obj = getattr(youngdim, name)
        assert obj.__module__.startswith("youngdim."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from youngdim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert set(PUBLIC) <= set(dir(youngdim))
    assert {"search", "transforms", "errors", "__version__"} <= set(dir(youngdim))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        youngdim.no_such_name
    with pytest.raises(ImportError):
        from youngdim import no_such_name  # noqa: F401


def test_cli_builds_its_parsers_on_the_first_call_only():
    # building at import would cost every process, one-shot calls too
    code = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import youngdim.cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert youngdim.cli.main(["dim", "4,2,2"]) == 0
    counts.append(len(built))
print(counts)
"""
    after_import, after_one, after_two = ast.literal_eval(_in_child(code))
    assert after_import == 0
    assert after_one > 0
    assert after_two == after_one


def test_no_public_callable_takes_a_dimension_memo():
    # diagrams carry their exact dimension, so no caller passes one in
    for name in youngdim.__all__:
        obj = getattr(youngdim, name)
        if callable(obj) and not inspect.isclass(obj):
            assert "dims" not in inspect.signature(obj).parameters, name
    assert "dim" not in inspect.signature(youngdim.record_for).parameters


def test_greedy_takes_no_tie_break_knob():
    # breaking ties by (col, row) walks the conjugates, so no knob is kept
    for fn in (
        youngdim.greedy_step,
        youngdim.greedy_grow,
        youngdim.greedy_sequence,
    ):
        assert "mirror_ties" not in inspect.signature(fn).parameters


def test_src_has_no_assert_statements():
    # python -O strips assert, so invariants raise typed errors instead
    sources = sorted(pathlib.Path(youngdim.__file__).parent.glob("*.py"))
    found = [
        (path.name, node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
