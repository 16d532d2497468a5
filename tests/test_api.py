"""The public API: the names `redrank` exports, each function or
constant among them used by a command or an acceptance criterion, and
the fields and parameters trimmed to what is used, pinned so that
neither can grow back unnoticed, the names the benchmark's traced runs
rebind, which must keep resolving, and the library's freedom from
floating point."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import redrank

PUBLIC = [
    "AngleParams", "BoundReport", "COS_REFERENCE", "CensusReport",
    "ConjectureSummary", "DuplicationWitness", "EnumerationCapError",
    "ExtremalConstructionError", "FormatError", "Graph",
    "InequalityReport", "IntegralBracket", "LevDenominatorZero",
    "ORDER_CAP", "PropertySuiteReport", "QSqrt2", "SuiteCheck",
    "TailCertificate",
    "census_counts", "closed_form_sweep", "conjectured_max_order",
    "construct_extremal", "duplication_witness", "enumerate_graphs",
    "graph6_decode", "graph6_encode", "is_reduced", "lemma_suite",
    "levenshtein_bound", "min_removal_for_duplicates",
    "min_removal_for_rank_drop", "neighborhood_symdiff",
    "parse_edge_list", "parse_graph6", "proven_max_order", "rank",
    "rankin_bound", "reduce_graph", "sniff_format",
    "tail_ratio_certificate", "verify_code_lemma", "verify_conjecture",
    "verify_m_inequalities",
]


def test_public_api_is_pinned():
    assert sorted(redrank.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(redrank, name), name


def _imported_names(path):
    """Every name that the file at `path` imports, read from its import
    statements without running it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_function_and_constant_has_a_user():
    # a command (cli.py) or an acceptance criterion imports each exported
    # function or constant; classes are exempt, as result and error types
    root = Path(__file__).resolve().parents[1]
    used = (_imported_names(root / "src" / "redrank" / "cli.py")
            | _imported_names(root / "tests" / "test_acceptance.py"))
    for name in redrank.__all__:
        if not inspect.isclass(getattr(redrank, name)):
            assert name in used, name


def test_trimmed_members_are_pinned():
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert fields(redrank.AngleParams) == [
        "n", "s", "sin_sq_alpha", "tan_sq_alpha"]
    assert params(redrank.rankin_bound) == ["n", "case"]
    assert params(redrank.IntegralBracket) == ["params"]
    assert fields(redrank.IntegralBracket) == ["params", "lo_sq", "hi_sq"]
    assert params(redrank.BoundReport.to_json) == ["self"]
    assert fields(redrank.BoundReport) == [
        "n", "method", "value", "threshold", "holds", "k_used",
        "branch_used", "notes"]
    for name in ("has_edge", "edge_count"):
        assert not hasattr(redrank.Graph, name), name
    for module, name in (("bounds", "reference_params"),
                         ("exact", "GammaRatio"), ("exact", "PI_LO"),
                         ("graphs", "rank_drops_hold"),
                         ("graphs", "_check_rho_budget"),
                         ("poly", "gegenbauer_values")):
        assert not hasattr(importlib.import_module(f"redrank.{module}"),
                           name), name
    for name in ("__float__", "__rsub__", "__rtruediv__", "__neg__"):
        assert not hasattr(redrank.QSqrt2, name), name
    assert params(redrank.enumerate_graphs) == ["order"]


def _child_tables():
    """BOUNDARIES and LIBRARY_CALLS of perfbench/child.py, read from its
    source without running it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    tables = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("BOUNDARIES", "LIBRARY_CALLS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_benchmark_trace_names_resolve():
    tables = _child_tables()
    assert set(tables) == {"BOUNDARIES", "LIBRARY_CALLS"}
    for module, name, _span in tables["BOUNDARIES"] + tables["LIBRARY_CALLS"]:
        assert callable(getattr(importlib.import_module(f"redrank.{module}"),
                                name, None)), (module, name)
    # traced runs also read the cache counters of these two
    for name in ("gegenbauer", "adjacent_poly"):
        assert hasattr(getattr(redrank.poly, name), "cache_info"), name


def _sibling_imports(module):
    """The redrank modules that src/redrank/<module>.py imports, read
    from its import statements without running it."""
    path = Path(redrank.__file__).with_name(f"{module}.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("redrank."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("redrank."))
    return found


def test_graph_and_bound_layers_meet_only_in_cli():
    graph_side = {"graphs", "formats", "census"}
    bound_side = {"exact", "poly", "bounds"}
    for module in bound_side:
        assert not _sibling_imports(module) & graph_side, module
    for module in graph_side:
        assert not _sibling_imports(module) & bound_side, module
    assert _sibling_imports("cli") >= graph_side | bound_side


def test_library_uses_no_floating_point():
    """No module of the library holds a float or complex literal, uses
    the name float, or imports from math anything but integer functions.
    From decimal it imports Decimal alone, and uses it only as
    str(Decimal(x)), an exact int-to-str conversion, so no decimal
    floating-point arithmetic is possible.  The scan cannot see true
    division between ints, x / y, which makes a float without naming
    one."""
    integer_math = {"comb", "factorial", "gcd", "isqrt", "lcm", "prod"}
    for path in sorted(Path(redrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the Decimal names that stand in str(Decimal(x))
        rendered = {id(node.args[0].func) for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "str"
                    and len(node.args) == 1 and not node.keywords
                    and isinstance(node.args[0], ast.Call)
                    and len(node.args[0].args) == 1
                    and not node.args[0].keywords}
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where
            elif isinstance(node, ast.Name):
                assert node.id != "float", where
                assert node.id != "Decimal" or id(node) in rendered, where
            elif isinstance(node, ast.Import):
                assert all(a.name not in ("math", "decimal")
                           for a in node.names), where
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {a.name for a in node.names} <= integer_math, where
            elif isinstance(node, ast.ImportFrom) and node.module == "decimal":
                assert [(a.name, a.asname) for a in node.names] == \
                    [("Decimal", None)], where
