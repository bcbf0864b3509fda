"""Lint: the subset census stays independent of the engines it checks.

edge_subset_census is the oracle behind tutte_expansion, whitney_expansion
and ntable_bruteforce, which check deletion-contraction and the tables read
off its Whitney polynomial.  A census that called canonical labeling, or
anything in relpoly.tutte or relpoly.poly, would share their faults instead
of catching them.
"""
import ast
import re
from pathlib import Path

import relpoly

ENTRY = "edge_subset_census"
FORBIDDEN_CALL = re.compile(r"canonical_\w*|_canon_search|_refine|_initial_cells")
FORBIDDEN_MODULES = {"tutte", "poly"}


def called_names(fn: ast.FunctionDef) -> set[str]:
    """Names called in fn, bare or as the last attribute of the callee."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def census_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """The entry point and every top-level function it reaches by name."""
    top = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached = {}
    stack = [ENTRY]
    while stack:
        name = stack.pop()
        if name in reached or name not in top:
            continue
        reached[name] = top[name]
        stack.extend(called_names(top[name]))
    return reached


def forbidden_imports(node: ast.AST) -> list[str]:
    """Imports from relpoly.tutte or relpoly.poly anywhere under node."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and sub.module:
            module = sub.module.removeprefix("relpoly").lstrip(".")
            if (sub.level or sub.module.startswith("relpoly")) and module in FORBIDDEN_MODULES:
                found.append(f"line {sub.lineno}: imports from {module}")
        elif isinstance(sub, ast.Import):
            found += [
                f"line {sub.lineno}: imports {a.name}"
                for a in sub.names
                if a.name.removeprefix("relpoly.") in FORBIDDEN_MODULES
            ]
    return found


def violations(tree: ast.Module) -> list[str]:
    found = forbidden_imports(tree)
    for name, fn in sorted(census_functions(tree).items()):
        found += [f"{name} calls {c}" for c in sorted(called_names(fn)) if FORBIDDEN_CALL.fullmatch(c)]
    return found


GRAPHS = ast.parse((Path(relpoly.__file__).parent / "graphs.py").read_text())


def test_lint_finds_a_canonical_call_and_an_engine_import():
    sample = ast.parse(
        "from .errors import BudgetError\n"
        "def edge_subset_census(g):\n"
        "    return _helper(g)\n"
        "def _helper(g):\n"
        "    from .tutte import tutte_dc\n"
        "    return g.canonical_labeling(), _refine(g)\n"
        "def _unrelated(g):\n"
        "    return canonical_form(g)\n"
    )
    assert set(census_functions(sample)) == {"edge_subset_census", "_helper"}
    assert violations(sample) == [
        "line 5: imports from tutte", "_helper calls _refine", "_helper calls canonical_labeling",
    ]


def test_census_calls_no_canonical_labeling_and_imports_no_engine():
    assert {"_census_schedule", "_census_dp"} <= set(census_functions(GRAPHS))
    assert violations(GRAPHS) == []
