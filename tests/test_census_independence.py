"""Lint: the subset census and the expansion route stay independent of the
engines they check.

edge_subset_census is the oracle behind tutte_expansion, whitney_expansion
and ntable_bruteforce, which check deletion-contraction and the tables read
off its Whitney polynomial.  A census that called canonical labeling, or
anything in relpoly.tutte or relpoly.poly, would share their faults instead
of catching them; so would an expansion route that reached deletion-
contraction, whose whitney() is tutte_dc shifted.
"""
import ast
import re
from pathlib import Path

import relpoly

ENTRY = "edge_subset_census"
FORBIDDEN_CALL = re.compile(r"canonical_\w*|_canon_search|_refine|_initial_cells|_neighbor_lists")
FORBIDDEN_MODULES = {"tutte", "poly"}
EXPANSION_ENTRIES = ("tutte_expansion", "whitney_expansion")
DC_CALL = re.compile(r"_dc|_dc_block|_core_key|_block_split|tutte_dc|whitney|canonical_\w*")


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


def reached_functions(entries, *trees: ast.Module) -> dict[str, ast.FunctionDef]:
    """The entry points and every top-level function they reach by name; on
    a name defined in more than one tree, the last tree's definition wins."""
    top = {n.name: n for tree in trees for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached = {}
    stack = list(entries)
    while stack:
        name = stack.pop()
        if name in reached or name not in top:
            continue
        reached[name] = top[name]
        stack.extend(called_names(top[name]))
    return reached


def census_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return reached_functions([ENTRY], tree)


def calls_matching(pattern: re.Pattern, functions: dict[str, ast.FunctionDef]) -> list[str]:
    return [
        f"{name} calls {c}"
        for name, fn in sorted(functions.items())
        for c in sorted(called_names(fn))
        if pattern.fullmatch(c)
    ]


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
    return forbidden_imports(tree) + calls_matching(FORBIDDEN_CALL, census_functions(tree))


def expansion_functions(tutte: ast.Module) -> dict[str, ast.FunctionDef]:
    """What the expansion route reaches in tutte.py and in the graphs.py
    functions it imports, such as the census itself."""
    return reached_functions(EXPANSION_ENTRIES, GRAPHS, tutte)


def expansion_violations(tutte: ast.Module) -> list[str]:
    return calls_matching(DC_CALL, expansion_functions(tutte))


SOURCE = Path(relpoly.__file__).parent
GRAPHS = ast.parse((SOURCE / "graphs.py").read_text())
TUTTE = ast.parse((SOURCE / "tutte.py").read_text())


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


def test_lint_finds_an_expansion_route_through_deletion_contraction():
    sample = ast.parse(
        "def tutte_expansion(g):\n"
        "    return whitney(g).shift_vars(-1, -1)\n"
        "def whitney_expansion(g):\n"
        "    return _read(edge_subset_census(g))\n"
        "def _read(counts):\n"
        "    return _core_key(counts)\n"
        "def whitney(g):\n"
        "    return tutte_dc(g)\n"
    )
    assert expansion_violations(sample) == [
        "_read calls _core_key", "tutte_expansion calls whitney", "whitney calls tutte_dc",
    ]


def test_expansion_route_never_reaches_deletion_contraction():
    reached = expansion_functions(TUTTE)
    assert {"tutte_expansion", "whitney_expansion", "edge_subset_census", "_census_dp"} <= set(reached)
    assert expansion_violations(TUTTE) == []
