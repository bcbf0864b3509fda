"""Lint: Monte Carlo stays independent of the exact engines it checks.

relpoly.mc imports the exact pipeline only for cross_check's exact side, and
its kernel (the component counts, the edge sampler and the bit-sliced
counter) calls nothing from relpoly: an estimate that went
through the census, deletion-contraction or canonical labeling would share
their faults instead of catching them.  The k and p range checks it shares
with rel are input checks, not exact engines, so it may import them too.
"""
import ast
from pathlib import Path

import relpoly

KERNEL = ("_component_counts", "_bernoulli_row", "_add", "_more_than")
ALLOWED_IMPORTS = {
    ("counts", "ntable_from_whitney"),
    ("counts", "rel_eval"),
    ("counts", "reliability"),
    ("counts", "require_k"),
    ("counts", "require_probability"),
    ("errors", "ParameterError"),
    ("graphs", "SimpleGraph"),
    ("tutte", "whitney"),
}


def relpoly_imports(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for every name imported from relpoly anywhere in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("relpoly")):
            module = node.module.removeprefix("relpoly").lstrip(".") if node.module else ""
            found |= {(module, alias.asname or alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {("", a.asname or a.name) for a in node.names if a.name.startswith("relpoly")}
    return found


def function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def relpoly_calls(tree: ast.Module, name: str) -> list[str]:
    """Calls in function `name` whose callee is rooted at a relpoly name,
    plus any relpoly import inside it."""
    names = {bound for _, bound in relpoly_imports(tree)} | {"relpoly"}
    body = function(tree, name)
    found = [f"imports {bound} from relpoly" for _, bound in sorted(relpoly_imports(body))]
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            root = node.func
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id in names:
                found.append(f"line {node.lineno}: calls {root.id}")
    return found


def users(tree: ast.Module, name: str) -> set[str]:
    """Top-level functions that mention `name`."""
    return {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(fn))
    }


MC = ast.parse((Path(relpoly.__file__).parent / "mc.py").read_text())


def test_lint_finds_an_engine_call():
    sample = ast.parse(
        "from .tutte import whitney\nimport heapq\n"
        "def _component_counts(g):\n"
        "    from .graphs import canonical_form\n"
        "    heapq.heapify([])\n"
        "    return whitney(g).coeffs.get(0)\n"
    )
    assert relpoly_imports(sample) == {("tutte", "whitney"), ("graphs", "canonical_form")}
    assert relpoly_calls(sample, KERNEL[0]) == [
        "imports canonical_form from relpoly", "line 6: calls whitney",
    ]


def test_mc_imports_only_the_cross_check_names():
    assert relpoly_imports(MC) == ALLOWED_IMPORTS


def test_whitney_only_on_the_exact_side():
    assert users(MC, "whitney") == {"cross_check"}


def test_kernel_calls_no_relpoly_name():
    assert {name: relpoly_calls(MC, name) for name in KERNEL} == {name: [] for name in KERNEL}
