"""Lint: every module-level function and class of relpoly has a user in relpoly.

A helper that only its own unit tests call is API the program does not
need, and it tends to grow a second route to numbers the program already
computes (a forest count by its own deletion-contraction, beside the count
table's t_k).  So each top-level def and class of src/relpoly must be named
somewhere else in src/relpoly: called, passed, read as an attribute, or
imported into another module.  Re-exports in __init__.py do not count, and
neither do names inside the definition itself, so recursion alone keeps
nothing alive.  Methods are out of scope.

The check is by name, so a name that some other object also carries (an
attribute or a local of the same name) counts as used.  The exceptions are
ALLOWED, each with its reason, and the list must stay exact: an exception
that gains a user in the program is dropped from it.
"""
import ast
from pathlib import Path

import relpoly

ALLOWED = {
    "tutte.tree_number_mtt": "oracle: spanning trees by a Laplacian-minor determinant, checks W(0, 0)",
    "graphs.automorphism_count": "oracle: sum of n!/|Aut| over a class checks enumeration",
    "scan.labeled_connected_count": "oracle: labeled connected counts by recursion, checks enumeration",
    "counts.ntable_bruteforce": "oracle: the count table from the subset census, checks ntable_from_whitney",
    "counts.bernstein_certify": "public sign certificate, documented in the README and run by demo 02",
    "scan.verify_section4": "checks the invariant-maxima claims on a scan; acceptance criterion 8 and demo 04 run it",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded, stored, read as attributes or imported under node,
    outside the subtree skip."""
    names = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        stack.extend(ast.iter_child_nodes(sub))
    return names


def unused_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """The top-level defs and classes, as "module.name", that no other place
    in modules names; a module called "__init__" is not searched."""
    searched = {name: tree for name, tree in modules.items() if name != "__init__"}
    named = {name: names_in(tree) for name, tree in searched.items()}
    elsewhere = {name: set().union(*(n for m, n in named.items() if m != name)) for name in named}
    return sorted(
        f"{module}.{node.name}"
        for module, tree in searched.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name not in elsewhere[module]
        and node.name not in names_in(tree, skip=node)
    )


SOURCE = Path(relpoly.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


def test_lint_finds_definitions_used_only_by_exports_or_themselves():
    modules = {
        "__init__": ast.parse("from .a import exported_only, used_elsewhere\n"),
        "a": ast.parse(
            "def exported_only():\n"
            "    return 1\n"
            "def recursive_only(k):\n"
            "    return recursive_only(k - 1) if k else 0\n"
            "def used_elsewhere():\n"
            "    return 2\n"
            "def used_by_a_method():\n"
            "    return 3\n"
            "class Unused:\n"
            "    def method(self):\n"
            "        return used_by_a_method()\n"
        ),
        "b": ast.parse(
            "from .a import used_elsewhere\n"
            "VALUE = used_elsewhere()\n"
            "def read_as_attribute():\n"
            "    return 4\n"
        ),
        "c": ast.parse("from . import b\nRESULT = b.read_as_attribute()\n"),
    }
    assert unused_definitions(modules) == ["a.Unused", "a.exported_only", "a.recursive_only"]


def test_every_definition_has_a_user_in_the_program():
    unused = unused_definitions(MODULES)
    assert [name for name in unused if name not in ALLOWED] == []
    assert sorted(set(ALLOWED) - set(unused)) == []  # an exception that is now used
