"""Lint: relpoly refuses with its own error types, never a builtin one.

cli.main maps relpoly's error types to the "usage", "parse", "input" and
"budget" refusals and reports anything else as "internal".  A builtin
exception raised for bad input would therefore reach the user as a fault of
the program.  poly.py is exempt: its ValueErrors guard internal invariants
that no command-line path reaches.
"""
import ast
from pathlib import Path

import relpoly

BUILTINS = {"ValueError", "IndexError", "KeyError", "TypeError", "RuntimeError"}
EXEMPT = {"poly.py"}


def builtin_raises(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BUILTINS:
            found.append((node.lineno, f"{path.name}:{node.lineno}: raise {exc.id}"))
    return [hit for _, hit in sorted(found)]


def test_lint_finds_a_builtin_raise(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(x):\n    if x:\n        raise IndexError(x)\n    raise KeyError\n")
    assert builtin_raises(sample) == ["sample.py:3: raise IndexError", "sample.py:4: raise KeyError"]


def test_no_builtin_raises_outside_poly():
    src = Path(relpoly.__file__).parent
    found = [
        hit
        for path in sorted(src.glob("*.py"))
        if path.name not in EXEMPT
        for hit in builtin_raises(path)
    ]
    assert not found, "raise a relpoly error type instead:\n" + "\n".join(found)
