"""The benchmark's tracer wraps relpoly attributes by name from outside.

perfbench/tracer.py replaces each (module, attribute) in its WRAP_POINTS
with a recording wrapper, and Tracer.install raises on a name that is gone,
which fails every traced benchmark operation.  This test reads the tracer's
source without importing it as a package or writing beside it, and checks
that every wrap point still names a callable of this checkout.
"""
import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_wrap_points():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module.WRAP_POINTS


def test_every_tracer_wrap_point_resolves_to_a_callable():
    points = load_wrap_points()
    assert points
    missing = []
    for module_name, attr, span in points:
        # resolved as Tracer.install does: "Class.method" names a method
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr} ({span})")
    assert not missing, missing
