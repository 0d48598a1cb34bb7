"""Every name that other code reaches by its string resolves.

perfbench's tracer wraps the layers it times by looking each one up with
getattr, and `__all__` promises names to `from ... import *`; a deleted or
renamed function would otherwise surface only when someone runs a traced
benchmark or a star import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import poset_secretary

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_functions() -> dict:
    """The tracer's WRAPPED_FUNCTIONS table, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED_FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no WRAPPED_FUNCTIONS")


def test_traced_and_exported_names_resolve():
    missing = []
    for module, names in wrapped_functions().items():
        mod = importlib.import_module(f"poset_secretary.{module}")
        missing += [f"{module}.{name} (traced)" for name in names
                    if not callable(getattr(mod, name, None))]
    modules = [poset_secretary] + [importlib.import_module(f"poset_secretary.{info.name}")
                                   for info in pkgutil.iter_modules(poset_secretary.__path__)]
    for mod in modules:
        missing += [f"{mod.__name__}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert not missing
