"""Every name that other code reaches by its string resolves.

perfbench's tracer wraps the layers it times by looking each one up with
getattr, and reads other names off the package modules it imports (such as
`montecarlo.ProcessPoolExecutor`, which it replaces); `__all__` promises
names to `from ... import *`.  A deleted or renamed name would otherwise
surface only when someone runs a traced benchmark or a star import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import poset_secretary

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_source() -> ast.Module:
    """The tracer's syntax tree, parsed without importing it."""
    return ast.parse(TRACING.read_text(encoding="utf-8"))


def wrapped_functions() -> dict:
    """The tracer's WRAPPED_FUNCTIONS table."""
    for node in tracer_source().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED_FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no WRAPPED_FUNCTIONS")


def attributes_read() -> set:
    """(module, name) for every `module.name` the tracer reads off a package module it imports."""
    tree = tracer_source()
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "poset_secretary"
               for alias in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


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
    read = attributes_read()
    assert read, f"{TRACING} reads no attribute of a package module"
    missing += [f"{module}.{name} (read by the tracer)" for module, name in sorted(read)
                if not hasattr(importlib.import_module(f"poset_secretary.{module}"), name)]
    assert not missing
