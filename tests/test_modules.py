"""The package's module structure: which module owns which name, and which
modules may import which.

The schedule format (``spinbus.schedule``) and the validity rules
(``spinbus.validate``) do not depend on the mapper; ``spinbus.mapper``
re-exports ``schedule_from_json``, ``schedule_to_json`` and
``validate_schedule`` as the very same objects, since perfbench names the
mapper as their home (its tracer rebinds by identity).
"""
import ast
import importlib
from pathlib import Path

import pytest

import spinbus
import spinbus.mapper

SRC = Path(spinbus.__file__).parent

# the layers, each importing only from the ones before it
LAYERS = ["architecture", "error_model", "schedule", "validate", "mapper"]

# every name that spinbus.mapper binds and callers read from it, with its
# home module
HOMES = {
    "Schedule": "schedule",
    "ScheduleOps": "schedule",
    "schedule_from_json": "schedule",
    "schedule_to_json": "schedule",
    "validate_schedule": "validate",
    "STRATEGIES": "mapper",
    "STRATEGY_FLAGS": "mapper",
    "map_strategy": "mapper",
}


def _imports(module: str) -> list[tuple[str, str]]:
    """(package module, name) for every name ``module`` imports from a
    module of the package, relatively or by its full name."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.module and node.module.startswith("spinbus."):
                source = node.module.removeprefix("spinbus.")
            else:
                continue
            found += [(source or alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name.removeprefix("spinbus."), "*")
                for alias in node.names
                if alias.name.startswith("spinbus.")
            ]
    return found


def _defined(module: str) -> set[str]:
    """The names ``module`` binds at its top level other than by import."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("module", LAYERS)
def test_layers_import_only_earlier_layers(module):
    later = set(LAYERS[LAYERS.index(module):])
    assert not [(src, name) for src, name in _imports(module) if src in later]


def test_package_imports_are_acyclic():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    graph = {m: {src for src, _ in _imports(m) if src in modules} for m in modules}
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, f"import cycle {path + [module]}"
        if module not in done:
            for dep in graph[module]:
                visit(dep, path + [module])
            done.add(module)

    for module in modules:
        visit(module, [])


@pytest.mark.parametrize("module", ["__init__", "cli", "metrics"])
def test_names_come_from_their_owning_module(module):
    owned = _defined("mapper")
    through_mapper = [name for src, name in _imports(module) if src == "mapper" and name not in owned]
    assert through_mapper == []


@pytest.mark.parametrize("name", sorted(HOMES))
def test_mapper_names_are_their_homes_objects(name):
    home = importlib.import_module(f"spinbus.{HOMES[name]}")
    obj = getattr(home, name)
    assert getattr(spinbus.mapper, name) is obj
    assert getattr(obj, "__module__", home.__name__) == home.__name__
    if not name.startswith("_") and name != "ScheduleOps":
        assert getattr(spinbus, name) is obj
