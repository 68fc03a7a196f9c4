"""The benchmark's tracer wraps package functions by name; a refactor that
drops or renames one of them must fail here rather than in a traced run."""

import ast
import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # exec the source instead of importing it, so nothing (not even a
    # bytecode cache) is written next to the benchmark's files
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_on_its_owner():
    targets = _load_tracer().default_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
        for owner, attr, span in targets
        if not callable(vars(owner).get(attr))
    ]
    assert not missing, missing


def _gridlander_names_used(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) for every ``from gridlander.X import Y`` and every
    ``m.attr`` where ``m`` came from ``from gridlander import m``; the source
    is parsed, not run, so nothing is written next to it."""
    tree = ast.parse(path.read_text(), str(path))
    used, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gridlander"):
            for alias in node.names:
                used.append((node.module, alias.name))
                if node.module == "gridlander":
                    modules[alias.asname or alias.name] = f"gridlander.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                used.append((modules[node.value.id], node.attr))
    return used


def test_every_gridlander_name_the_benchmark_and_scripts_use_exists():
    root = TRACER.parents[1]
    sources = sorted((root / "perfbench").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    assert sources
    missing = [
        f"{path.name}: {module}.{attr}"
        for path in sources
        for module, attr in _gridlander_names_used(path)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, missing
