"""The benchmark's tracer wraps package functions by name, and its inputs
pass perturbations as directive strings; a refactor that drops or renames
one of those functions, or parses a directive differently, must fail here
rather than in a benchmark run."""

import ast
import importlib
import sys
import types
from pathlib import Path

from gridlander import perturb

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
INPUTS = TRACER.parent / "inputs.py"


def _exec_source(path: Path) -> types.ModuleType:
    # exec the source instead of importing it, so nothing (not even a
    # bytecode cache) is written next to the benchmark's files
    module = types.ModuleType(f"perfbench_{path.stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _load_tracer() -> types.ModuleType:
    return _exec_source(TRACER)


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


def test_every_benchmark_perturbation_round_trips_through_its_directive(monkeypatch):
    """The ``--perturb`` value the benchmark passes for each perturbation of
    its pool parses back to the perturbation it applies in process."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # the script is imported, not exec'd
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on the path
    inputs = _exec_source(INPUTS)
    pool = inputs.perturbation_pool(inputs.robustness_script())
    assert pool
    for p in pool:
        assert perturb.parse_perturbation(inputs.directive(p), seed=p.seed) == p
