"""The benchmark's tracer wraps package functions by name; a refactor that
drops or renames one of them must fail here rather than in a traced run."""

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
