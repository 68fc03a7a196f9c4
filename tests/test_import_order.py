"""``persistence`` imports ``config`` at module level; each must import on its
own in a fresh interpreter, so that no import order can expose a cycle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["gridlander.persistence", "gridlander.config"])
def test_module_imports_first_in_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
