"""Import boundaries, each checked in a fresh interpreter.

``persistence`` imports ``config`` at module level; each must import on its
own, so that no import order can expose a cycle. scipy is loaded only by a
process that builds or loads a detector, and then during that build, before
any ``detect``. Its exact GELU needs ``erf``, which ``nncore.load_erf`` loads
from scipy's compiled extension ``scipy.special._special_ufuncs`` without
importing the ``scipy.special`` package; a later ``import scipy.special``
still works and exposes the same ufunc. The layout test fails if a scipy
release moves ``erf`` out of that extension.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridlander.dqn import init_qnetwork
from gridlander.persistence import save_dqn_checkpoint, save_vital_checkpoint, write_ppm
from gridlander.vital import MultimodalImage, VitalConfig, init_weights

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_fresh(code: str, cwd=None) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("GRIDLANDER_CONFIG", None)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module", ["gridlander.persistence", "gridlander.config"])
def test_module_imports_first_in_fresh_interpreter(module):
    run_fresh(f"import {module}")


def test_package_import_leaves_scipy_unloaded():
    run_fresh(f"import sys\nimport gridlander, gridlander.cli\nassert not {SCIPY_MODULES}, {SCIPY_MODULES}")


NO_DETECTOR_RUNS = {
    "train": ["train", "--out", "train", "--episodes", "2"],
    "eval-oracle": ["eval", "--oracle", "--episodes", "2"],
    "oracle": ["oracle", "--ql-steps", "1000"],
    "perturb": ["perturb", "--image", "img.ppm", "--perturb", "fog=0.1,0.5", "--out", "perturbed"],
    "eval-checkpoint": ["eval", "--checkpoint", "q.ckpt", "--episodes", "2"],
}


@pytest.mark.parametrize("argv", NO_DETECTOR_RUNS.values(), ids=NO_DETECTOR_RUNS.keys())
def test_commands_without_detector_leave_scipy_unloaded(tmp_path, argv):
    write_ppm(tmp_path / "img.ppm", MultimodalImage(np.full((3, 160, 160), 0.5, np.float32)))
    save_dqn_checkpoint(tmp_path / "q.ckpt", init_qnetwork(0), {})
    run_fresh(
        "import sys\nfrom gridlander import cli\n"
        f"assert cli.main({argv!r}) == 0\nassert not {SCIPY_MODULES}, {SCIPY_MODULES}",
        cwd=tmp_path,
    )


ERF_ONLY = (
    "assert 'scipy.special._special_ufuncs' in sys.modules, " + SCIPY_MODULES + "\n"
    "assert 'scipy.special' not in sys.modules, " + SCIPY_MODULES + "\n"
)
LATER_SCIPY_SPECIAL = (
    "import scipy.special\n"
    "from gridlander.nncore import load_erf\n"
    "assert load_erf() is scipy.special.erf\n"
)


def test_detector_build_loads_scipy_before_detect():
    run_fresh(
        "import sys\nfrom gridlander import vital\n"
        f"assert not {SCIPY_MODULES}\n"
        "vital.init_weights(vital.VitalConfig(), 0)\n" + ERF_ONLY + LATER_SCIPY_SPECIAL
    )


def test_detector_checkpoint_load_loads_scipy_before_detect(tmp_path):
    config = VitalConfig(embed_dim=8, encoder_layers=1, ffn_hidden=16, heads=3, stem_channels=(2, 2, 2))
    save_vital_checkpoint(tmp_path / "v.ckpt", init_weights(config, 0))
    run_fresh(
        "import sys\nimport numpy as np\nfrom gridlander import persistence, vital\n"
        f"assert not {SCIPY_MODULES}\n"
        "weights = persistence.load_vital_checkpoint('v.ckpt')\n" + ERF_ONLY +
        f"loaded = {SCIPY_MODULES}\n"
        "vital.detect(vital.MultimodalImage(np.full((3, 160, 160), 0.5, np.float32)), weights)\n"
        f"assert {SCIPY_MODULES} == loaded\n" + LATER_SCIPY_SPECIAL,
        cwd=tmp_path,
    )


def test_erf_extension_layout_of_installed_scipy():
    """``erf`` lives in ``scipy.special._special_ufuncs`` and is the ufunc
    that ``scipy.special`` exports, also when ``scipy.special`` loads first."""
    run_fresh(
        "import sys\nimport scipy.special\nfrom gridlander.nncore import load_erf\n"
        "assert load_erf() is scipy.special.erf is sys.modules['scipy.special._special_ufuncs'].erf\n"
    )
