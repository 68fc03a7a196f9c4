"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed. The program under test
only sees what these functions write: PPM frames with a ``labels.csv``, a
detector checkpoint, JSON config files and command-line flags.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from gridlander import perturb, persistence, vital
from gridlander.env import EnvConfig, LanderState, reset_state
from gridlander.geometry import CameraFrame
from gridlander.losses import BBox
from gridlander.rng import Rng

ROOT = Path(__file__).resolve().parent.parent

DETECT_DIRS = 2  # batch directories, each with its own perturbation
DETECT_FRAMES = 8  # labelled frames per directory
CONTROL_DRAWS = 1000  # per-step perturbation draws; a run cycles through them
CONTROL_STARTS = 100  # episode start states; a run cycles through them
# Below the 100-episode stop window, so the stop criterion cannot fire and a
# train call measures throughput only.
TRAIN_EPISODES = 25
# (half-width, height) in cells, k_weights and landing radius of the
# 13x13x9, 19x19x13 and 25x25x17 grids. The reward weights and the radius
# set the rollout lengths: on the largest grid, oracle plus eval took 4.2 s
# with one pair and 5.9 s with another, so they are fixed per grid rather
# than drawn, or the seed would move a run's time by more than its bound.
ORACLE_GRIDS = (
    ((6, 8), (1.0, 1.0, 2.0), 1.5),
    ((9, 12), (2.0, 2.0, 1.0), 1.0),
    ((12, 16), (1.0, 1.0, 1.0), 1.0),
)
BOUNDARY_MODES = ("clamp", "crash")  # drawn per grid; both cost the same
ORACLE_GAMMA = 0.9
QL_SWEEPS = 10  # Q-learning steps = sweeps x (state, action) pairs

# The control camera sees the whole default grid from 1 m up, and a
# half-pixel box error stays under half a cell up to 8 m.
CONTROL_CAMERA = CameraFrame(meters_per_pixel_per_meter=0.1)
MARKER_SIDE = 16  # pixels
MARKER_INTENSITY = np.array([0.9, 0.8, 1.0], dtype=np.float32)  # as in the robustness script


def robustness_script():
    """``scripts/detector_robustness.py``, loaded for its marker model and
    perturbation sets."""
    path = ROOT / "scripts" / "detector_robustness.py"
    spec = importlib.util.spec_from_file_location("detector_robustness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perturbation_pool(script) -> list[perturb.Perturbation]:
    """The six modality failures and nine weather conditions of the script."""
    pool = [perturb.Perturbation("disable", modalities=d) for _, d in script.MODALITY_SETS if d]
    return pool + [p for _, p in script.WEATHER]


def directive(p: perturb.Perturbation) -> str:
    """The ``--perturb`` flag value that parses back to ``p`` (seed aside)."""
    if p.kind == "disable":
        return "disable=" + ",".join(p.modalities)
    if p.kind == "brightness":
        return f"brightness={p.delta!r}"
    if p.kind == "fog":
        return f"fog={p.low!r},{p.high!r}"
    raise ValueError(f"no directive for {p.kind}")


def _detect_batches(seed: int, workdir: Path, script) -> list[dict]:
    rng = Rng(seed).derive(11)
    pool = perturbation_pool(script)
    batches = []
    for b in range(DETECT_DIRS):
        d = workdir / f"batch{b}"
        d.mkdir()
        records = []
        for i, (img, truth) in enumerate(script.build_dataset(rng, DETECT_FRAMES)):
            name = f"img_{i:03d}.ppm"
            persistence.write_ppm(d / name, img)
            corners = truth.corners if truth is not None else (0.0, 0.0, 0.0, 0.0)
            records.append(persistence.SampleRecord(name, *corners, int(truth is not None)))
        persistence.write_sample_records(d / "labels.csv", records)
        pert = pool[int(rng.integers(len(pool)))]
        batches.append(
            {"dir": str(d), "perturb": directive(pert), "frames": [r.image_path for r in records]}
        )
    return batches


def _control_draws(seed: int, script) -> dict:
    rng = Rng(seed).derive(12)
    pool = perturbation_pool(script)
    env_cfg = EnvConfig()
    starts = [list(reset_state(env_cfg, rng)) for _ in range(CONTROL_STARTS)]
    perts = [int(rng.integers(len(pool))) for _ in range(CONTROL_DRAWS)]
    return {"starts": starts, "perturbations": perts}


def _oracle_grids(seed: int, workdir: Path) -> list[dict]:
    rng = Rng(seed).derive(14)
    grids = []
    for i, ((half, height), k_weights, radius) in enumerate(ORACLE_GRIDS):
        env = {
            "x_range": [-float(half), float(half)],
            "y_range": [-float(half), float(half)],
            "z_range": [0.0, float(height)],
            "k_weights": list(k_weights),
            "landing_zone_radius": radius,
            "boundary_mode": BOUNDARY_MODES[int(rng.integers(len(BOUNDARY_MODES)))],
        }
        path = workdir / f"grid{i}.json"
        path.write_text(json.dumps({"env": env, "train": {"gamma": ORACLE_GAMMA}}, sort_keys=True))
        side = 2 * half + 1
        grids.append(
            {
                "config": str(path),
                "states": side * side * (height + 1),
                "ql_steps": QL_SWEEPS * 5 * side * side * height,
            }
        )
    return grids


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs under ``workdir`` and return their spec."""
    spec: dict = {"workload": workload, "seed": seed, "workdir": str(workdir)}
    if workload in ("detect-batch", "control"):
        ckpt = workdir / "detector.ckpt"
        persistence.save_vital_checkpoint(ckpt, vital.init_weights(vital.VitalConfig(), seed))
        spec["checkpoint"] = str(ckpt)
        script = robustness_script()
        if workload == "detect-batch":
            spec["batches"] = _detect_batches(seed, workdir, script)
        else:
            spec.update(_control_draws(seed, script))
    elif workload == "train":
        spec["episodes"] = TRAIN_EPISODES
    elif workload == "oracle":
        spec["grids"] = _oracle_grids(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "spec.json").write_text(json.dumps(spec, sort_keys=True))
    return spec


def render_marker(state: LanderState, rng: Rng) -> tuple[vital.MultimodalImage, BBox]:
    """A control frame: the robustness script's dim noisy scene with its
    bright square marker placed where ``CONTROL_CAMERA`` sees the pad from
    ``state``. Returns the frame and the marker's pixel box."""
    planes = (rng.uniform(size=(3, 160, 160)) * 0.25).astype(np.float32)
    scale = CONTROL_CAMERA.meters_per_pixel_per_meter * state.dz
    x0 = int(round(CONTROL_CAMERA.cx + state.dx / scale - MARKER_SIDE / 2))
    y0 = int(round(CONTROL_CAMERA.cy + state.dy / scale - MARKER_SIDE / 2))
    planes[:, y0 : y0 + MARKER_SIDE, x0 : x0 + MARKER_SIDE] = MARKER_INTENSITY[:, None, None]
    box = BBox(float(x0), float(y0), float(x0 + MARKER_SIDE), float(y0 + MARKER_SIDE))
    return vital.MultimodalImage(planes), box
