"""Shared oracles for the test suite: finite differences, error metrics,
box translation and scaling, grid-table lookup, the checks on child
processes, the detector's golden digests and inputs, and running the CLI
pinned to one BLAS thread."""

import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridlander import cores
from gridlander.env import LanderState
from gridlander.losses import BBox
from gridlander.persistence import SampleRecord, write_ppm, write_sample_records
from gridlander.rng import Rng
from gridlander.vital import MODALITIES, MultimodalImage

SRC = Path(__file__).resolve().parents[1] / "src"
TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2,
    reason="the fan-out needs os.fork and at least 2 CPUs",
)


BUNDLED_OPENBLAS = pytest.mark.skipif(
    np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name")
    != "scipy-openblas",
    reason="numpy does not bundle scipy-openblas, whose thread count the fan-out reads",
)


def fd_grad(scalar_fn, arr, h=1e-3):
    """Central-difference gradient of scalar_fn with respect to arr.

    ``arr`` is mutated in place during probing and restored afterwards, so
    ``scalar_fn`` must read it afresh on every call. Use float64 arrays.
    """
    grad = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = scalar_fn()
        flat[i] = orig - h
        lo = scalar_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(a, b, floor=1e-6):
    """Elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def translated(box: BBox, tx: float, ty: float) -> BBox:
    """``box`` moved by (tx, ty)."""
    return BBox(box.x_min + tx, box.y_min + ty, box.x_max + tx, box.y_max + ty)


def scaled(box: BBox, s: float) -> BBox:
    """``box`` with every corner multiplied by ``s``."""
    return BBox(box.x_min * s, box.y_min * s, box.x_max * s, box.y_max * s)


def table_state(mdp, idx: int) -> LanderState:
    """The cell ``mdp.states[idx]``. ``idx`` indexes ``states``, ground layer
    included, not the rows of the transition arrays."""
    return LanderState(*map(float, mdp.states[idx]))


def assert_no_child_left():
    """This process has no child, running or ended and not yet reaped, but
    its standing detector lanes (``cores.standing``), which are running."""
    lanes = set(cores.standing())
    if lanes:
        assert live_children() == lanes
        assert os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        return
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forbid_forks(monkeypatch):
    """Make any ``os.fork`` call fail the test."""
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)


def live_children() -> set:
    """The pids of this process's children that are not yet reaped, running
    or ended, read from /proc."""
    me, found = os.getpid(), set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except OSError:  # it ended and was reaped meanwhile
            continue
        if ppid == me:
            found.add(int(entry))
    return found


def links_open():
    """The socket and FIFO descriptors this process holds."""
    def is_link(fd):
        try:
            mode = os.stat(f"/proc/self/fd/{fd}").st_mode
        except FileNotFoundError:  # the descriptor listdir read the directory through
            return False
        return stat.S_ISSOCK(mode) or stat.S_ISFIFO(mode)

    return {fd for fd in map(int, os.listdir("/proc/self/fd")) if is_link(fd)}


def random_image(seed):
    rng = np.random.default_rng(seed)
    return MultimodalImage(rng.random((3, 160, 160)).astype(np.float32))


def make_batch(directory: Path, frames: int) -> Path:
    directory.mkdir()
    records = []
    for i in range(frames):
        write_ppm(directory / f"img_{i}.ppm", random_image(40 + i))
        records.append(SampleRecord(f"img_{i}.ppm", 0.25, 0.25, 0.75, 0.75, i % 2))
    write_sample_records(directory / "labels.csv", records)
    return directory


PINNED_TO_ONE_CPU = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "from gridlander.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_detect(argv, one_cpu: bool) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env.pop("GRIDLANDER_CONFIG", None)
    cmd = ["-c", PINNED_TO_ONE_CPU] if one_cpu else ["-m", "gridlander"]
    return subprocess.run([sys.executable, *cmd, *argv], env=env, capture_output=True,
                          timeout=300)


# SHA-256 of the raw output bytes for init_weights(seed=0) on three seeded
# frames, the last with its lidar plane zeroed. A kernel rewrite that keeps
# every dot product on the same float64 GEMM operands must leave them unchanged.

GOLDEN = {
    "visual": "d66359d61bea8076378f59725bc2fa36710d1cbd6494293e04286af2a0cb853c",
    "thermal": "db023705df23f7ee90b5151d891a59874eb88a63da708e8ced1050becfad3cba",
    "lidar": "568ec3f677821767f6f1cc538ca32679033c806122197ef2a0eb56107c4472e0",
    "encoder": "3adab39a90fa5b7c6f385b3e66544b2c365979a377467e3d30c7424a27d2a7cb",
    "detect": "62db7e9889e0fa2b1fd68df93d4b07b18321c5a7e90dfe736c4dcbc4b1c9c9d5",
}


def golden_frames():
    for seed in (1, 2, 3):
        planes = Rng(seed).uniform(size=(3, 160, 160)).astype(np.float32)
        if seed == 3:
            planes[MODALITIES.index("lidar")] = 0.0
        yield MultimodalImage(planes)


def detection_bytes(det):
    b = det.bbox
    return np.array([det.objectness, b.x_min, b.y_min, b.x_max, b.y_max], np.float64).tobytes()
