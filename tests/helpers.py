"""Shared oracles for the test suite: finite differences, error metrics,
box translation and scaling, grid-table lookup, and the checks on child
processes."""

import os

import numpy as np
import pytest

from gridlander import cores
from gridlander.env import LanderState
from gridlander.losses import BBox


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
