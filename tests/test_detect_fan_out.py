"""``detect --batch`` split across processes: the in-order fan-out helper,
the rule that picks the process count, and the CLI's outputs with the
fan-out on and off."""

import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridlander import cli, cores
from gridlander.cli import main
from gridlander.persistence import FormatError, SampleRecord, write_ppm, write_sample_records
from gridlander.vital import MultimodalImage
from helpers import assert_no_child_left

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


def frame_and_pid(k):
    return k * k, os.getpid()


# --- the fan-out helper, in process --------------------------------------------


@TWO_CPUS
@pytest.mark.parametrize("processes", [2, 3])
def test_in_order_yields_every_frame_in_order(processes):
    got = list(cli._in_order(frame_and_pid, 7, processes))
    assert [v for v, _ in got] == [k * k for k in range(7)]
    pids = [pid for _, pid in got]
    assert all((pid == os.getpid()) == (k % processes == 0) for k, pid in enumerate(pids))
    assert len(set(pids)) == processes
    assert_no_child_left()


@TWO_CPUS
@pytest.mark.parametrize("bad", [3, 2], ids=["child frame", "own frame"])
def test_in_order_raises_a_frames_exception_after_the_earlier_frames(bad):
    def work(k):
        if k == bad:
            raise FormatError(f"frame {k} is malformed")
        return k

    got = []
    with pytest.raises(FormatError, match=f"^frame {bad} is malformed$"):
        for value in cli._in_order(work, 6, 2):
            got.append(value)
    assert got == list(range(bad))
    assert_no_child_left()


@TWO_CPUS
def test_in_order_child_ending_without_a_result():
    def work(k):
        if k == 1:
            os._exit(3)
        return k

    got = []
    with pytest.raises(ChildProcessError, match="frame 1"):
        for value in cli._in_order(work, 4, 2):
            got.append(value)
    assert got == [0]
    assert_no_child_left()


@TWO_CPUS
def test_in_order_interrupted_leaves_no_child():
    def work(k):
        if k == 2:
            raise KeyboardInterrupt
        return k

    with pytest.raises(KeyboardInterrupt):
        list(cli._in_order(work, 6, 2))
    assert_no_child_left()


@TWO_CPUS
def test_in_order_abandoned_by_its_reader_leaves_no_child():
    results = cli._in_order(frame_and_pid, 6, 2)
    assert next(results) == (0, os.getpid())
    results.close()
    assert_no_child_left()


def links_open():
    """The socket and FIFO descriptors this process holds."""
    def is_link(fd):
        try:
            mode = os.stat(f"/proc/self/fd/{fd}").st_mode
        except FileNotFoundError:  # the descriptor listdir read the directory through
            return False
        return stat.S_ISSOCK(mode) or stat.S_ISFIFO(mode)

    return {fd for fd in map(int, os.listdir("/proc/self/fd")) if is_link(fd)}


@TWO_CPUS
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/self/fd")
def test_in_order_child_holds_only_its_own_link():
    """Each child holds one link of its own, none of the parent's ends of
    the others' links, so a child whose parent has died finds its link
    broken at its next result, with or without a death signal."""
    before = links_open()
    got = list(cli._in_order(lambda k: len(links_open() - before), 6, 3))
    assert [got[k] for k in range(6) if k % 3] == [1, 1, 1, 1]
    assert_no_child_left()


# --- the process count -----------------------------------------------------------


@pytest.mark.parametrize(
    "frames, cpus, threads, want",
    [
        (8, 2, 1, 2),
        (8, 2, 2, 1),  # the BLAS already fills the CPUs
        (8, 4, 2, 2),
        (3, 8, 1, 3),  # never more processes than frames
        (1, 8, 1, 1),  # detect --image
        (8, 2, 0, 1),  # the BLAS thread count cannot be read
        (8, 1, 1, 1),
    ],
)
def test_process_count_rule(monkeypatch, frames, cpus, threads, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cores, "_blas_threads", lambda: threads)
    assert cli._processes(frames) == want


def test_process_count_is_one_without_fork(monkeypatch):
    monkeypatch.setattr(cores, "_blas_threads", lambda: 1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli._processes(8) == 1


@BUNDLED_OPENBLAS
def test_blas_thread_count_reads_numpys_openblas():
    assert cores._blas_threads() >= 1


# --- the single-frame paths ------------------------------------------------------


def make_image(seed):
    rng = np.random.default_rng(seed)
    return MultimodalImage(rng.random((3, 160, 160)).astype(np.float32))


def make_batch(directory: Path, frames: int) -> Path:
    directory.mkdir()
    records = []
    for i in range(frames):
        write_ppm(directory / f"img_{i}.ppm", make_image(40 + i))
        records.append(SampleRecord(f"img_{i}.ppm", 0.25, 0.25, 0.75, 0.75, i % 2))
    write_sample_records(directory / "labels.csv", records)
    return directory


def test_single_frame_paths_never_fork(tmp_path, monkeypatch, capsys):
    """detect --image and bench run in this process, as does a batch on one
    CPU even where one BLAS thread would let two processes share it."""
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(cores, "_blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    batch = make_batch(tmp_path / "batch", 3)
    argvs = (
        ["detect", "--image", str(batch / "img_0.ppm")],
        ["bench", "--iters", "1", "--warmup", "0"],
        ["detect", "--batch", str(batch)],
    )
    for argv in argvs:
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.count("img_") == 3


# --- the CLI with the fan-out on and off -------------------------------------------
#
# Tier-1 runs with numpy's default BLAS threads, which on a 2-CPU machine
# turn the fan-out off in process. These subprocess tests pin one BLAS thread
# and are the only tier-1 coverage of the fork path through the CLI: keep them
# in subprocesses rather than folding them into the in-process tests above.

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


@TWO_CPUS
@BUNDLED_OPENBLAS
def test_one_blas_thread_splits_a_batch():
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    code = "from gridlander import cli; print(cli._processes(8))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == min(8, len(os.sched_getaffinity(0)))


@TWO_CPUS
def test_fan_out_outputs_equal_one_process(tmp_path):
    batch = make_batch(tmp_path / "batch", 4)
    runs = []
    for one_cpu in (False, True):
        report = tmp_path / f"report_{one_cpu}.json"
        argv = ["--seed", "3", "detect", "--batch", str(batch), "--perturb", "fog=0.1,0.5",
                "--out", str(report)]
        run = run_detect(argv, one_cpu)
        assert run.returncode == 0, run.stderr
        runs.append((run.stdout, run.stderr, report.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0].decode().count("objectness") == 4


@TWO_CPUS
def test_fan_out_malformed_frame_in_a_childs_share(tmp_path):
    batch = make_batch(tmp_path / "batch", 5)
    (batch / "img_3.ppm").write_bytes(b"P6\n160 160\nxx\n")
    runs = [run_detect(["detect", "--batch", str(batch)], one_cpu) for one_cpu in (False, True)]
    for run in runs:
        assert run.returncode == 2
        assert run.stderr.decode().count("\n") == 1
        assert run.stderr.startswith(b"error: ") and b"img_3.ppm" in run.stderr
        names = [line.split(":")[0] for line in run.stdout.decode().splitlines()]
        assert names == ["img_0.ppm", "img_1.ppm", "img_2.ppm"]
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)
