"""One frame split across forked lanes: the detector's outputs, faults and
children with ``lanes`` forced to 1, 2 and 3 in process, and the CLI with
lanes on and off in subprocesses."""

import hashlib
import os
import select
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlander import cores, vital
from gridlander.cli import main
from gridlander.errors import NumericFault
from gridlander.nncore import _needs_shift, layernorm
from gridlander.persistence import save_vital_checkpoint, write_ppm
from gridlander.vital import (
    MODALITIES,
    VitalConfig,
    assemble_tokens,
    detect,
    encoder_forward,
    init_weights,
    run_lanes,
    stem_forward,
)
from test_detect_fan_out import (
    BUNDLED_OPENBLAS,
    SRC,
    TWO_CPUS,
    assert_no_child_left,
    make_batch,
    run_detect,
)
from test_vital import GOLDEN, detection_bytes, golden_frames, random_image

CFG = VitalConfig()
FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="lanes need os.fork")
LANES = pytest.mark.parametrize("lanes", [1, 2, 3, 4, 6])


def in_lanes(lanes, tokens, w, class_only):
    return run_lanes(lanes, w.config,
                     lambda lane: encoder_forward(tokens, w, class_only=class_only, lane=lane))


# --- the lane split ------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 401])
@pytest.mark.parametrize("count", [1, 2, 3, 6])
def test_lane_parts_tile_the_items_in_order(n, count):
    parts = []
    for index in range(count):
        lane = cores.Lane()
        lane.index, lane.count = index, count
        parts.append(lane.part(n))
    assert [i for p in parts for i in range(n)[p]] == list(range(n))
    sizes = [len(range(n)[p]) for p in parts]
    assert sizes == sorted(sizes, reverse=True) and max(sizes) - min(sizes) <= 1


# --- outputs --------------------------------------------------------------------------


@FORKS
@LANES
def test_golden_digests_in_every_lane_count(lanes):
    w = init_weights(CFG, seed=0)
    encoder, det = hashlib.sha256(), hashlib.sha256()
    for img in golden_frames():
        stems = [stem_forward(w.stems[m], img.planes[i][None], CFG) for i, m in enumerate(MODALITIES)]
        encoder.update(in_lanes(lanes, assemble_tokens(*stems, w), w, class_only=False).tobytes())
        det.update(detection_bytes(detect(img, w, lanes)))
    assert encoder.hexdigest() == GOLDEN["encoder"]
    assert det.hexdigest() == GOLDEN["detect"]
    assert_no_child_left()


@FORKS
@settings(max_examples=25, deadline=None)
@given(
    embed_dim=st.integers(1, 4),
    layers=st.integers(0, 3),
    ffn_hidden=st.integers(1, 8),
    scale=st.sampled_from([0.5, 4.0, 60.0]),
    lanes=st.sampled_from([2, 3, 4, 6]),
    data=st.data(),
)
def test_lanes_equal_one_lane_on_small_configs(embed_dim, layers, ffn_hidden, scale, lanes, data):
    heads = data.draw(st.sampled_from([h for h in (1, 2, 3, 4, 6) if 3 * embed_dim % h == 0]))
    cfg = VitalConfig(embed_dim=embed_dim, encoder_layers=layers, ffn_hidden=ffn_hidden,
                      heads=heads, stem_channels=(1, 1, 1))
    w = init_weights(cfg, data.draw(st.integers(0, 2**16)))
    for layer in w.encoder:  # large projections, so that some layers shift the softmax
        layer.attention.wq *= scale
        layer.attention.wk *= scale
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    tokens = rng.standard_normal((cfg.token_count, cfg.token_dim)).astype(np.float32)
    for class_only in (True, False):
        want = encoder_forward(tokens, w, class_only=class_only)
        assert in_lanes(lanes, tokens, w, class_only).tobytes() == want.tobytes()
    assert_no_child_left()


def head_needs_shift(tokens, w):
    """Per head of the one encoder layer: whether its scores alone need the
    softmax shift."""
    layer, heads = w.encoder[0], w.config.heads
    normed = layernorm(tokens.astype(np.float64), layer.ln_attn.gamma, layer.ln_attn.beta)
    a = layer.attention
    q = (normed @ a.wq.T.astype(np.float64) + a.bq) / np.sqrt(tokens.shape[1] // heads)
    k = normed @ a.wk.T.astype(np.float64) + a.bk
    dh = tokens.shape[1] // heads
    spans = [q[:, h * dh:(h + 1) * dh] @ k[:, h * dh:(h + 1) * dh].T for h in range(heads)]
    return [_needs_shift(s.min(), s.max()) for s in spans]


@FORKS
def test_only_the_second_lanes_heads_need_the_shift():
    """Lane 0's heads alone would run unshifted; lane 1's need the shift, and
    the pooled decision shifts every head, as one lane does."""
    cfg = VitalConfig(embed_dim=2, encoder_layers=1, ffn_hidden=4, heads=2, stem_channels=(1, 1, 1))
    w = init_weights(cfg, 5)
    a = w.encoder[0].attention
    a.wq[3:] = a.wk[3:] = 20.0 * np.eye(6, dtype=np.float32)[3:]  # head 1 reads itself, loudly
    tokens = np.random.default_rng(6).standard_normal((cfg.token_count, 6)).astype(np.float32)
    assert head_needs_shift(tokens, w) == [False, True]
    for class_only in (True, False):
        want = encoder_forward(tokens, w, class_only=class_only)
        assert np.isfinite(want).all()
        assert in_lanes(2, tokens, w, class_only).tobytes() == want.tobytes()
    assert_no_child_left()


# --- faults ---------------------------------------------------------------------------


@FORKS
@LANES
@pytest.mark.parametrize("broken, fault", [(("lidar",), "lidar"), (("visual", "lidar"), "visual")])
def test_non_finite_stem_raises_one_lanes_first_fault(lanes, broken, fault):
    w = init_weights(CFG, 34)
    for m in broken:
        w.stems[m].blocks[0].conv1.kernels[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericFault, match=rf"^non-finite values after stem\[{fault}\]$"):
        detect(random_image(35), w, lanes)
    assert_no_child_left()


def huge_weights():
    """Finite weights whose encoder activations overflow float32."""
    w = init_weights(CFG, 0)
    for layer in w.encoder:
        layer.ffn_out.weights[:] = 3e38
    return w


@FORKS
@pytest.mark.parametrize("lanes", [1, 2])
def test_overflowing_activations_fault_without_a_warning(lanes, capfd):
    w = huge_weights()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericFault, match="^non-finite values after encoder$"):
            detect(random_image(1), w, lanes)
    assert caught == []
    assert capfd.readouterr().err == ""  # nor from a lane child
    assert_no_child_left()


# --- the children ---------------------------------------------------------------------


def gelu_that(monkeypatch, act):
    """Patch the encoder's GELU to call ``act(is_lane_0)`` first."""
    parent, gelu = os.getpid(), vital.gelu

    def patched(x):
        act(os.getpid() == parent)
        return gelu(x)

    monkeypatch.setattr(vital, "gelu", patched)


@FORKS
@pytest.mark.parametrize("lanes", [2, 3])
def test_lane_child_killed_mid_frame_raises_child_process_error(lanes, monkeypatch):
    def act(lane_0):
        if not lane_0:
            os.kill(os.getpid(), signal.SIGKILL)

    gelu_that(monkeypatch, act)
    with pytest.raises(ChildProcessError, match="^detector lane 1 ended early$"):
        detect(random_image(1), init_weights(CFG, 0), lanes)
    assert_no_child_left()


@FORKS
def test_lane_child_ending_with_lane_0s_byte_unread_raises_child_process_error():
    """Lane 1 writes its barrier byte and ends once lane 0's answer has
    arrived, unread; lane 0's next barrier reads a reset link, which is a
    lane that ended early like an end of file is."""
    passed = []

    def body(lane):
        if lane.index == 1:
            (link,) = lane._links
            os.write(link, b"\0")
            select.select([link], [], [], 60)
            os._exit(0)
        lane.barrier()
        passed.append(lane.index)
        lane.barrier()

    with pytest.raises(ChildProcessError, match="^detector lane 1 ended early$"):
        cores.run(2, 1, {}, body)
    assert passed == [0]
    assert_no_child_left()


@FORKS
@pytest.mark.parametrize("lanes", [2, 3])
def test_keyboard_interrupt_in_lane_0_leaves_no_child(lanes, monkeypatch):
    def act(lane_0):
        if lane_0:
            raise KeyboardInterrupt

    gelu_that(monkeypatch, act)
    with pytest.raises(KeyboardInterrupt):
        detect(random_image(1), init_weights(CFG, 0), lanes)
    assert_no_child_left()


def running(pid):
    """Whether ``pid`` is a process that has not ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@FORKS
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc/<pid>/stat")
def test_batch_of_fewer_frames_than_the_cpu_share_leaves_no_grandchild(tmp_path, monkeypatch):
    """Two frames on a share of four run in two processes of two lanes each,
    so the frame child forks a lane child of its own. When this process's
    frame is interrupted, the frame child is killed, and its lane child dies
    with it mid-frame instead of running on to its next barrier."""
    monkeypatch.setattr(cores, "cpu_share", lambda: 4)
    batch = make_batch(tmp_path / "batch", 2)
    parent, record, gelu = os.getpid(), tmp_path / "grandchild", vital.gelu

    def patched(x):
        if os.getpid() == parent:  # wait until the grandchild is mid-frame
            deadline = time.monotonic() + 60
            while not record.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt
        if os.getppid() != parent:  # the frame child's lane child
            (tmp_path / "pid").write_text(str(os.getpid()))
            os.replace(tmp_path / "pid", record)
            time.sleep(60)
        return gelu(x)

    monkeypatch.setattr(vital, "gelu", patched)
    with pytest.raises(KeyboardInterrupt):
        main(["detect", "--batch", str(batch)])
    assert_no_child_left()
    grandchild, deadline = int(record.read_text()), time.monotonic() + 10
    while running(grandchild) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running(grandchild)


@pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (4, 8)])
def test_nothing_forks_where_blas_threads_fill_the_cpus(cpus, threads, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cores, "_blas_threads", lambda: threads)
    w = init_weights(CFG, seed=0)
    assert detection_bytes(detect(next(golden_frames()), w)) == detection_bytes(
        detect(next(golden_frames()), w, 1))


STEADY_STATE_LANE_FAULTS = """
import resource
import numpy as np
from gridlander.vital import MultimodalImage, VitalConfig, detect, init_weights
w = init_weights(VitalConfig(), 0)
img = MultimodalImage(np.random.default_rng(1).random((3, 160, 160)).astype(np.float32))
for _ in range(2):
    detect(img, w, 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    detect(img, w, 2)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@FORKS
@BUNDLED_OPENBLAS
def test_steady_state_lane_frames_fault_only_the_pages_lane_0_writes():
    """Each frame's fork costs lane 0 one fault per page it writes: its heap
    pages, copied, and its first touch of the frame's fresh shared arrays,
    about 3.3k a frame in all. One lane takes almost none, since the heap
    stays pinned; ``test_steady_state_frames_take_no_page_faults``
    (tests/test_vital.py) runs the default lane count, so it fails where
    one BLAS thread leaves a second CPU for a lane."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", STEADY_STATE_LANE_FAULTS], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 4096


# --- the CLI with lanes on and off ----------------------------------------------------
#
# Tier-1 runs with numpy's default BLAS threads, which on a 2-CPU machine turn
# lanes off. These subprocess tests pin one BLAS thread, so they are the only
# tier-1 coverage of lanes through the CLI; keep them in subprocesses.


def lanes_on_and_off(argv):
    runs = [run_detect(argv, one_cpu) for one_cpu in (False, True)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stderr == runs[1].stderr == b""
    return [run.stdout for run in runs]


@TWO_CPUS
@BUNDLED_OPENBLAS
def test_detect_image_with_lanes_equals_one_cpu(tmp_path):
    write_ppm(tmp_path / "f.ppm", random_image(7))
    on, off = lanes_on_and_off(["--seed", "2", "detect", "--image", str(tmp_path / "f.ppm"),
                                "--perturb", "fog=0.1,0.5"])
    assert on == off and on.startswith(b"objectness: ")


@TWO_CPUS
@BUNDLED_OPENBLAS
def test_bench_digest_with_lanes_equals_one_cpu():
    on, off = lanes_on_and_off(["bench", "--iters", "3", "--warmup", "0"])
    digest = [line for line in on.splitlines() if line.startswith(b"output sha256: ")]
    assert len(digest) == 1 and digest[0] in off.splitlines()


@TWO_CPUS
@pytest.mark.parametrize("command", [["detect", "--image"], ["bench", "--iters", "1"]])
def test_overflowing_checkpoint_prints_one_line_with_lanes_on_and_off(tmp_path, command):
    ckpt, image = tmp_path / "huge.ckpt", tmp_path / "f.ppm"
    save_vital_checkpoint(ckpt, huge_weights())
    write_ppm(image, random_image(1))
    argv = command + ([str(image)] if command[0] == "detect" else []) + ["--checkpoint", str(ckpt)]
    for one_cpu in (False, True):
        run = run_detect(argv, one_cpu)
        assert run.returncode == 1
        assert run.stderr == b"numeric fault: non-finite values after encoder\n"
