"""One frame split across forked lanes: the detector's outputs, faults and
children with ``lanes`` forced to 1 to 6 in process, the lanes that stand
between frames, and the CLI with lanes on and off in subprocesses."""

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
from gridlander.persistence import (
    load_vital_checkpoint,
    save_vital_checkpoint,
    vital_tensors,
    write_ppm,
)
from gridlander.vital import (
    MODALITIES,
    VitalConfig,
    assemble_tokens,
    detect,
    empty_weights,
    encoder_forward,
    init_weights,
    run_lanes,
    stem_forward,
)
from helpers import (
    BUNDLED_OPENBLAS,
    GOLDEN,
    SRC,
    TWO_CPUS,
    assert_no_child_left,
    detection_bytes,
    forbid_forks,
    golden_frames,
    links_open,
    make_batch,
    random_image,
    run_detect,
)

CFG = VitalConfig()
FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="lanes need os.fork")
LANES = pytest.mark.parametrize("lanes", [1, 2, 3, 4, 6])


def in_lanes(lanes, tokens, w, class_only):
    return run_lanes(lanes, w.config,
                     lambda lane: encoder_forward(tokens, w, class_only=class_only, lane=lane),
                     key=object())


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


# --- the stem split -------------------------------------------------------------------


@pytest.mark.parametrize("modality", MODALITIES)
def test_a_stem_run_in_two_ranges_gives_the_whole_stems_bytes(modality):
    w = init_weights(CFG, seed=0)
    plane = random_image(10).planes[MODALITIES.index(modality)][None]
    whole = stem_forward(w.stems[modality], plane, CFG).tobytes()
    for split in range(len(CFG.stem_channels) + 1):
        head = stem_forward(w.stems[modality], plane, CFG, 0, split)
        assert stem_forward(w.stems[modality], head, CFG, split).tobytes() == whole


@FORKS
@pytest.mark.parametrize("lanes, ran", [
    (2, {0: [("thermal", 0, 1), ("visual", 0, None)],
         1: [("lidar", 0, 1), ("lidar", 1, None), ("thermal", 1, None)]}),
    (3, {0: [("visual", 0, None)], 1: [("thermal", 0, None)], 2: [("lidar", 0, None)]}),
])
def test_each_lane_runs_its_stem_pieces(lanes, ran, tmp_path, monkeypatch):
    """A stub that records each ``stem_forward`` call shows which lane (known
    by its pid) ran which blocks of which stem, in order."""
    w, img, record, forward = init_weights(CFG, 0), random_image(11), tmp_path / "calls", vital.stem_forward
    want = detection_bytes(detect(img, w, 1))

    def recording(stem, x, cfg, start=0, stop=None):
        modality = next(m for m in MODALITIES if w.stems[m] is stem)
        with open(record, "a") as f:
            f.write(f"{os.getpid()} {modality} {start} {stop}\n")
        return forward(stem, x, cfg, start, stop)

    monkeypatch.setattr(vital, "stem_forward", recording)
    assert detection_bytes(detect(img, w, lanes)) == want
    pids = (os.getpid(), *cores.standing())
    got = {j: [] for j in range(lanes)}
    for line in record.read_text().splitlines():
        pid, modality, start, stop = line.split()
        got[pids.index(int(pid))].append((modality, int(start), None if stop == "None" else int(stop)))
    assert got == ran
    assert_no_child_left()


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
@pytest.mark.parametrize("broken, fault", [
    (("lidar",), "lidar"), (("visual", "lidar"), "visual"), (("thermal", "lidar"), "thermal"),
])
def test_non_finite_stem_raises_one_lanes_first_fault(lanes, broken, fault):
    w = init_weights(CFG, 34)
    for m in broken:
        w.stems[m].blocks[0].conv1.kernels[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericFault, match=rf"^non-finite values after stem\[{fault}\]$"):
        detect(random_image(35), w, lanes)
    assert_no_child_left()


@FORKS
@LANES
def test_non_finite_thermal_block_1_raises_after_the_hand_over(lanes):
    """With two lanes, lane 1 runs thermal's block 1 on what lane 0 handed
    over; a NaN there raises thermal's fault at every lane count."""
    w = init_weights(CFG, 36)
    w.stems["thermal"].blocks[1].conv1.kernels[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericFault, match=r"^non-finite values after stem\[thermal\]$"):
        detect(random_image(37), w, lanes)
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
        cores.run(2, 1, {}, body, key=object())
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
    forbid_forks(monkeypatch)
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
    """Lane 0 faults on next to no page a frame, as one lane does: the lanes
    stand between frames, so no frame forks, maps a fresh shared region or
    copies a heap page lane 0 writes, and the heap stays pinned."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", STEADY_STATE_LANE_FAULTS], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 100


# --- standing lanes -------------------------------------------------------------------


def one_lane(img, w):
    return detection_bytes(detect(img, w, 1))


@FORKS
def test_in_place_edits_reach_the_standing_lanes():
    """The lanes that stood for the first frame compute the second with the
    weights as edited in place between the two."""
    w, img = init_weights(CFG, 0), random_image(3)
    before = detection_bytes(detect(img, w, 2))
    stood = cores.standing()
    assert len(stood) == 1
    for layer in w.encoder:
        layer.attention.wq *= 4.0
    got = detection_bytes(detect(img, w, 2))
    assert cores.standing() == stood  # no fork
    assert got == one_lane(img, w) != before
    assert_no_child_left()


@FORKS
def test_in_place_nan_reaches_the_standing_lanes():
    """A NaN written into the lidar stem, which lane 1 computes, raises one
    lane's fault; the fault releases the lanes."""
    w, img = init_weights(CFG, 0), random_image(4)
    detect(img, w, 2)
    w.stems["lidar"].blocks[0].conv1.kernels[0, 0, 0, 0] = np.nan
    faults = []
    for lanes in (2, 1):
        with pytest.raises(NumericFault) as fault:
            detect(img, w, lanes)
        faults.append(str(fault.value))
        assert cores.standing() == ()
    assert faults == ["non-finite values after stem[lidar]"] * 2
    assert_no_child_left()


@FORKS
def test_rebound_tensor_fields_are_seen(monkeypatch):
    """A field rebound to another tensor of the tree's mapping forks lanes
    that stand for the tree as it is now; one rebound to an array outside
    the mapping runs in one lane, which forks nothing and leaves the
    standing lanes as they were."""
    w, img = init_weights(CFG, 0), random_image(5)
    before = detection_bytes(detect(img, w, 2))
    stood = cores.standing()
    w.encoder[0].attention.wq = w.encoder[1].attention.wq
    inside = detection_bytes(detect(img, w, 2))
    assert inside == one_lane(img, w) != before
    now = cores.standing()
    assert now not in ((), stood)
    assert not running(stood[0])
    w.encoder[0].attention.wq = w.encoder[0].attention.wq * 4.0
    forbid_forks(monkeypatch)
    outside = detection_bytes(detect(img, w, 2))
    assert outside == one_lane(img, w) != inside
    assert cores.standing() == now and running(now[0])
    assert_no_child_left()


@FORKS
@pytest.mark.parametrize("lanes", [2, 3, 4, 6])
def test_a_tree_outside_the_mapping_runs_in_one_lane(lanes, monkeypatch):
    """A tree with a field rebound to a copy outside its mapping gives one
    lane's bytes at every lane count, and no child appears."""
    w, img = init_weights(CFG, 0), random_image(13)
    want = one_lane(img, w)
    w.head_box.out.weights = w.head_box.out.weights.copy()
    forbid_forks(monkeypatch)
    assert detection_bytes(detect(img, w, lanes)) == want
    assert cores.standing() == ()
    assert_no_child_left()


def test_every_tree_the_library_builds_gets_a_lane_key(tmp_path):
    """``init_weights``, ``empty_weights`` and the checkpoint loader carve
    every tensor out of one mapping, so the CLI and the benchmark, which
    build their trees with them, never run a tree in one lane for want of
    a key. The key and the checkpoint read a tree through one walk
    (``vital.named_tensors``): the key's tensors are the checkpoint's own
    objects, in checkpoint order."""
    save_vital_checkpoint(tmp_path / "w.ckpt", init_weights(CFG, 0))
    trees = init_weights(CFG, 0), empty_weights(CFG), load_vital_checkpoint(tmp_path / "w.ckpt")
    assert all(vital._lane_key(w) is not None for w in trees)
    for w in trees:
        keyed, named = vital._lane_key(w)[-1], list(vital_tensors(w).values())
        assert len(keyed) == len(named) == 246
        assert all(a is b for a, b in zip(keyed, named))


@FORKS
def test_a_field_rebound_once_its_old_tensor_could_be_freed_is_seen():
    """The old tensor object is dropped before a new view of other memory is
    made, so the new view could take its id; the standing lanes' key holds
    the old object, so that it cannot."""
    w, img = init_weights(CFG, 0), random_image(12)
    detect(img, w, 2)
    attention = w.encoder[0].attention
    attention.wq = None
    attention.wq = w.encoder[1].attention.wq[:]
    assert detection_bytes(detect(img, w, 2)) == one_lane(img, w)
    assert_no_child_left()


def read_byte_swapped(w):
    w.encoder[0].ln_ffn.gamma.dtype = ">f4"  # the same bytes: 1.0 now reads 4.6e-41


def transpose_in_place(w):
    wq = w.encoder[1].attention.wq
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # numpy 2.4 deprecates it
        wq.strides = wq.strides[::-1]


@FORKS
@pytest.mark.parametrize("change", [read_byte_swapped, transpose_in_place])
def test_a_tensors_dtype_or_strides_set_in_place_are_seen(change):
    """The same tensor object with another dtype or strides forks lanes that
    read it as it is now; the lanes that stood hold their own copy of the
    object, which still reads the old way."""
    w, img = init_weights(CFG, 0), random_image(9)
    before = detection_bytes(detect(img, w, 2))
    stood = cores.standing()
    change(w)
    got = detection_bytes(detect(img, w, 2))
    assert got == one_lane(img, w) != before
    assert cores.standing() not in ((), stood)
    assert_no_child_left()


@FORKS
def test_a_new_tree_or_lane_count_reforks():
    """Equal frames with the same tree and lane count run on the same lanes;
    a new tree, even an equal one, or a new lane count releases them and
    forks its own."""
    img = random_image(6)
    w, same = init_weights(CFG, 0), init_weights(CFG, 0)
    want = one_lane(img, w)
    runs = []
    for tree, lanes in ((w, 2), (w, 2), (same, 2), (same, 3), (same, 3)):
        assert detection_bytes(detect(img, tree, lanes)) == want
        runs.append(cores.standing())
    assert [len(pids) for pids in runs] == [1, 1, 1, 2, 2]
    assert runs[0] == runs[1] and runs[3] == runs[4]
    assert not set(runs[1]) & set(runs[2]) and not set(runs[2]) & set(runs[3])
    assert not any(running(pid) for pid in runs[0] + runs[2])
    assert_no_child_left()


@FORKS
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/self/fd")
def test_batch_frame_child_holds_none_of_its_parents_standing_links(tmp_path, monkeypatch):
    """This process's standing lanes are released before ``detect --batch``
    forks. So a frame child, which runs two lanes of its own on a share of
    four, holds two links (its own to this process and its lane's) and none
    to the lanes this process stood, to which it could write."""
    before = links_open()
    detect(random_image(1), init_weights(CFG, 0), 2)
    stood = cores.standing()
    assert len(stood) == 1 and len(links_open() - before) == 1
    monkeypatch.setattr(cores, "cpu_share", lambda: 4)
    batch = make_batch(tmp_path / "batch", 2)
    parent, record, gelu = os.getpid(), tmp_path / "links", vital.gelu

    def patched(x):
        if os.getppid() == parent and not record.exists():  # the frame child, as lane 0
            (tmp_path / "count").write_text(str(len(links_open() - before)))
            os.replace(tmp_path / "count", record)
        return gelu(x)

    monkeypatch.setattr(vital, "gelu", patched)
    assert main(["detect", "--batch", str(batch)]) == 0
    assert int(record.read_text()) == 2
    assert not running(stood[0])
    assert_no_child_left()


@FORKS
def test_a_command_releases_its_lanes(tmp_path, monkeypatch):
    monkeypatch.setattr(cores, "cpu_share", lambda: 2)
    write_ppm(tmp_path / "f.ppm", random_image(8))
    assert main(["detect", "--image", str(tmp_path / "f.ppm")]) == 0
    assert cores.standing() == ()
    assert_no_child_left()


LANES_THEN_END = """
import atexit, os, signal, sys

def no_child_left():  # registered first, so it runs after cores.release
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", flush=True)

atexit.register(no_child_left)
import numpy as np
from gridlander import cores
from gridlander.vital import MultimodalImage, VitalConfig, detect, init_weights
detect(MultimodalImage(np.zeros((3, 160, 160), np.float32)), init_weights(VitalConfig(), 0), 2)
print(*cores.standing(), flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


@FORKS
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc/<pid>/stat")
@pytest.mark.parametrize("end", ["exit", "kill"])
def test_standing_lanes_end_with_their_process(end):
    """A process that exits releases its lanes before it ends; one that is
    killed takes them with it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", LANES_THEN_END, end], env=env,
                            capture_output=True, text=True, timeout=300)
    lines = result.stdout.splitlines()
    pids = [int(pid) for pid in lines[0].split()]
    assert len(pids) == 1
    if end == "exit":
        assert result.returncode == 0, result.stderr
        assert lines[1:] == ["no child left"]
    else:
        assert result.returncode == -signal.SIGKILL and lines[1:] == []
    deadline = time.monotonic() + 10
    while running(pids[0]) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running(pids[0])


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
