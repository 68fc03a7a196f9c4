import ctypes
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlander import vital
from gridlander.errors import ContractViolation, NumericFault
from gridlander.persistence import vital_tensors
from gridlander.rng import Rng
from gridlander.vital import (
    MODALITIES,
    MultimodalImage,
    VitalConfig,
    assemble_tokens,
    detect,
    encoder_forward,
    init_weights,
    stem_forward,
)

CFG = VitalConfig()


def random_image(seed):
    rng = np.random.default_rng(seed)
    return MultimodalImage(rng.random((3, 160, 160)).astype(np.float32))


def zeroed_weights(seed=0):
    w = init_weights(CFG, seed)
    for arr in vital_tensors(w).values():
        arr[:] = 0.0
    return w


def zero_encoder_projections(w):
    for layer in w.encoder:
        a = layer.attention
        for arr in (a.wq, a.wk, a.wv, a.wo, a.bq, a.bk, a.bv, a.bo):
            arr[:] = 0.0
        layer.ffn_in.weights[:] = 0.0
        layer.ffn_in.bias[:] = 0.0
        layer.ffn_out.weights[:] = 0.0
        layer.ffn_out.bias[:] = 0.0
    return w


# --- config ---------------------------------------------------------------------


def test_config_geometry():
    assert CFG.token_dim == 384
    assert CFG.token_count == 401
    with pytest.raises(ContractViolation):
        VitalConfig(patch_side=10)
    with pytest.raises(ContractViolation):
        VitalConfig(heads=7)


def test_multimodal_image_contract():
    with pytest.raises(ContractViolation):
        MultimodalImage(np.zeros((3, 80, 80), dtype=np.float32))
    with pytest.raises(ContractViolation):
        MultimodalImage(np.full((3, 160, 160), 1.5, dtype=np.float32))


# --- stems ----------------------------------------------------------------------


def test_stem_output_shape():
    w = init_weights(CFG, 1)
    plane = random_image(0).planes[0][None]
    out = stem_forward(w.stems["visual"], plane, CFG)
    assert out.shape == (128, 20, 20)
    assert out.dtype == np.float32


def test_stem_zero_input_zero_params_gives_zero():
    w = zeroed_weights()
    out = stem_forward(w.stems["thermal"], np.zeros((1, 160, 160), dtype=np.float32), CFG)
    assert not out.any()


def test_stem_deterministic():
    w = init_weights(CFG, 2)
    plane = random_image(3).planes[2][None]
    a = stem_forward(w.stems["lidar"], plane, CFG)
    b = stem_forward(w.stems["lidar"], plane, CFG)
    assert np.array_equal(a, b)


def test_stem_rejects_wrong_shape():
    w = init_weights(CFG, 1)
    with pytest.raises(ContractViolation):
        stem_forward(w.stems["visual"], np.zeros((1, 80, 80), dtype=np.float32), CFG)


# --- token assembly ---------------------------------------------------------------


def test_assemble_tokens_shape():
    w = init_weights(CFG, 4)
    s = [np.random.default_rng(i).random((128, 20, 20)).astype(np.float32) for i in range(3)]
    tokens = assemble_tokens(*s, w)
    assert tokens.shape == (401, 384)


def test_assemble_tokens_zero_everything():
    w = zeroed_weights()
    z = np.zeros((128, 20, 20), dtype=np.float32)
    assert not assemble_tokens(z, z, z, w).any()


def test_assemble_tokens_index_bookkeeping():
    w = zeroed_weights()  # zero cls and positional leave raw stem values
    rng = np.random.default_rng(7)
    s_vis, s_thm, s_lid = (rng.random((128, 20, 20)).astype(np.float32) for _ in range(3))
    tokens = assemble_tokens(s_vis, s_thm, s_lid, w)
    for r, c in [(0, 0), (3, 11), (19, 19), (7, 0)]:
        row = 1 + r * 20 + c  # row 0 is the class token
        assert np.array_equal(tokens[row, 0:128], s_vis[:, r, c])
        assert np.array_equal(tokens[row, 128:256], s_thm[:, r, c])
        assert np.array_equal(tokens[row, 256:384], s_lid[:, r, c])


def test_assemble_tokens_modality_swap_is_column_block_swap():
    w = zeroed_weights()
    rng = np.random.default_rng(8)
    a, b, c = (rng.random((128, 20, 20)).astype(np.float32) for _ in range(3))
    base = assemble_tokens(a, b, c, w)
    swapped = assemble_tokens(a, c, b, w)
    assert np.array_equal(swapped[:, 0:128], base[:, 0:128])
    assert np.array_equal(swapped[:, 128:256], base[:, 256:384])
    assert np.array_equal(swapped[:, 256:384], base[:, 128:256])


# --- encoder ----------------------------------------------------------------------


def test_encoder_preserves_shape():
    w = init_weights(CFG, 5)
    tokens = np.random.default_rng(9).standard_normal((401, 384)).astype(np.float32)
    out = encoder_forward(tokens, w)
    assert out.shape == (401, 384)
    assert out.dtype == np.float32


def test_encoder_residual_zero_identity():
    w = zero_encoder_projections(init_weights(CFG, 6))
    tokens = np.random.default_rng(10).standard_normal((401, 384)).astype(np.float32)
    out = encoder_forward(tokens, w)
    assert np.array_equal(out, tokens)


def test_encoder_attention_rows_sum_to_one():
    w = init_weights(CFG, 11)
    tokens = np.random.default_rng(12).standard_normal((401, 384)).astype(np.float32)
    _, maps = encoder_forward(tokens, w, collect_attention=True)
    assert len(maps) == CFG.encoder_layers
    for attn in maps:
        assert attn.shape == (CFG.heads, 401, 401)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-6
        assert attn.min() >= 0.0 and attn.max() <= 1.0


# --- detect -----------------------------------------------------------------------


def test_detect_zero_weights_gives_centered_half():
    det = detect(random_image(1), zeroed_weights())
    assert det.objectness == pytest.approx(0.5)
    assert det.bbox.corners == (0.5, 0.5, 0.5, 0.5)


def test_detect_contract_small_sample():
    for seed in range(3):
        det = detect(random_image(20 + seed), init_weights(CFG, seed))
        assert 0.0 <= det.objectness <= 1.0
        b = det.bbox
        assert b.x_min <= b.x_max and b.y_min <= b.y_max
        assert 0.0 <= b.x_min and b.x_max <= 1.0


def test_detect_modality_sensitivity():
    w = init_weights(CFG, 30)
    img = random_image(31)
    zeroed = MultimodalImage(np.concatenate(
        [np.zeros((1, 160, 160), dtype=np.float32), img.planes[1:]]
    ))
    full = detect(img, w)
    partial = detect(zeroed, w)
    assert full != partial


def test_detect_is_pure():
    w = init_weights(CFG, 32)
    img = random_image(33)
    assert detect(img, w) == detect(img, w)


def test_detect_numeric_fault_names_stage():
    w = init_weights(CFG, 34)
    w.stems["thermal"].blocks[0].conv1.kernels[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericFault, match=r"stem\[thermal\]"):
        detect(random_image(35), w)


# --- init -------------------------------------------------------------------------


def test_init_weights_deterministic():
    a = vital_tensors(init_weights(CFG, 40))
    b = vital_tensors(init_weights(CFG, 40))
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_init_weights_seed_sensitivity():
    a = vital_tensors(init_weights(CFG, 41))
    b = vital_tensors(init_weights(CFG, 42))
    assert any(not np.array_equal(a[n], b[n]) for n in a)


def test_init_weights_magnitudes():
    w = init_weights(CFG, 43)
    # truncated-normal tensors stay within 2 sigma by construction
    assert np.abs(w.class_token).max() <= 2 * 0.02
    assert np.abs(w.positional).max() <= 2 * 0.02
    assert np.abs(w.encoder[0].attention.wq).max() <= 2 * 0.02
    # fan-in-scaled convolutions: at least 99% of entries within 3 sigma
    conv = w.stems["visual"].blocks[0].conv2.kernels
    std = np.sqrt(2.0 / (conv.shape[1] * 9))
    assert (np.abs(conv) <= 3 * std).mean() >= 0.99
    # biases start at zero
    assert not w.stems["visual"].blocks[0].conv1.bias.any()
    assert not w.head_box.out.bias.any()


# --- golden outputs ---------------------------------------------------------------
#
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


def test_detector_golden_digests():
    w = init_weights(CFG, seed=0)
    digests = {name: hashlib.sha256() for name in GOLDEN}
    for img in golden_frames():
        stems = [
            stem_forward(w.stems[m], img.planes[i][None], CFG) for i, m in enumerate(MODALITIES)
        ]
        for m, s in zip(MODALITIES, stems):
            digests[m].update(s.tobytes())
        digests["encoder"].update(encoder_forward(assemble_tokens(*stems, w), w).tobytes())
        digests["detect"].update(detection_bytes(detect(img, w)))
    assert {name: h.hexdigest() for name, h in digests.items()} == GOLDEN


# --- the class-token path of detect ------------------------------------------------
#
# detect runs the last encoder layer on the class-token row alone. Its one-row
# products go through BLAS matrix-vector kernels, so the float64 row may differ
# from the full layer's in the last bits; the float32 row leaving the encoder
# is what the heads read, and it must equal encoder_forward's row 0.


def class_row(tokens, w):
    return encoder_forward(tokens, w, class_only=True)


@settings(max_examples=25, deadline=None)
@given(
    embed_dim=st.integers(1, 4),
    layers=st.integers(0, 3),
    ffn_hidden=st.integers(1, 8),
    scale=st.sampled_from([0.5, 4.0, 60.0]),
    data=st.data(),
)
def test_class_token_path_equals_encoder_row_0(embed_dim, layers, ffn_hidden, scale, data):
    heads = data.draw(st.sampled_from([h for h in (1, 2, 3, 4, 6) if 3 * embed_dim % h == 0]))
    cfg = VitalConfig(embed_dim=embed_dim, encoder_layers=layers, ffn_hidden=ffn_hidden,
                      heads=heads, stem_channels=(1, 1, 1))
    w = init_weights(cfg, data.draw(st.integers(0, 2**16)))
    for layer in w.encoder:  # large projections, so that some layers shift the softmax
        layer.attention.wq *= scale
        layer.attention.wk *= scale
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    tokens = rng.standard_normal((cfg.token_count, cfg.token_dim)).astype(np.float32)
    got = class_row(tokens, w)
    assert got.shape == (cfg.token_dim,) and got.dtype == np.float32
    assert got.tobytes() == encoder_forward(tokens, w)[0].tobytes()


def test_class_token_path_equals_encoder_row_0_on_golden_frames():
    w = init_weights(CFG, seed=0)
    for img in golden_frames():
        stems = [stem_forward(w.stems[m], img.planes[i][None], CFG) for i, m in enumerate(MODALITIES)]
        tokens = assemble_tokens(*stems, w)
        assert class_row(tokens, w).tobytes() == encoder_forward(tokens, w)[0].tobytes()


def test_class_token_path_checks_the_stream_entering_the_last_layer():
    cfg = VitalConfig(embed_dim=2, encoder_layers=2, ffn_hidden=4, heads=2, stem_channels=(1, 1, 1))
    w = init_weights(cfg, 0)
    tokens = np.zeros((cfg.token_count, cfg.token_dim), dtype=np.float32)
    w.encoder[0].ffn_out.weights[0, 0] = np.inf  # non-finite after layer 0
    with pytest.raises(NumericFault, match="encoder"):
        class_row(tokens, w)


def test_detect_traced_peak_under_16_mib():
    """One frame's transients: each im2col band stays near 1 MiB and the
    attention holds one head's scores at a time."""
    w, img = init_weights(CFG, 0), random_image(1)
    detect(img, w)
    tracemalloc.start()
    try:
        detect(img, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# --- heap thresholds ----------------------------------------------------------------
#
# Building a detector pins glibc's mmap and trim thresholds, so the temporaries
# one frame frees stay mapped for the next frame instead of being faulted back
# in (about 9k minor faults per frame without the pin).

STEADY_STATE_FAULTS = """
import resource
import numpy as np
from gridlander.vital import MultimodalImage, VitalConfig, detect, init_weights
w = init_weights(VitalConfig(), 0)
img = MultimodalImage(np.random.default_rng(1).random((3, 160, 160)).astype(np.float32))
for _ in range(2):
    detect(img, w)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    detect(img, w)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="C library has no mallopt")
def test_steady_state_frames_take_no_page_faults():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", STEADY_STATE_FAULTS],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 100


def test_detector_builds_without_mallopt(monkeypatch):
    """Where the C library has no ``mallopt`` nothing is pinned, and the
    detector builds and detects as before."""
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    vital._pin_heap_thresholds.cache_clear()
    try:
        w = init_weights(CFG, seed=0)
        assert vital._pin_heap_thresholds() is False
        digest = hashlib.sha256()
        for img in golden_frames():
            digest.update(detection_bytes(detect(img, w)))
        assert digest.hexdigest() == GOLDEN["detect"]
    finally:
        vital._pin_heap_thresholds.cache_clear()
