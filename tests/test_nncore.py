from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from gridlander import nncore
from gridlander.errors import ContractViolation
from gridlander.rng import Rng
from gridlander.nncore import (
    _needs_shift,
    _softmax_rows_inplace,
    AttentionParams,
    DenseLayer,
    batchnorm_inference,
    conv2d_forward,
    dense_backward,
    dense_forward,
    gelu,
    layernorm,
    load_erf,
    maxpool2_forward,
    multihead_attention,
)

from helpers import fd_grad, rel_err


# --- dense forward -----------------------------------------------------------


def test_dense_forward_zero_layer():
    layer = DenseLayer(np.zeros((4, 3)), np.zeros(4))
    assert np.array_equal(dense_forward(layer, np.array([1.0, -2.0, 3.0])), np.zeros(4))


def test_dense_forward_identity():
    layer = DenseLayer(np.eye(3), np.zeros(3))
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(dense_forward(layer, x), x)


def test_dense_forward_relu_case():
    # the layer is affine: a negative output is not clipped; callers apply ReLU
    layer = DenseLayer(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.5, 0.0]))
    out = dense_forward(layer, np.array([1.0, 2.0]))
    assert np.array_equal(out, [3.5, -1.0])


def test_dense_forward_batch_matches_rows():
    rng = np.random.default_rng(0)
    layer = DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(4))
    batch = rng.standard_normal((5, 3))
    stacked = dense_forward(layer, batch)
    rows = np.stack([dense_forward(layer, row) for row in batch])
    assert np.allclose(stacked, rows)


def test_dense_forward_dim_mismatch():
    layer = DenseLayer(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ContractViolation):
        dense_forward(layer, np.zeros(4))


def test_dense_layer_bias_mismatch():
    with pytest.raises(ContractViolation):
        DenseLayer(np.zeros((2, 3)), np.zeros(3))


# --- dense backward ----------------------------------------------------------


def test_dense_backward_zero_grad():
    rng = np.random.default_rng(1)
    layer = DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(4))
    gw, gb, gx = dense_backward(layer, rng.standard_normal((1, 3)), np.zeros((1, 4)))
    assert not gw.any() and not gb.any() and not gx.any()


def test_dense_backward_scalar_chain_rule():
    w = np.array([[1.7]])
    layer = DenseLayer(w, np.zeros(1))
    gw, gb, gx = dense_backward(layer, np.array([[2.0]]), np.array([[1.0]]))
    assert gw.item() == pytest.approx(2.0)
    assert gb.item() == pytest.approx(1.0)
    assert gx.item() == pytest.approx(1.7)


def test_dense_backward_needs_a_batch():
    layer = DenseLayer(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ContractViolation):
        dense_backward(layer, np.zeros(3), np.zeros(2))
    with pytest.raises(ContractViolation):
        dense_backward(layer, np.zeros((4, 3)), np.zeros((3, 2)))


def test_dense_backward_finite_difference_4x3():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(4)
    x = rng.standard_normal((5, 3))
    probe = rng.standard_normal((5, 4))  # scalar loss = sum(probe * output)
    layer = DenseLayer(w, b)

    def loss():
        return float((probe * dense_forward(layer, x)).sum())

    gw, gb, gx = dense_backward(layer, x, probe)
    assert rel_err(gw, fd_grad(loss, w)).max() < 1e-4
    assert rel_err(gb, fd_grad(loss, b)).max() < 1e-4
    assert rel_err(gx, fd_grad(loss, x)).max() < 1e-4


def _random_stack(rng, depth):
    dims = [int(d) for d in rng.integers(2, 6, size=depth + 1)]
    layers = [
        DenseLayer(rng.standard_normal((dims[i + 1], dims[i])), rng.standard_normal(dims[i + 1]))
        for i in range(depth)
    ]
    return layers, dims


def _stack_gradients(layers, x, probe):
    """Analytic chain-rule gradients of probe . stack(x)."""
    activations = [x]
    for layer in layers:
        activations.append(dense_forward(layer, activations[-1]))
    grads = []
    g = probe
    for layer, layer_in in zip(reversed(layers), reversed(activations[:-1])):
        gw, gb, g = dense_backward(layer, layer_in, g)
        grads.append((gw, gb))
    grads.reverse()
    return grads, g


def test_gradient_correctness_100_trials_stacks_to_depth_3():
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        depth = int(rng.integers(1, 4))
        layers, dims = _random_stack(rng, depth)
        x = rng.standard_normal((1, dims[0]))
        probe = rng.standard_normal((1, dims[-1]))

        def loss():
            h = x
            for layer in layers:
                h = dense_forward(layer, h)
            return float((probe * h).sum())

        grads, gx = _stack_gradients(layers, x, probe)
        for layer, (gw, gb) in zip(layers, grads):
            assert rel_err(gw, fd_grad(loss, layer.weights)).max() < 1e-4
            assert rel_err(gb, fd_grad(loss, layer.bias)).max() < 1e-4
        assert rel_err(gx, fd_grad(loss, x)).max() < 1e-4


def test_relu_backward_matches_fd_away_from_kinks():
    """A ReLU applied by the caller, as the Q-network does: the gradient
    through it is the output gradient times the mask z > 0."""
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        rng = np.random.default_rng(5000 + seed)
        layer = DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(4))
        x = rng.standard_normal((1, 3))
        z = dense_forward(layer, x)
        if np.abs(z).min() < 0.05:  # keep h=1e-3 probes away from the kink
            continue
        probe = rng.standard_normal((1, 4))

        def loss():
            return float((probe * np.maximum(dense_forward(layer, x), 0.0)).sum())

        gw, gb, gx = dense_backward(layer, x, probe * (z > 0))
        assert rel_err(gw, fd_grad(loss, layer.weights)).max() < 1e-4
        assert rel_err(gx, fd_grad(loss, x)).max() < 1e-4
        checked += 1


def test_gelu_exact_values():
    # x * Phi(x) at 0 and symmetry checks
    assert gelu(np.array([0.0]))[0] == 0.0
    x = np.array([1.0])
    assert gelu(x)[0] == pytest.approx(0.8413447460685429, abs=1e-12)


# --- conv --------------------------------------------------------------------


def naive_conv(x, kernels, bias, padding):
    c, h, w = x.shape
    co, ci, kh, kw = kernels.shape
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (padding, padding), (padding, padding)))
    oh = h + 2 * padding - kh + 1
    ow = w + 2 * padding - kw + 1
    out = np.zeros((co, oh, ow))
    for o in range(co):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for cc in range(ci):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[cc, i + u, j + v] * float(
                                kernels[o, cc, u, v]
                            )
                out[o, i, j] = acc + (float(bias[o]) if bias is not None else 0.0)
    return out


def test_conv_identity_kernel():
    rng = np.random.default_rng(3)
    x = rng.random((1, 3, 3)).astype(np.float32)
    k = np.zeros((1, 1, 3, 3), dtype=np.float32)
    k[0, 0, 1, 1] = 1.0
    assert np.allclose(conv2d_forward(x, k, None, 1), x)


def test_conv_all_ones_sum():
    x = np.ones((1, 3, 3), dtype=np.float32)
    k = np.ones((1, 1, 3, 3), dtype=np.float32)
    out = conv2d_forward(x, k, None, 0)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 9.0


def test_conv_matches_naive_loop():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 8, 8)).astype(np.float32)
    k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    for padding in (0, 1, 2):
        mine = conv2d_forward(x, k, b, padding)
        ref = naive_conv(x, k, b, padding)
        assert mine.shape == ref.shape
        assert np.abs(mine - ref).max() < 1e-6


def test_conv_1x1_matches_naive_loop():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 6, 7)).astype(np.float32)
    k = rng.standard_normal((2, 5, 1, 1)).astype(np.float32)
    assert np.abs(conv2d_forward(x, k, None, 0) - naive_conv(x, k, None, 0)).max() < 1e-6


def test_conv_output_size_formula():
    x = np.zeros((1, 11, 9), dtype=np.float32)
    k = np.zeros((2, 1, 3, 3), dtype=np.float32)
    out = conv2d_forward(x, k, None, 1)
    assert out.shape == (2, 11 + 2 - 3 + 1, 9 + 2 - 3 + 1)


def test_conv_bad_geometry():
    x = np.zeros((1, 2, 2), dtype=np.float32)
    k = np.zeros((1, 1, 5, 5), dtype=np.float32)
    with pytest.raises(ContractViolation):
        conv2d_forward(x, k, None, 0)
    with pytest.raises(ContractViolation):
        conv2d_forward(x, np.zeros((1, 3, 3, 3), dtype=np.float32), None, 1)


# --- pooling -----------------------------------------------------------------


def test_maxpool_constant_image():
    x = np.full((2, 6, 4), 0.7, dtype=np.float32)
    out = maxpool2_forward(x)
    assert out.shape == (2, 3, 2)
    assert (out == np.float32(0.7)).all()


def test_maxpool_single_window():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
    assert maxpool2_forward(x)[0, 0, 0] == 4.0


def test_maxpool_window_scan_oracle():
    rng = np.random.default_rng(6)
    x = rng.random((1, 160, 160)).astype(np.float32)
    out = maxpool2_forward(x)
    assert out.shape == (1, 80, 80)
    for i in range(0, 160, 2):
        for j in range(0, 160, 2):
            assert out[0, i // 2, j // 2] == x[0, i : i + 2, j : j + 2].max()


def test_maxpool_odd_dims_rejected():
    with pytest.raises(ContractViolation):
        maxpool2_forward(np.zeros((1, 3, 4), dtype=np.float32))


# --- normalization -----------------------------------------------------------


def test_batchnorm_identity_params():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 4, 4)).astype(np.float32)
    out = batchnorm_inference(x, np.zeros(3), np.ones(3), np.ones(3), np.zeros(3), eps=0.0)
    assert np.allclose(out, x, atol=1e-6)


def test_batchnorm_gamma_zero_gives_beta():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 3)).astype(np.float32)
    beta = np.array([0.5, -1.5])
    out = batchnorm_inference(x, np.zeros(2), np.ones(2), np.zeros(2), beta)
    assert np.allclose(out[0], 0.5) and np.allclose(out[1], -1.5)


def test_batchnorm_matches_scalar_loop():
    rng = np.random.default_rng(9)
    c, h, w = 4, 5, 6
    x = rng.standard_normal((c, h, w)).astype(np.float32)
    mean = rng.standard_normal(c)
    var = rng.random(c) + 0.1
    gamma = rng.standard_normal(c)
    beta = rng.standard_normal(c)
    eps = 1e-5
    out = batchnorm_inference(x, mean, var, gamma, beta, eps)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                ref = (float(x[ch, i, j]) - mean[ch]) / np.sqrt(var[ch] + eps) * gamma[ch] + beta[ch]
                assert abs(float(out[ch, i, j]) - ref) < 1e-6


def test_batchnorm_negative_variance_rejected():
    x = np.zeros((1, 2, 2), dtype=np.float32)
    with pytest.raises(ContractViolation):
        batchnorm_inference(x, np.zeros(1), np.array([-0.1]), np.ones(1), np.zeros(1))


def test_layernorm_constant_input_gives_beta():
    x = np.full(16, 3.3, dtype=np.float32)
    beta = np.linspace(-1, 1, 16)
    out = layernorm(x, np.ones(16), beta, eps=1e-6)
    assert np.allclose(out, beta, atol=1e-5)


def test_layernorm_already_normalized():
    out = layernorm(np.array([-1.0, 1.0]), np.ones(2), np.zeros(2), eps=0.0)
    assert np.allclose(out, [-1.0, 1.0], atol=1e-12)


def test_layernorm_statistics_length_384():
    rng = np.random.default_rng(10)
    x = (rng.standard_normal(384) * 3.0 + 1.5).astype(np.float32)
    out = layernorm(x, np.ones(384), np.zeros(384), eps=1e-12).astype(np.float64)
    assert abs(out.mean()) < 1e-6
    assert abs(out.var() - 1.0) < 1e-4


def test_layernorm_length_mismatch():
    with pytest.raises(ContractViolation):
        layernorm(np.zeros(4), np.ones(3), np.zeros(4))


# --- attention ---------------------------------------------------------------


def _random_attention_params(rng, dim, dtype=np.float64):
    def mat():
        return rng.standard_normal((dim, dim)).astype(dtype) * 0.3

    def vec():
        return rng.standard_normal(dim).astype(dtype) * 0.1

    return AttentionParams(mat(), mat(), mat(), mat(), vec(), vec(), vec(), vec())


def naive_attention(tokens, params, heads):
    t, d = tokens.shape
    dh = d // heads
    x = np.asarray(tokens, dtype=np.float64)
    q = x @ params.wq.T + params.bq
    k = x @ params.wk.T + params.bk
    v = x @ params.wv.T + params.bv
    ctx = np.zeros((t, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        for i in range(t):
            row = np.exp(scores[i] - scores[i].max())
            ctx[i, sl] = (row / row.sum()) @ v[:, sl]
    return ctx @ params.wo.T + params.bo


def test_attention_single_token():
    rng = np.random.default_rng(11)
    params = _random_attention_params(rng, 4)
    tokens = rng.standard_normal((1, 4))
    out, attn = multihead_attention(tokens, params, 2, return_weights=True)
    assert attn.shape == (2, 1, 1)
    assert np.allclose(attn, 1.0)
    v = tokens @ params.wv.T + params.bv
    assert np.allclose(out, v @ params.wo.T + params.bo, atol=1e-10)


def test_attention_zero_projections():
    dim = 6
    zeros = AttentionParams(
        *(np.zeros((dim, dim)) for _ in range(4)), *(np.zeros(dim) for _ in range(4))
    )
    tokens = np.random.default_rng(12).standard_normal((3, dim))
    assert not multihead_attention(tokens, zeros, 3).any()


def test_attention_matches_naive_loop():
    rng = np.random.default_rng(13)
    params = _random_attention_params(rng, 8)
    tokens = rng.standard_normal((4, 8))
    out = multihead_attention(tokens, params, 2)
    assert np.abs(out - naive_attention(tokens, params, 2)).max() < 1e-5


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(14)
    params = _random_attention_params(rng, 12)
    tokens = rng.standard_normal((7, 12)) * 5.0
    _, attn = multihead_attention(tokens, params, 4, return_weights=True)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-6
    assert attn.min() >= 0.0 and attn.max() <= 1.0


def test_attention_indivisible_heads_rejected():
    rng = np.random.default_rng(15)
    params = _random_attention_params(rng, 6)
    with pytest.raises(ContractViolation):
        multihead_attention(rng.standard_normal((2, 6)), params, 4)


def softmax_rows(m):
    """Row-wise softmax in float64 that leaves ``m`` alone, shifting by the
    row maxima when its own logits need it."""
    m = np.array(m, dtype=np.float64)
    return _softmax_rows_inplace(m, _needs_shift(m.min(), m.max()))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([1, 2, 4]))
def test_softmax_rows_property(seed, rows_scale):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3 * rows_scale, 5)) * rng.uniform(0.1, 50)
    p = softmax_rows(m)
    assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-6
    assert p.min() >= 0.0 and p.max() <= 1.0


def test_softmax_extreme_logits():
    m = np.array([[1000.0, 0.0, -3000.0], [-900.0, -900.5, -901.0]])
    p = softmax_rows(m)
    assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12


# --- seeded random streams -----------------------------------------------------


def test_rng_identical_seed_identical_stream():
    a, b = Rng(123456789), Rng(123456789)
    assert np.array_equal(a.uniform(size=64), b.uniform(size=64))
    assert np.array_equal(a.integers(10, size=64), b.integers(10, size=64))
    assert np.array_equal(a.normal(size=64), b.normal(size=64))


def test_rng_derived_streams_differ():
    root = Rng(7)
    u1 = root.derive(1).uniform(size=32)
    u2 = root.derive(2).uniform(size=32)
    again = Rng(7).derive(1).uniform(size=32)
    assert not np.array_equal(u1, u2)
    assert np.array_equal(u1, again)


def test_rng_truncated_normal_respects_clip():
    draws = Rng(9).truncated_normal((5000,), std=0.02, clip=2.0)
    assert np.abs(draws).max() <= 2.0 * 0.02
    # truncation at 2 sigma shrinks the std by sqrt(1 - 4 phi(2) / (Phi(2)-Phi(-2)))
    assert draws.std() == pytest.approx(0.02 * 0.8797, rel=0.05)


# --- determinism -------------------------------------------------------------


def test_ops_are_pure_and_deterministic():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 8, 8)).astype(np.float32)
    k = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
    a = conv2d_forward(x, k, None, 1)
    b = conv2d_forward(x, k, None, 1)
    assert np.array_equal(a, b)
    layer = DenseLayer(rng.standard_normal((4, 5)).astype(np.float32),
                       rng.standard_normal(4).astype(np.float32))
    v = rng.standard_normal(5).astype(np.float32)
    assert np.array_equal(dense_forward(layer, v), dense_forward(layer, v))


# --- bitwise equality with the copying reference expressions --------------------
#
# The kernels below were rewritten to make fewer temporaries; each keeps the
# operation order of the straightforward expression it replaced, so its output
# must be bit-for-bit the reference's, including the sign of zero in ties.


def ref_maxpool(x):
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def ref_conv(x, kernels, bias, padding):
    c, h, w = x.shape
    cout, _, kh, kw = kernels.shape
    out_h = h + 2 * padding - kh + 1
    out_w = w + 2 * padding - kw + 1
    padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c, kh * kw, out_h * out_w), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            cols[:, u * kw + v, :] = padded[:, u : u + out_h, v : v + out_w].reshape(c, -1)
    out = kernels.reshape(cout, -1).astype(np.float64) @ cols.reshape(c * kh * kw, -1)
    out += bias[:, None]
    return out.reshape(cout, out_h, out_w).astype(np.result_type(x, kernels))


def ref_gelu(x):
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def ref_batchnorm(x, mean, var, gamma, beta, eps=1e-5):
    scale = gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + eps)
    shift = beta - mean.astype(np.float64) * scale
    out = np.asarray(x, dtype=np.float64) * scale[:, None, None] + shift[:, None, None]
    return out.astype(np.result_type(x, gamma))


def ref_softmax(m):
    m = np.asarray(m, dtype=np.float64)
    if m.max() > 700.0 or m.min() < -700.0 or m.max() - m.min() > 700.0:
        m = m - m.max(axis=-1, keepdims=True)
        np.maximum(m, -708.0, out=m)
    e = np.exp(m)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def assert_bitwise(got, want):
    """Equal bytes, except that any NaN matches any NaN: which NaN a max or
    sum passes on (sign, payload) is not part of the contract, and a NaN never
    leaves the detector, whose finite checks reject it."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert got[~nan].tobytes() == want[~nan].tobytes()


# small pools of values make ties, and ties between -0.0 and +0.0, common
_TIES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.0])


def _f32(lo=-4.0, hi=4.0):
    return _TIES | st.floats(lo, hi, width=32)


def _planes(elements, dtype=np.float32, max_c=3, max_side=7, even=False):
    side = st.integers(1, max_side).map(lambda n: 2 * n if even else n)
    shape = st.tuples(st.integers(1, max_c), side, side)
    return hnp.arrays(dtype, shape, elements=elements)


@settings(max_examples=80, deadline=None)
@given(
    _planes(_TIES | st.floats(width=32), max_c=4, max_side=12, even=True)
    | _planes(_TIES | st.floats(), dtype=np.float64, max_side=6, even=True)
)
def test_maxpool_bitwise_equals_reshape_max(x):
    assert_bitwise(maxpool2_forward(x), ref_maxpool(x))


@settings(max_examples=60, deadline=None)
@given(
    x=_planes(_f32(), max_side=9),
    cout=st.integers(1, 3),
    k=st.integers(1, 3),
    padding=st.integers(0, 2),
    data=st.data(),
)
def test_conv_bitwise_equals_reshape_im2col(x, cout, k, padding, data):
    c, h, w = x.shape
    if k > h + 2 * padding or k > w + 2 * padding:
        return
    kernels = data.draw(hnp.arrays(np.float32, (cout, c, k, k), elements=_f32()))
    bias = data.draw(hnp.arrays(np.float32, (cout,), elements=_f32()))
    got = conv2d_forward(x, kernels, bias, padding=padding)
    assert_bitwise(got, ref_conv(x, kernels, bias, padding))


@settings(max_examples=80, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(1, 40), elements=_TIES | st.floats(allow_nan=False))
    | hnp.arrays(np.float32, st.tuples(st.integers(1, 5), st.integers(1, 9)),
                 elements=_TIES | st.floats(width=32, allow_nan=False))
)
def test_gelu_bitwise_equals_expression(x):
    before = x.copy()
    with np.errstate(invalid="ignore"):  # gelu(-inf) is -inf * 0
        assert_bitwise(gelu(x), ref_gelu(x))
    assert_bitwise(x, before)  # the input is not overwritten


def test_load_erf_is_scipy_special_erf_bitwise():
    assert load_erf() is erf
    for dtype in (np.float64, np.float32):
        info = np.finfo(dtype)
        edges = [0.0, info.smallest_subnormal, info.smallest_normal / 2, info.smallest_normal]
        for v in map(dtype, (1.0, 6.0, 27.0)):
            edges += [np.nextafter(v, dtype(0.0)), v, np.nextafter(v, dtype(np.inf))]
        x = np.array(edges + [np.inf, np.nan], dtype=dtype)
        x = np.concatenate([x, -x])
        got, want = load_erf()(x), erf(x)
        assert got.dtype == want.dtype == x.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    x=_planes(_TIES | st.floats(width=32, allow_nan=False, allow_infinity=False), max_side=9),
    data=st.data(),
)
def test_batchnorm_bitwise_equals_expression(x, data):
    c = x.shape[0]
    mean, gamma, beta = (
        data.draw(hnp.arrays(np.float32, (c,), elements=_f32(-3.0, 3.0))) for _ in range(3)
    )
    var = data.draw(hnp.arrays(np.float32, (c,), elements=st.floats(0.0, 9.0, width=32)))
    before = x.copy()
    got = batchnorm_inference(x, mean, var, gamma, beta)
    assert_bitwise(got, ref_batchnorm(x, mean, var, gamma, beta))
    assert_bitwise(x, before)


@settings(max_examples=80, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 24), st.integers(1, 24)),
        elements=_TIES | st.floats(-1000.0, 1000.0),
    ),
    st.booleans(),
)
def test_softmax_bitwise_equals_expression(m, transposed):
    if transposed:  # a non-contiguous input keeps its layout through the copy
        m = m.transpose(0, 2, 1)
    want = ref_softmax(m)
    before = m.copy()
    assert_bitwise(softmax_rows(m), want)
    assert_bitwise(m, before)  # softmax_rows leaves its argument alone
    owned = m.copy()
    assert _softmax_rows_inplace(owned, _needs_shift(owned.min(), owned.max())) is owned
    assert_bitwise(owned, ref_softmax(m.copy()))


@settings(max_examples=60, deadline=None)
@given(
    x=_planes(_f32(), max_side=9),
    cout=st.integers(1, 3),
    k=st.sampled_from([1, 3]),
    padding=st.integers(0, 1),
    band_rows=st.integers(1, 4),
    data=st.data(),
)
def test_banded_conv_bitwise_equals_one_shot_im2col(x, cout, k, padding, band_rows, data):
    """Bands of ``band_rows`` output rows (often not dividing out_h) against
    the single patch matrix conv2d_forward built before it worked in bands."""
    c, h, w = x.shape
    if k > h + 2 * padding or k > w + 2 * padding:
        return
    out_w = w + 2 * padding - k + 1
    kernels = data.draw(hnp.arrays(np.float32, (cout, c, k, k), elements=_f32()))
    bias = data.draw(hnp.arrays(np.float32, (cout,), elements=_f32()))
    with mock.patch.object(nncore, "_IM2COL_BAND_BYTES", 8 * c * k * k * out_w * band_rows):
        got = conv2d_forward(x, kernels, bias, padding=padding)
    assert_bitwise(got, ref_conv(x, kernels, bias, padding))


def ref_attention(tokens, params, heads, rows=None):
    """The batched expression multihead_attention evaluated before it ran one
    head at a time: every head's scores in one (heads, tokens, tokens) tensor
    under one softmax, then the contexts of the first ``rows`` rows. Returns
    the output, the attention maps and the raw scores."""
    t, d = tokens.shape
    dh = d // heads
    x64 = np.asarray(tokens, dtype=np.float64)
    q, k, v = (
        x64 @ w.T.astype(np.float64) + b
        for w, b in ((params.wq, params.bq), (params.wk, params.bk), (params.wv, params.bv))
    )
    q *= 1.0 / np.sqrt(dh)
    qh, kh, vh = (m.reshape(t, heads, dh).transpose(1, 0, 2) for m in (q, k, v))
    scores = qh @ kh.transpose(0, 2, 1)
    attn = ref_softmax(scores)
    n = t if rows is None else rows
    ctx = (attn[:, :n] @ vh).transpose(1, 0, 2).reshape(n, d)
    out = ctx @ params.wo.T.astype(np.float64) + params.bo
    return out.astype(np.result_type(tokens, params.wo)), attn, scores


def _assert_attention_matches_reference(tokens, params, heads):
    want, want_maps, _ = ref_attention(tokens, params, heads)
    got, maps = multihead_attention(tokens, params, heads, return_weights=True)
    assert_bitwise(got, want)
    assert_bitwise(maps, want_maps)
    assert_bitwise(multihead_attention(tokens, params, heads), want)
    for rows in sorted({1, len(tokens)}):
        got = multihead_attention(tokens, params, heads, out_rows=rows)
        assert_bitwise(got, ref_attention(tokens, params, heads, rows)[0])


@st.composite
def _attention_cases(draw):
    heads, dh, t = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 9))
    d = heads * dh
    # wide magnitudes, so that some cases need the softmax shift and some not
    scale = draw(st.sampled_from([1.0, 8.0, 40.0]))
    elements = _TIES | st.floats(-scale, scale, width=32)
    tokens = draw(hnp.arrays(np.float32, (t, d), elements=elements))
    mats = [draw(hnp.arrays(np.float32, (d, d), elements=elements)) for _ in range(4)]
    vecs = [draw(hnp.arrays(np.float32, (d,), elements=elements)) for _ in range(4)]
    return tokens, AttentionParams(*mats, *vecs), heads


@settings(max_examples=80, deadline=None)
@given(_attention_cases())
def test_attention_bitwise_equals_batched_expression(case):
    _assert_attention_matches_reference(*case)


def _trip_case(where):
    """Small-logit attention in which the shift is tripped only by the last
    head's scores, only by the first head's, or only by a row other than the
    class token's; or by the first head's while NaN scores in the last head
    keep the softmax unshifted."""
    rng = np.random.default_rng(17)
    heads, dh, t = 3, 2, 7
    d = heads * dh
    tokens = rng.standard_normal((t, d)).astype(np.float32)
    params = _random_attention_params(rng, d, np.float32)
    if where != "other row":
        tripping = slice(d - dh, d) if where == "late head" else slice(0, dh)
        params.bq[tripping] = 30.0
        params.bk[tripping] = 30.0
        if where == "NaN after trip":
            params.bq[d - 1] = np.nan
    else:  # a large feature that only the queries read, in token row 4
        params.wk[:, 0] = 0.0
        params.wv[:, 0] = 0.0
        params.wq[:, 0] = 20.0
        tokens[4, 0] = 60.0
    return tokens, params, heads


@pytest.mark.parametrize("where", ["late head", "other row", "first head", "NaN after trip"])
def test_attention_shift_decided_over_every_head_and_row(where):
    tokens, params, heads = _trip_case(where)
    _, _, scores = ref_attention(tokens, params, heads)
    if where == "NaN after trip":
        assert _needs_shift(scores[0].min(), scores[0].max()) and np.isnan(scores[-1]).all()
        assert not _needs_shift(scores.min(), scores.max())
    else:
        assert _needs_shift(scores.min(), scores.max())
        rest = {"late head": scores[:-1], "first head": scores[1:], "other row": scores[:, 0]}
        assert not _needs_shift(rest[where].min(), rest[where].max())
    _assert_attention_matches_reference(tokens, params, heads)


@settings(max_examples=60, deadline=None)
@given(
    offset=st.floats(-2000.0, 2000.0),
    span=st.floats(0.0, 1000.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_attention_finite_at_any_score_offset(offset, span, seed):
    """Random tokens and weights as in ``_trip_case``, with every head's
    scores placed in [offset, offset + span]: each head's query is
    (offset * sqrt(2), u_i) and its key (1, span * sqrt(2) * u_j), where u in
    [0, 1] is token column 0. Scores all far below zero underflowed every
    row to 0/0 before the shift also covered them."""
    rng = np.random.default_rng(seed)
    heads, dh, t = 3, 2, 7
    d = heads * dh
    tokens = rng.standard_normal((t, d))
    tokens[:, 0] = rng.uniform(0.0, 1.0, t)
    params = _random_attention_params(rng, d)
    params.wq[:] = params.wk[:] = 0.0
    params.wq[1::dh, 0] = 1.0
    params.wk[1::dh, 0] = span * np.sqrt(2.0)
    params.bq[:] = np.tile((offset * np.sqrt(2.0), 0.0), heads)
    params.bk[:] = np.tile((1.0, 0.0), heads)
    got = multihead_attention(tokens, params, heads)
    assert np.isfinite(got).all()
    want, _, scores = ref_attention(tokens, params, heads)
    assert offset - 1e-9 * abs(offset) <= scores.min() <= scores.max() <= offset + span + 1e-6
    assert_bitwise(got, want)


def test_softmax_of_far_negative_logits_is_shifted():
    m = np.array([[-800.0, -790.0]])
    assert _needs_shift(m.min(), m.max())
    p = _softmax_rows_inplace(m, _needs_shift(m.min(), m.max()))
    assert np.isfinite(p).all() and p[0, 1] > 0.9999


def test_attention_softmaxes_each_head_once_when_no_shift_is_needed(monkeypatch):
    rng = np.random.default_rng(19)
    heads, tokens = 4, rng.standard_normal((5, 8))
    params = _random_attention_params(rng, 8)
    calls, softmax = [], nncore._softmax_rows_inplace
    counted = lambda m, shift: calls.append(shift) or softmax(m, shift)
    monkeypatch.setattr(nncore, "_softmax_rows_inplace", counted)
    for kwargs in ({}, {"return_weights": True}, {"out_rows": 1}):
        calls.clear()
        multihead_attention(tokens, params, heads, **kwargs)
        assert calls == [False] * heads


def test_attention_out_rows_rejects_bad_requests():
    rng = np.random.default_rng(18)
    params = _random_attention_params(rng, 4)
    tokens = rng.standard_normal((3, 4))
    for kwargs in ({"out_rows": 0}, {"out_rows": 4}, {"out_rows": 1, "return_weights": True}):
        with pytest.raises(ContractViolation):
            multihead_attention(tokens, params, 2, **kwargs)
