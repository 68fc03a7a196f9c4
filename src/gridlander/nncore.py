"""Numerical kernels: dense layers with manual backpropagation plus
forward-only conv / pool / norm / attention primitives.

Conventions:
  * tensors are ``float32`` numpy arrays, row-major;
  * every dot product is accumulated in ``float64`` and the result is cast
    back to the parameter dtype, which keeps the kernels within 1e-6 of
    naive reference loops;
  * all functions are pure and safe to call concurrently.

The ops are dtype-generic: layers built from ``float64`` parameters stay in
``float64`` end to end, which the gradient-check tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import erf

from .errors import ContractViolation

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Activation(Enum):
    RELU = "relu"
    GELU = "gelu"
    IDENTITY = "identity"


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    # (x * 0.5) * (1 + erf(x / sqrt2)), in that order, with one temporary
    out = np.divide(x, _SQRT2)
    erf(out, out=out)
    out += 1.0
    out *= x * 0.5
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx [x * Phi(x)] = Phi(x) + x * phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return 0.5 * (1.0 + erf(x / _SQRT2)) + x * pdf


def _activate(z: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.RELU:
        return np.maximum(z, 0.0)
    if activation is Activation.GELU:
        return gelu(z)
    return z


def _activation_grad(z: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.RELU:
        return (z > 0.0).astype(z.dtype)
    if activation is Activation.GELU:
        return gelu_grad(z)
    return np.ones_like(z)


@dataclass
class DenseLayer:
    """Fully connected layer y = activation(W x + b)."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: Activation = Activation.IDENTITY

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights)
        self.bias = np.asarray(self.bias)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ContractViolation("dense layer expects 2-D weights and 1-D bias")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise ContractViolation(
                f"bias length {self.bias.shape[0]} != output rows {self.weights.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def _check_dense_input(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[-1] != layer.in_dim:
        raise ContractViolation(
            f"dense input trailing dim {x.shape} incompatible with weights {layer.weights.shape}"
        )
    return x


def _out_dtype(x: np.ndarray, params: np.ndarray):
    """float32 throughout a float32 pipeline; float64 once either side is."""
    return np.result_type(x.dtype, params.dtype)


def dense_preactivation(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    """W x + b in float64, for a single vector or a (batch, in) matrix."""
    x = _check_dense_input(layer, x)
    z = np.asarray(x, dtype=np.float64) @ layer.weights.T.astype(np.float64, copy=False)
    z += layer.bias
    return z


def dense_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a vector (in,) or a batch (n, in)."""
    z = dense_preactivation(layer, x)
    return _activate(z, layer.activation).astype(_out_dtype(x, layer.weights), copy=False)


def dense_backward(
    layer: DenseLayer,
    x: np.ndarray,
    grad_out: np.ndarray,
    preactivation: np.ndarray | None = None,
):
    """Gradients of a scalar loss given d(loss)/d(output).

    Returns (grad_weights, grad_bias, grad_input). Batched inputs sum the
    parameter gradients over the batch, matching a loss summed over rows.
    ``preactivation`` lets a caller that cached W x + b skip recomputing it.
    """
    x = _check_dense_input(layer, x)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != x.shape[:-1] + (layer.out_dim,):
        raise ContractViolation(
            f"grad_out shape {grad_out.shape} does not match forward output"
        )
    z = preactivation if preactivation is not None else dense_preactivation(layer, x)
    delta = np.asarray(grad_out, dtype=np.float64) * _activation_grad(z, layer.activation)
    x64 = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        grad_w = np.outer(delta, x64)
        grad_b = delta
    else:
        grad_w = delta.T @ x64
        grad_b = delta.sum(axis=0)
    grad_in = delta @ layer.weights.astype(np.float64, copy=False)
    dt = _out_dtype(x, layer.weights)
    return tuple(g.astype(dt, copy=False) for g in (grad_w, grad_b, grad_in))


def conv2d_forward(
    x: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Cross-correlation of a (C, H, W) tensor with (Cout, C, kh, kw) kernels.

    Output spatial size follows floor((H + 2p - k) / s) + 1. Implemented as
    im2col: the kh*kw shifted views of the padded input are cast straight
    into one float64 (C*kh*kw, out_h*out_w) patch matrix, which a single
    float64 GEMM multiplies by the flattened kernels.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    if x.ndim != 3 or kernels.ndim != 4:
        raise ContractViolation("conv2d expects (C,H,W) input and (Cout,C,kh,kw) kernels")
    c, h, w = x.shape
    cout, cin, kh, kw = kernels.shape
    if cin != c:
        raise ContractViolation(f"kernel input channels {cin} != tensor channels {c}")
    if stride < 1 or padding < 0:
        raise ContractViolation("stride must be >=1 and padding >=0")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ContractViolation("kernel larger than padded input")
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1

    if padding:
        padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    else:
        padded = x
    # channel-major patch matrix; each assignment casts its view in one pass
    cols = np.empty((c, kh, kw, out_h, out_w), dtype=np.float64)
    for u in range(kh):
        rows = slice(u, u + (out_h - 1) * stride + 1, stride)
        for v in range(kw):
            cols[:, u, v] = padded[:, rows, v : v + (out_w - 1) * stride + 1 : stride]
    cols = cols.reshape(c * kh * kw, out_h * out_w)
    out = kernels.reshape(cout, c * kh * kw).astype(np.float64, copy=False) @ cols
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (cout,):
            raise ContractViolation("conv bias must have one entry per output channel")
        out += bias[:, None]
    return out.reshape(cout, out_h, out_w).astype(_out_dtype(x, kernels), copy=False)


def maxpool2_forward(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2; requires even spatial dims."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ContractViolation("maxpool expects a (C,H,W) tensor")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ContractViolation(f"maxpool needs even spatial dims, got {h}x{w}")
    # the max of the four phase views, in the order reshape(...).max(axis=(2, 4))
    # visits them, so ties between -0.0 and +0.0 resolve the same way
    out = np.maximum(x[:, ::2, ::2], x[:, ::2, 1::2])
    np.maximum(out, x[:, 1::2, ::2], out=out)
    np.maximum(out, x[:, 1::2, 1::2], out=out)
    return out


def batchnorm_inference(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Per-channel (x - mean) / sqrt(var + eps) * gamma + beta."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ContractViolation("batchnorm expects a (C,H,W) tensor")
    c = x.shape[0]
    mean, var, gamma, beta = (np.asarray(v) for v in (mean, var, gamma, beta))
    for name, v in (("mean", mean), ("var", var), ("gamma", gamma), ("beta", beta)):
        if v.shape != (c,):
            raise ContractViolation(f"batchnorm {name} must have length {c}")
    if (var < 0).any():
        raise ContractViolation("batchnorm variance must be non-negative")
    scale = gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + eps)
    shift = beta - mean.astype(np.float64) * scale
    out = np.multiply(x, scale[:, None, None], dtype=np.float64)
    out += shift[:, None, None]
    return out.astype(_out_dtype(x, gamma), copy=False)


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Normalize over the last axis to zero mean / unit variance, then affine.

    Accepts a vector or a (rows, dim) matrix normalized row-wise.
    """
    x = np.asarray(x)
    gamma, beta = np.asarray(gamma), np.asarray(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ContractViolation(f"layernorm gamma/beta must have length {d}")
    x64 = np.asarray(x, dtype=np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    centered = x64 - mu
    var = np.einsum("...i,...i->...", centered, centered)[..., None] / d
    centered *= 1.0 / np.sqrt(var + eps)
    centered *= gamma
    centered += beta
    return centered.astype(_out_dtype(x, gamma), copy=False)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax in float64."""
    return _softmax_rows_inplace(np.array(m, dtype=np.float64))


def _softmax_rows_inplace(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax that overwrites the float64 array ``m`` and returns it."""
    lo, hi = float(m.min()), float(m.max())
    if hi > 700.0 or hi - lo > 700.0:
        m -= m.max(axis=-1, keepdims=True)
        # floor far-underflowed logits: exp() on subnormals is very slow
        # on some CPUs
        np.maximum(m, -708.0, out=m)
    np.exp(m, out=m)
    m /= m.sum(axis=-1, keepdims=True)
    return m


@dataclass
class AttentionParams:
    """Packed Q/K/V/output projections; heads are contiguous column slices."""

    wq: np.ndarray  # (dim, dim)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray  # (dim,)
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray


def multihead_attention(
    tokens: np.ndarray,
    params: AttentionParams,
    heads: int,
    return_weights: bool = False,
):
    """Scaled dot-product attention over (tokens, dim) rows.

    Per head: softmax(Q K^T / sqrt(d_head)) V; heads are concatenated and
    passed through the output projection. With ``return_weights`` the
    float64 attention maps (heads, tokens, tokens) are returned as well.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ContractViolation("attention expects a (tokens, dim) matrix")
    t, d = tokens.shape
    if d % heads != 0:
        raise ContractViolation(f"token dim {d} not divisible by {heads} heads")
    dh = d // heads
    x64 = np.asarray(tokens, dtype=np.float64)

    def project(w, b):
        y = x64 @ w.T.astype(np.float64, copy=False)
        y += b
        return y

    q = project(params.wq, params.bq)
    k = project(params.wk, params.bk)
    v = project(params.wv, params.bv)
    q *= 1.0 / np.sqrt(dh)  # fold the score scale into Q
    # (heads, tokens, d_head)
    qh = q.reshape(t, heads, dh).transpose(1, 0, 2)
    kh = k.reshape(t, heads, dh).transpose(1, 0, 2)
    vh = v.reshape(t, heads, dh).transpose(1, 0, 2)
    attn = _softmax_rows_inplace(qh @ kh.transpose(0, 2, 1))
    ctx = (attn @ vh).transpose(1, 0, 2).reshape(t, d)
    out = ctx @ params.wo.T.astype(np.float64, copy=False)
    out += params.bo
    out = out.astype(_out_dtype(tokens, params.wo), copy=False)
    if return_weights:
        return out, attn
    return out
