"""Numerical kernels: affine dense layers with manual backpropagation plus
forward-only stride-1 conv / pool / norm / attention primitives. Callers
apply their own nonlinearities: the detector its GELU, the Q-network its
ReLU and ReLU mask.

Conventions:
  * tensors are ``float32`` numpy arrays, row-major;
  * every dot product is accumulated in ``float64`` and the result is cast
    back to the parameter dtype, which keeps the kernels within 1e-6 of
    naive reference loops;
  * every function is pure and safe to call concurrently, except
    ``multihead_attention`` run as a forked lane (``cores.run``), which
    writes the arrays every lane shares and waits at the lanes' barriers.

The ops are dtype-generic: layers built from ``float64`` parameters stay in
``float64`` end to end, which the gradient-check tests rely on.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

from .cores import SERIAL, Lane
from .errors import ContractViolation

_SQRT2 = np.sqrt(2.0)
# largest float64 patch matrix conv2d_forward builds at once, in bytes
_IM2COL_BAND_BYTES = 1 << 20


@cache
def load_erf() -> np.ufunc:
    """``scipy.special.erf``, loaded on the first call from the compiled
    extension that defines it, ``scipy.special._special_ufuncs``.

    The extension is loaded by file path, so the ``scipy.special`` package
    is never imported: that import costs ~0.25 s and ~20 MB (mostly its
    array-API layer), the top-level ``scipy`` package and this extension
    ~16 ms. The loaded module is the one ``scipy.special`` imports later, so
    the ufunc returned is ``scipy.special.erf`` itself. Only the exact GELU
    needs it, so processes that never build a detector load no scipy."""
    import scipy

    name = "scipy.special._special_ufuncs"
    path = os.path.join(scipy.__path__[0], "special", "_special_ufuncs" + EXTENSION_SUFFIXES[0])
    loader = ExtensionFileLoader(name, path)
    module = module_from_spec(spec_from_file_location(name, path, loader=loader))
    sys.modules[name] = module
    loader.exec_module(module)
    return module.erf


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-CDF GELU: x * Phi(x).

    Every finite input gives a finite output: ``erf`` saturates, so the far
    left tends to -0 and the far right to x itself (-1e4 and 1e4 give -0.0
    and 1e4)."""
    x = np.asarray(x, dtype=np.float64)
    # (x * 0.5) * (1 + erf(x / sqrt2)), in that order, with one temporary
    out = np.divide(x, _SQRT2)
    load_erf()(out, out=out)
    out += 1.0
    out *= x * 0.5
    return out


@dataclass
class DenseLayer:
    """Fully connected affine layer y = W x + b."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

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
    return dense_preactivation(layer, x).astype(_out_dtype(x, layer.weights), copy=False)


def dense_backward(layer: DenseLayer, x: np.ndarray, grad_out: np.ndarray):
    """Gradients of a scalar loss given d(loss)/d(W x + b) for a (batch, in)
    input.

    Returns (grad_weights, grad_bias, grad_input). The parameter gradients
    are summed over the batch, matching a loss summed over rows.
    """
    x = _check_dense_input(layer, x)
    grad_out = np.asarray(grad_out)
    if x.ndim != 2 or grad_out.shape != (len(x), layer.out_dim):
        raise ContractViolation(
            f"dense_backward needs (batch, in) and (batch, out), got {x.shape}, {grad_out.shape}"
        )
    delta = np.asarray(grad_out, dtype=np.float64)
    grad_w = delta.T @ np.asarray(x, dtype=np.float64)
    grad_b = delta.sum(axis=0)
    grad_in = delta @ layer.weights.astype(np.float64, copy=False)
    dt = _out_dtype(x, layer.weights)
    return tuple(g.astype(dt, copy=False) for g in (grad_w, grad_b, grad_in))


def conv2d_forward(
    x: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray | None = None,
    padding: int = 0,
) -> np.ndarray:
    """Stride-1 cross-correlation of a (C, H, W) tensor with (Cout, C, kh, kw)
    kernels.

    Output spatial size follows H + 2p - k + 1. Implemented as im2col in
    bands of output rows: the kh*kw shifted views of the padded input are cast
    straight into a float64 (C*kh*kw, rows*out_w) patch matrix of at most
    about ``_IM2COL_BAND_BYTES``, which one float64 GEMM multiplies by the
    flattened kernels into the band's columns of the output.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    if x.ndim != 3 or kernels.ndim != 4:
        raise ContractViolation("conv2d expects (C,H,W) input and (Cout,C,kh,kw) kernels")
    c, h, w = x.shape
    cout, cin, kh, kw = kernels.shape
    if cin != c:
        raise ContractViolation(f"kernel input channels {cin} != tensor channels {c}")
    if padding < 0:
        raise ContractViolation("padding must be >=0")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ContractViolation("kernel larger than padded input")
    out_h = hp - kh + 1
    out_w = wp - kw + 1
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (cout,):
            raise ContractViolation("conv bias must have one entry per output channel")

    if padding:
        padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    else:
        padded = x
    k = c * kh * kw
    band = min(out_h, max(1, _IM2COL_BAND_BYTES // (8 * k * out_w)))  # output rows per band
    flat = kernels.reshape(cout, k).astype(np.float64, copy=False)
    out = np.empty((cout, out_h * out_w), dtype=np.float64)
    buf = np.empty(k * band * out_w, dtype=np.float64)
    for r0 in range(0, out_h, band):
        n = min(band, out_h - r0)
        # channel-major patch matrix; each assignment casts its view in one pass
        cols = buf[: k * n * out_w].reshape(c, kh, kw, n, out_w)
        for u in range(kh):
            for v in range(kw):
                cols[:, u, v] = padded[:, r0 + u : r0 + u + n, v : v + out_w]
        np.matmul(flat, cols.reshape(k, n * out_w), out=out[:, r0 * out_w : (r0 + n) * out_w])
    if bias is not None:
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

    Every finite float32 row gives a finite output: the statistics run in
    float64, where the squares of float32 values cannot overflow. A constant
    row normalizes to 0 (the output is ``beta``), and a float32 row
    [1e38, -1e38, 0, 0] to [1.414, -1.414, 0, 0] before the affine.
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


def _needs_shift(lo: float, hi: float) -> bool:
    """Whether a softmax over logits spanning [lo, hi] subtracts each row's
    max before exp(), which would otherwise overflow or underflow whole rows:
    any logit above 700, any below -700 (a row of logits all below about -745
    underflows to 0/0), or a span above 700. False when either bound is NaN."""
    return hi > 700.0 or lo < -700.0 or hi - lo > 700.0


def _softmax_rows_inplace(m: np.ndarray, shift: bool) -> np.ndarray:
    """Row-wise softmax that overwrites the float64 array ``m`` and returns it.
    ``shift`` is ``_needs_shift`` of the min and max over every logit decided
    together, which may be more than ``m`` holds."""
    if shift:
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
    out_rows: int | None = None,
    lane: Lane = SERIAL,
):
    """Scaled dot-product attention over (tokens, dim) rows.

    Per head: softmax(Q K^T / sqrt(d_head)) V; heads are concatenated and
    passed through the output projection. The heads run one at a time through
    one (tokens, tokens) score buffer, and each writes its context straight
    into its column slice. Whether the softmax shifts by the row maxima is
    decided once, by ``_needs_shift`` over every head's scores: a first pass
    runs every head unshifted and takes their min and max, and only when
    those need the shift does a second pass run every head again, shifted.
    Each head's output comes from the same operations either way.

    While the heads run it holds, beside its input, Q, K and V (tokens, dim),
    the score buffer and the context (out_rows, dim), all float64. Q, K, V
    and the score buffer are dropped before the output projection and the
    context after it, so the projection runs beside the context alone.

    With ``out_rows`` only the first ``out_rows`` rows of the output are
    computed; every row's scores are still computed, since they take part in
    the decision. With ``return_weights`` the float64 attention maps
    (heads, tokens, tokens) are returned as well; the two do not combine.

    With a ``lane`` of several (``cores.run``), ``tokens`` holds this lane's
    rows ``lane.part(t)`` of the t = ``lane.rows`` rows. The lane projects
    those rows of Q, K and V into the arrays every lane shares; after a
    barrier it runs its heads ``lane.part(heads)`` over every row, writes
    their score min and max into its row of the shared array "spans", and
    after a second barrier reads every lane's, so the shift is decided over
    every head as in one lane; that barrier (or a third, when the shift
    reruns) leaves the whole context in place. The lane returns its output
    rows ``lane.part(out_rows)``. Each GEMM is one lane's rows or heads of a
    GEMM one lane would run, so the output is the same bytes for every lane
    count. The scores split by heads, not rows: OpenBLAS keeps the bits of
    a 401x64 score GEMM split by rows only at multiples of 12 rows.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ContractViolation("attention expects a (tokens, dim) matrix")
    t, d = lane.rows or len(tokens), tokens.shape[1]
    if d % heads != 0:
        raise ContractViolation(f"token dim {d} not divisible by {heads} heads")
    if out_rows is not None and (return_weights or not 1 <= out_rows <= t):
        raise ContractViolation("out_rows must lie in [1, tokens], without return_weights")
    if return_weights and lane.count > 1:
        raise ContractViolation("return_weights needs the whole attention in one lane")
    dh = d // heads
    n = t if out_rows is None else out_rows
    rows = lane.part(t)
    x64 = np.asarray(tokens, dtype=np.float64)
    q, k, v = (lane.array(name, (t, d)) for name in ("q", "k", "v"))
    for y, w, b in ((q, params.wq, params.bq), (k, params.wk, params.bk), (v, params.wv, params.bv)):
        np.matmul(x64, w.T.astype(np.float64, copy=False), out=y[rows])
        y[rows] += b
    q[rows] *= 1.0 / np.sqrt(dh)  # fold the score scale into Q
    lane.barrier()  # every row of Q, K and V is in place
    maps = np.empty((heads, t, t)) if return_weights else None
    buf = None if return_weights else np.empty((t, t))
    ctx = lane.array("ctx", (n, d))

    def run_heads(shift: bool):
        """This lane's heads into their columns of ``ctx``; the min and max
        of their scores (NaN once any is)."""
        lo, hi = np.inf, -np.inf
        # an unshifted pass that overflows is run again shifted, NaN scores aside
        with np.errstate(over="ignore", invalid="ignore"):
            for h in range(heads)[lane.part(heads)]:
                cols = slice(h * dh, (h + 1) * dh)
                scores = buf if maps is None else maps[h]
                np.matmul(q[:, cols], k[:, cols].T, out=scores)
                lo, hi = np.minimum(lo, scores.min()), np.maximum(hi, scores.max())
                np.matmul(_softmax_rows_inplace(scores[:n], shift), v[:, cols], out=ctx[:, cols])
        return lo, hi

    spans = lane.array("spans", (lane.count, 2))
    spans[lane.index] = run_heads(False)
    lane.barrier()  # every lane's score min and max is in place
    if _needs_shift(spans[:, 0].min(), spans[:, 1].max()):
        run_heads(True)
        lane.barrier()  # every head's shifted context is in place
    del q, k, v, buf
    out = ctx[lane.part(n)] @ params.wo.T.astype(np.float64, copy=False)
    del ctx
    out += params.bo
    out = out.astype(_out_dtype(tokens, params.wo), copy=False)
    if return_weights:
        return out, maps
    return out
