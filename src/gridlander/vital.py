"""Multimodal landing-marker detector: three convolutional stems feeding a
token sequence through a transformer encoder into objectness / box heads.

Forward inference only. The pipeline for a (3, 160, 160) input is

    plane (1,160,160) --stem--> (128, 20, 20)            [x3 modalities]
    concat + flatten  --------> (400, 384) tokens
    class token + positional -> (401, 384)
    encoder (6 pre-norm layers) -> (401, 384)
    class-token row -> MLP heads -> objectness, box corners

Dropout exists in the configuration for checkpoint fidelity but is never
applied at inference.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from . import cores
from .errors import ContractViolation, NumericFault
from .losses import BBox
from .nncore import (
    AttentionParams,
    batchnorm_inference,
    conv2d_forward,
    dense_forward,
    DenseLayer,
    gelu,
    layernorm,
    load_erf,
    maxpool2_forward,
    multihead_attention,
)
from .rng import Rng

IMAGE_SIZE = 160
MODALITIES = ("visual", "thermal", "lidar")


@dataclass(frozen=True)
class VitalConfig:
    """Architecture hyperparameters; defaults are the deployed geometry."""

    embed_dim: int = 128  # channels produced by each stem
    patch_side: int = 20
    encoder_layers: int = 6
    ffn_hidden: int = 512
    heads: int = 6
    dropout: float = 0.2  # recorded in checkpoints; inactive at inference
    image_size: int = IMAGE_SIZE
    stem_channels: tuple[int, int, int] = (8, 16, 32)

    @property
    def token_dim(self) -> int:
        return 3 * self.embed_dim

    @property
    def token_count(self) -> int:
        return self.patch_side * self.patch_side + 1

    def __post_init__(self) -> None:
        if min(self.embed_dim, self.ffn_hidden, self.heads) <= 0 or self.encoder_layers < 0:
            raise ContractViolation(
                "embed_dim, ffn_hidden and heads must be positive, encoder_layers non-negative"
            )
        if self.image_size != IMAGE_SIZE:
            raise ContractViolation(f"image_size must be {IMAGE_SIZE}, the fixed frame size")
        if self.patch_side <= 0 or self.patch_side != self.image_size // 8:
            raise ContractViolation("patch side must equal image_size / 2^3 (three poolings)")
        if self.token_dim % self.heads != 0:
            raise ContractViolation(
                f"token dim {self.token_dim} not divisible by {self.heads} heads"
            )
        if len(self.stem_channels) != 3 or any(c <= 0 for c in self.stem_channels):
            raise ContractViolation("stem_channels must be three positive widths")
        # past this numpy rejects a weight shape (a ValueError, not a MemoryError)
        # or the encoder layer loop does not end
        if max(self.embed_dim, self.ffn_hidden, self.encoder_layers, *self.stem_channels) >= 2**16:
            raise ContractViolation("detector widths and encoder_layers must lie below 2**16")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractViolation("dropout must lie in [0,1)")


@dataclass
class MultimodalImage:
    """Three aligned grayscale planes (visual, thermal, lidar) in [0,1]."""

    planes: np.ndarray  # (3, 160, 160) float32

    def __post_init__(self) -> None:
        self.planes = np.asarray(self.planes, dtype=np.float32)
        if self.planes.shape != (3, IMAGE_SIZE, IMAGE_SIZE):
            raise ContractViolation(
                f"expected (3,{IMAGE_SIZE},{IMAGE_SIZE}) planes, got {self.planes.shape}"
            )
        if not np.isfinite(self.planes).all():
            raise ContractViolation("image planes must be finite")
        if self.planes.min() < 0.0 or self.planes.max() > 1.0:
            raise ContractViolation("image values must lie in [0,1]")


@dataclass(frozen=True)
class Detection:
    """Detector output: marker probability and a normalized corner box."""

    objectness: float
    bbox: BBox

    def __post_init__(self) -> None:
        if not 0.0 <= self.objectness <= 1.0:
            raise ContractViolation("objectness must lie in [0,1]")


# The weight dataclasses' field order is the checkpoint's tensor order
# (``named_tensors`` walks them), and the golden digest pins it.
@dataclass
class ConvParams:
    kernels: np.ndarray  # (Cout, Cin, k, k)
    bias: np.ndarray  # (Cout,)


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray


@dataclass
class StemBlock:
    """conv-BN-ReLU-conv-BN main path with a 1x1 conv residual, then pool."""

    conv1: ConvParams
    bn1: BatchNormParams
    conv2: ConvParams
    bn2: BatchNormParams
    residual: ConvParams  # 1x1, maps block input channels to block output


@dataclass
class StemWeights:
    blocks: list[StemBlock]
    final_conv: ConvParams  # 3x3, pad 1, emits embed_dim channels


@dataclass
class LayerNormParams:
    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class EncoderLayerWeights:
    ln_attn: LayerNormParams
    attention: AttentionParams
    ln_ffn: LayerNormParams
    ffn_in: DenseLayer  # token_dim -> ffn_hidden, GELU applied separately
    ffn_out: DenseLayer  # ffn_hidden -> token_dim


@dataclass
class HeadWeights:
    ln_in: LayerNormParams
    hidden: DenseLayer  # token_dim -> token_dim, GELU
    ln_hidden: LayerNormParams
    out: DenseLayer  # token_dim -> 1 (objectness) or 4 (box corners)


@dataclass
class VitalWeights:
    config: VitalConfig
    stems: dict  # modality name -> StemWeights
    class_token: np.ndarray  # (1, token_dim)
    positional: np.ndarray  # (token_count, token_dim)
    encoder: list[EncoderLayerWeights]
    head_objectness: HeadWeights
    head_box: HeadWeights


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Every temporary a frame frees is under 2 MB and a frame's traced peak is
# about 9.5 MiB, but a ``detect --batch`` call also loads, then frees, a 25 MB
# weight tree. Setting either parameter turns off glibc's dynamic adjustment
# of both, so both are set: blocks up to 32 MiB (glibc's cap for the mmap
# threshold on 64-bit) come from the heap, and up to 64 MiB of freed heap
# stays mapped instead of being returned and faulted in again next frame.
_MMAP_THRESHOLD_BYTES = 32 * 2**20
_TRIM_THRESHOLD_BYTES = 64 * 2**20


@functools.cache
def _pin_heap_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds for this process; False, and
    nothing set, where the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    return True


def _assemble(config: VitalConfig, rng: Optional[Rng]) -> VitalWeights:
    """The weight tree for ``config``: biases, shifts and BN means start at 0
    and scales and BN variances at 1. Convolution kernels are fan-in-scaled
    normals and every other matrix a truncated normal (std 0.02), drawn from
    ``rng`` in tree order, or left zero when ``rng`` is None. Every tensor is
    carved out of one anonymous shared mapping (``cores.shared``), so the
    standing lanes a ``detect`` forks read the tree's own memory, edits made
    in place included. Loads the GELU's ``erf`` here (``nncore.load_erf``:
    scipy's compiled ufunc extension, without the ``scipy.special``
    package), so that every process that builds or loads a detector pays
    that load during its set-up and never inside its first ``detect``.

    Also pins glibc's heap thresholds once per process
    (``_pin_heap_thresholds``): mmap threshold 32 MiB, trim threshold
    64 MiB. Without them, the temporaries a frame frees go back to the
    kernel and the next frame faults about 9k pages back in, zeroed
    (~37 MB, 16-25 ms of system time per frame). The trade-off: a detector
    process keeps up to 64 MiB of freed heap mapped until it exits. glibc
    only; where the C library has no ``mallopt`` nothing is set. Only
    detector processes churn, so other commands keep glibc's defaults."""
    load_erf()
    _pin_heap_thresholds()
    shapes = []  # a first pass lists the shapes, to size the mapping

    def shape_only(shape: tuple, fill) -> np.ndarray:
        shapes.append(shape)
        return np.broadcast_to(np.float32(0), shape)

    _build(config, rng, shape_only)
    carved = iter(cores.shared([(shape, np.float32) for shape in shapes]))

    def tensor(shape: tuple, fill) -> np.ndarray:
        out = next(carved)
        if callable(fill):
            out[...] = fill()
        elif fill:  # the mapping starts zeroed
            out.fill(fill)
        return out

    return _build(config, rng, tensor)


def _build(config: VitalConfig, rng: Optional[Rng], tensor) -> VitalWeights:
    """The weight tree for ``config``, each tensor made in tree order by
    ``tensor(shape, fill)``: ``fill`` is 0.0, 1.0 or a draw from ``rng`` (a
    function of no arguments)."""
    d = config.token_dim

    def draw(shape: tuple, std: Optional[float] = None) -> np.ndarray:
        if rng is None:
            return tensor(shape, 0.0)
        if std is None:
            return tensor(shape, lambda: rng.truncated_normal(shape, std=0.02))
        return tensor(shape, lambda: rng.normal(size=shape, std=std))

    def zeros(n: int) -> np.ndarray:
        return tensor((n,), 0.0)

    def ones(n: int) -> np.ndarray:
        return tensor((n,), 1.0)

    def conv(c_out: int, c_in: int, k: int) -> ConvParams:
        return ConvParams(draw((c_out, c_in, k, k), np.sqrt(2.0 / (c_in * k * k))), zeros(c_out))

    def bn(c: int) -> BatchNormParams:
        return BatchNormParams(gamma=ones(c), beta=zeros(c), mean=zeros(c), var=ones(c))

    def ln() -> LayerNormParams:
        return LayerNormParams(ones(d), zeros(d))

    def linear(out_dim: int, in_dim: int) -> DenseLayer:
        return DenseLayer(draw((out_dim, in_dim)), zeros(out_dim))

    stems = {}
    for modality in MODALITIES:
        blocks = []
        c_in = 1
        for c_out in config.stem_channels:
            blocks.append(
                StemBlock(
                    conv1=conv(c_out, c_in, 3),
                    bn1=bn(c_out),
                    conv2=conv(c_out, c_out, 3),
                    bn2=bn(c_out),
                    residual=conv(c_out, c_in, 1),
                )
            )
            c_in = c_out
        stems[modality] = StemWeights(blocks, conv(config.embed_dim, c_in, 3))

    class_token = draw((1, d))
    positional = draw((config.token_count, d))

    encoder = []
    for _ in range(config.encoder_layers):
        attn = AttentionParams(
            wq=draw((d, d)), wk=draw((d, d)), wv=draw((d, d)), wo=draw((d, d)),
            bq=zeros(d), bk=zeros(d), bv=zeros(d), bo=zeros(d),
        )
        encoder.append(
            EncoderLayerWeights(
                ln_attn=ln(),
                attention=attn,
                ln_ffn=ln(),
                ffn_in=linear(config.ffn_hidden, d),
                ffn_out=linear(d, config.ffn_hidden),
            )
        )

    def head(out_dim: int) -> HeadWeights:
        return HeadWeights(ln_in=ln(), hidden=linear(d, d), ln_hidden=ln(), out=linear(out_dim, d))

    return VitalWeights(
        config=config,
        stems=stems,
        class_token=class_token,
        positional=positional,
        encoder=encoder,
        head_objectness=head(1),
        head_box=head(4),
    )


def init_weights(config: VitalConfig, seed: int) -> VitalWeights:
    """Deterministic random weights for ``config`` under ``seed``."""
    return _assemble(config, Rng(seed))


def empty_weights(config: VitalConfig) -> VitalWeights:
    """The weight tree for ``config`` with its random tensors uninitialized,
    for a loader to fill in place."""
    return _assemble(config, None)


def _block_input(config: VitalConfig, k: int) -> tuple:
    """The shape stem block ``k`` reads: the plane for block 0, else block
    k - 1's pooled output."""
    side = config.image_size >> k
    return (config.stem_channels[k - 1] if k else 1, side, side)


def stem_forward(stem: StemWeights, x: np.ndarray, config: VitalConfig, start: int = 0,
                 stop: Optional[int] = None) -> np.ndarray:
    """Blocks ``start`` to ``stop - 1`` of one modality's stem on their input
    ``x``, then the final conv where ``stop`` is None. By default the whole
    stem: a plane (1, 160, 160) -> (embed_dim, 20, 20). A stem run as two
    ranges split at a block boundary gives the whole stem's bytes."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape != _block_input(config, start):
        raise ContractViolation(f"stem block {start} expects {_block_input(config, start)}")
    for block in stem.blocks[start:stop]:
        y = conv2d_forward(x, block.conv1.kernels, block.conv1.bias, padding=1)
        y = batchnorm_inference(y, block.bn1.mean, block.bn1.var, block.bn1.gamma, block.bn1.beta)
        np.maximum(y, 0.0, out=y)
        y = conv2d_forward(y, block.conv2.kernels, block.conv2.bias, padding=1)
        y = batchnorm_inference(y, block.bn2.mean, block.bn2.var, block.bn2.gamma, block.bn2.beta)
        y += conv2d_forward(x, block.residual.kernels, block.residual.bias, padding=0)
        np.maximum(y, 0.0, out=y)
        x = maxpool2_forward(y)
    if stop is not None:
        return x
    out = conv2d_forward(x, stem.final_conv.kernels, stem.final_conv.bias, padding=1)
    expected = (config.embed_dim, config.patch_side, config.patch_side)
    if out.shape != expected:
        raise ContractViolation(f"stem produced {out.shape}, expected {expected}")
    return out


def assemble_tokens(
    s_visual: np.ndarray,
    s_thermal: np.ndarray,
    s_lidar: np.ndarray,
    weights: VitalWeights,
) -> np.ndarray:
    """Concatenate stem outputs along channels, flatten to tokens, prepend
    the class token and add the positional embedding."""
    cfg = weights.config
    expected = (cfg.embed_dim, cfg.patch_side, cfg.patch_side)
    stems = (s_visual, s_thermal, s_lidar)
    for name, s in zip(MODALITIES, stems):
        if np.asarray(s).shape != expected:
            raise ContractViolation(f"{name} stem output must be {expected}")
    stacked = np.concatenate(stems, axis=0)  # (3*e_d, p, p)
    # token (r, c) -> row r*p + c, channels stay contiguous per modality
    flat = stacked.reshape(cfg.token_dim, cfg.patch_side * cfg.patch_side).T
    tokens = np.concatenate([weights.class_token, flat], axis=0)
    return (tokens + weights.positional).astype(np.float32)


@np.errstate(all="ignore")
def encoder_forward(
    tokens: np.ndarray,
    weights: VitalWeights,
    collect_attention: bool = False,
    class_only: bool = False,
    lane: cores.Lane = cores.SERIAL,
):
    """Pre-norm transformer encoder: x += MHA(LN(x)); x += FFN(LN(x)).

    With ``collect_attention`` the per-layer float64 attention maps are
    returned for probing. With ``class_only`` the last layer computes the
    class-token row alone, after checking that the stream entering it is
    finite, and that row is the result; the two do not combine.

    Run as one ``lane`` of several (``run_lanes``), the float64 residual
    stream is the array every lane shares; each lane normalizes and projects
    its rows ``lane.part(t)``, runs its attention heads over every row
    (``multihead_attention``), and carries its rows of the attention output
    through the residual add and the FFN. Every lane returns the result.
    ``collect_attention`` needs one lane.

    Beside the residual stream it holds only the running block's
    intermediates, each dropped after its last reader: the attention's
    normalized input until attention returns, its output until it is added,
    then the FFN's normalized input until the GELU returns and the GELU's
    output until ``ffn_out`` returns. Nothing of layer i-1 is alive while
    layer i runs.
    """
    cfg = weights.config
    tokens = np.asarray(tokens, dtype=np.float32)
    t = cfg.token_count
    if tokens.shape != (t, cfg.token_dim):
        raise ContractViolation(
            f"encoder expects ({cfg.token_count},{cfg.token_dim}), got {tokens.shape}"
        )
    own = lane.part(t)
    x = lane.array("x", tokens.shape)
    x[own] = tokens[own]  # the residual stream stays float64 until exit
    maps = []
    for i, layer in enumerate(weights.encoder):
        rows = None
        if class_only and i == len(weights.encoder) - 1:
            lane.barrier()  # every row of the stream is in place
            _check_finite("encoder", x)
            rows = 1
        normed = layernorm(x[own], layer.ln_attn.gamma, layer.ln_attn.beta)
        att_out = multihead_attention(normed, layer.attention, cfg.heads,
                                      return_weights=collect_attention, out_rows=rows, lane=lane)
        if collect_attention:
            att_out, att_w = att_out
            maps.append(att_w)
        del normed
        y = x[lane.part(rows or t)]
        y += att_out
        del att_out
        normed = layernorm(y, layer.ln_ffn.gamma, layer.ln_ffn.beta)
        h = gelu(dense_forward(layer.ffn_in, normed))
        del normed
        y += dense_forward(layer.ffn_out, h)
        del h
    lane.barrier()  # every row of the output is in place
    out = (x[0] if class_only else x).astype(np.float32)
    if collect_attention:
        return out, maps
    return out


def run_lanes(lanes: int, cfg: VitalConfig, body, inputs=(), *, key):
    """``cores.run`` in at most one lane per attention head, over the
    detector's shared layout: the stem outputs, the stem block output a
    two-lane frame hands from lane 0 to lane 1 (``_frame``), the encoder's
    residual stream, Q, K, V and attention context, and each lane's score
    min and max (``multihead_attention``). The cap leaves each lane at
    least 66 of the 401 token rows: OpenBLAS changes the last bits of a
    GEMM split 1-3 rows from either end."""
    t, d, count = cfg.token_count, cfg.token_dim, min(lanes, cfg.heads)
    layout = {
        "stems": (_stems_shape(cfg), np.float32),
        "handover": (_block_input(cfg, 1), np.float32),
        **{name: ((t, d), np.float64) for name in ("x", "q", "k", "v", "ctx")},
        "spans": ((count, 2), np.float64),
    }
    return cores.run(count, t, layout, body, inputs, key=key)


def _stems_shape(cfg: VitalConfig) -> tuple:
    return (len(MODALITIES), cfg.embed_dim, cfg.patch_side, cfg.patch_side)


def _frame(planes: np.ndarray, weights: VitalWeights, lane) -> np.ndarray:
    """The float32 class-token row of the encoder's output for the image
    ``planes``, as ``lane`` of its lanes. Two lanes run the stems in two
    rounds, lane 0 handing thermal's block 0 output to lane 1, so that lane
    1 runs about one block more than lane 0, not one stem fewer as whole
    stems (``lane.part(3)``, as every other lane count runs them) would.
    Then every lane checks all three stems and assembles the tokens, so
    every lane raises the same first fault, in one lane's order."""
    cfg = weights.config
    stems = lane.array("stems", _stems_shape(cfg), np.float32)
    if lane.count == 2:
        visual, thermal, lidar = (weights.stems[m] for m in MODALITIES)
        handover = lane.array("handover", _block_input(cfg, 1), np.float32)
        if lane.index == 0:
            handover[...] = stem_forward(thermal, planes[1][None], cfg, 0, 1)
            lane.barrier()  # thermal's block 0 is in place
            stems[0] = stem_forward(visual, planes[0][None], cfg)
        else:
            x = stem_forward(lidar, planes[2][None], cfg, 0, 1)
            lane.barrier()
            stems[2] = stem_forward(lidar, x, cfg, 1)
            stems[1] = stem_forward(thermal, handover, cfg, 1)
    else:
        for i in range(len(MODALITIES))[lane.part(len(MODALITIES))]:
            stems[i] = stem_forward(weights.stems[MODALITIES[i]], planes[i][None], cfg)
    lane.barrier()  # every stem is in place
    for m, s in zip(MODALITIES, stems):
        _check_finite(f"stem[{m}]", s)
    tokens = _check_finite("token assembly", assemble_tokens(*stems, weights))
    # the heads read only the class-token row of the encoder's output
    return encoder_forward(tokens, weights, class_only=True, lane=lane)


# checkpoint names of the weight-tree fields whose own names differ
_TENSOR_NAMES = {
    "stems": "stem",
    "blocks": "block",
    "final_conv": "final",
    "attention": "attn",
    "head_objectness": "head.objectness",
    "head_box": "head.box",
}


@functools.cache
def _named_fields(cls) -> tuple:
    """``cls``'s fields as (attribute, checkpoint name) pairs, in declaration
    order; none where ``cls`` is no dataclass."""
    names = [f.name for f in fields(cls)] if is_dataclass(cls) else []
    return tuple((name, _TENSOR_NAMES.get(name, name)) for name in names)


def named_tensors(node, prefix: str = "") -> dict[str, np.ndarray]:
    """Every array under ``node`` keyed by its checkpoint name, in checkpoint
    order: dataclass fields in declaration order (renamed by
    ``_TENSOR_NAMES``) joined by dots, list items as ``{prefix}{i}`` and dict
    items as ``{prefix}.{key}``. Other leaves hold no tensor. The arrays are
    the tree's own, so writing into them fills the tree. The one walk of a
    weight tree: both checkpoints and ``_lane_key``, every frame, read it."""
    out = {}
    _add_tensors(node, prefix, out)
    return out


def _add_tensors(node, name: str, out: dict) -> None:
    """``named_tensors`` of ``node`` under ``name``, added to ``out``. Not a
    closure: a recursive one holds ``out``, and its arrays, in a cycle."""
    if isinstance(node, np.ndarray):
        out[name] = node
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _add_tensors(item, f"{name}{i}", out)
    elif isinstance(node, dict):
        for key, item in node.items():
            _add_tensors(item, f"{name}.{key}", out)
    else:
        dot = f"{name}." if name else ""
        for attr, field_name in _named_fields(type(node)):
            _add_tensors(getattr(node, attr), dot + field_name, out)


def _lane_key(weights: VitalWeights):
    """What lanes forked to detect with ``weights`` must find unchanged to
    stand for the next frame (``cores.run``'s key): the mapping that holds
    every tensor, the config, and each tensor's id, shape, strides and
    dtype. An edit in place changes none of them (an array's memory cannot
    be rebound), and the lanes read it in the mapping; rebinding a field
    changes an id. The key also holds the tensors, so that no id is reused
    while it stands; they come last, so a comparison reaches them only once
    every id matched, and then compares each tensor with itself, by
    identity. None where some tensor lies outside the one mapping
    ``_assemble`` carved, since a lane would hold a private copy of it:
    ``detect`` then runs the tree in one lane."""
    tensors = list(named_tensors(weights).values())
    shared = cores.mapping(tensors)
    if shared is None:
        return None
    return (shared, weights.config, [(id(t), t.shape, t.strides, t.dtype) for t in tensors],
            tensors)


def _head_forward(head: HeadWeights, cls_row: np.ndarray) -> np.ndarray:
    x = layernorm(cls_row, head.ln_in.gamma, head.ln_in.beta)
    x = gelu(dense_forward(head.hidden, x)).astype(np.float32)
    x = layernorm(x, head.ln_hidden.gamma, head.ln_hidden.beta)
    return dense_forward(head.out, x).astype(np.float64)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, in [0, 1] for every input but NaN: each branch
    takes exp() of a value <= 0, so nothing overflows (-1000 and 1000 give 0
    and 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericFault(f"non-finite values after {name}")
    return x


def detect(img: MultimodalImage, weights: VitalWeights, lanes: Optional[int] = None) -> Detection:
    """Full forward pass to a Detection; pure in (image, weights), edits made
    to ``weights`` in place or by rebinding a field included.

    The frame runs in ``lanes`` processes, by default ``cores.cpu_share()``,
    at most one per attention head: with two, this process computes the
    visual stem and thermal's first block while lane 1 computes the lidar
    stem and thermal's later blocks (``_frame``), and each encoder
    layer splits its rows and heads between them (``encoder_forward``). The
    lanes stand for the next frame with the same tree and lane count
    (``_lane_key``); they read the tree in the shared mapping ``_assemble``
    carved it out of, so they see every edit made there in place. A tree
    with a tensor outside that mapping runs in one lane. The Detection is
    the same bytes for every lane count. Floating-point warnings are off;
    the ``_check_finite`` guards raise a NumericFault instead."""
    cfg = weights.config
    lanes = cores.cpu_share() if lanes is None else lanes
    key = _lane_key(weights) if lanes > 1 else None
    with np.errstate(all="ignore"):
        cls_row = run_lanes(lanes if key else 1, cfg, lambda lane, x: _frame(x, weights, lane),
                            (img.planes,), key=key)
        cls_row = _check_finite("encoder", cls_row)
        obj_logit = _check_finite("objectness head", _head_forward(weights.head_objectness, cls_row))
        box_logit = _check_finite("box head", _head_forward(weights.head_box, cls_row))
    objectness = float(_sigmoid(obj_logit)[0])
    raw = _sigmoid(box_logit)
    x_lo, x_hi = sorted((float(raw[0]), float(raw[2])))
    y_lo, y_hi = sorted((float(raw[1]), float(raw[3])))
    return Detection(objectness, BBox(x_lo, y_lo, x_hi, y_hi))
