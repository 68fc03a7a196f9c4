"""File formats: binary weight checkpoints, PPM image I/O, CSV traces,
dataset label records, and metric reports.

All writers are deterministic: the same inputs produce byte-identical
files. The checkpoint container stores raw little-endian float32 tensor
payloads guarded by a CRC-32, so round-trips preserve every bit pattern.
Byte-level layout lives in FORMATS.md.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dqn import EpisodeLog, QNetwork, RewardTrace, init_qnetwork
from .errors import ContractViolation
from .losses import BBox
from .nncore import AttentionParams, DenseLayer
from .vital import (
    BatchNormParams,
    ConvParams,
    EncoderLayerWeights,
    HeadWeights,
    LayerNormParams,
    MODALITIES,
    MultimodalImage,
    StemBlock,
    StemWeights,
    VitalConfig,
    VitalWeights,
)

MAGIC = b"GRIDLANDER-CKPT\x00"
VERSION = 1
MODEL_KINDS = ("vital", "dqn")
DEFAULT_CHANNEL_ORDER = ("visual", "thermal", "lidar")


class FormatError(ValueError):
    """The file is not in the expected format."""


class IntegrityError(FormatError):
    """Checksum or container structure failure."""


class SchemaError(FormatError):
    """The content does not match the requested model kind."""


@dataclass
class Checkpoint:
    model_kind: str
    config: dict
    tensors: dict[str, np.ndarray]


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(
    path, model_kind: str, config: dict, tensors: dict[str, np.ndarray]
) -> None:
    if model_kind not in MODEL_KINDS:
        raise ContractViolation(f"model_kind must be one of {MODEL_KINDS}")
    entries = []
    payload = bytearray()
    for name, tensor in tensors.items():
        arr = np.ascontiguousarray(tensor, dtype=np.float32)
        raw = arr.astype("<f4", copy=False).tobytes()
        entries.append(
            {"name": name, "shape": list(arr.shape), "offset": len(payload), "length": len(raw)}
        )
        payload.extend(raw)
    header = _canonical_json(
        {"model_kind": model_kind, "config": config, "tensors": entries}
    )
    crc = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", crc))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _header_problem(header, payload_len: int) -> Optional[str]:
    """What makes a decoded header unusable, or None. The CRC covers only
    the payload, so the header's structure is checked here."""
    if not isinstance(header, dict):
        return "not a JSON object"
    if not isinstance(header.get("config", {}), dict):
        return "config is not an object"
    entries = header.get("tensors")
    if not isinstance(entries, list):
        return "tensors is not a list"
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            return f"tensor entry {i} has no name"
        shape, offset, length = entry.get("shape"), entry.get("offset"), entry.get("length")
        # 32 dimensions is numpy 1.x's limit for reshape
        if not (isinstance(shape, list) and len(shape) <= 32 and all(map(_is_count, shape))):
            return f"tensor {entry['name']!r} has a bad shape"
        if not (_is_count(offset) and _is_count(length) and offset + length <= payload_len):
            return f"tensor {entry['name']!r} lies outside the payload"
        if length != 4 * math.prod(shape):
            return f"tensor {entry['name']!r} length does not match its shape"
    return None


def load_checkpoint(path, expect_kind: Optional[str] = None) -> Checkpoint:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 12 or data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", data, pos)
    if version != VERSION:
        raise SchemaError(f"{path}: unsupported checkpoint version {version}")
    pos += 4
    (header_len,) = struct.unpack_from("<I", data, pos)
    pos += 4
    try:
        header = json.loads(data[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: corrupt header ({exc})") from exc
    pos += header_len
    payload = data[pos:-4]
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
        raise IntegrityError(f"{path}: payload checksum mismatch")
    problem = _header_problem(header, len(payload))
    if problem:
        raise IntegrityError(f"{path}: malformed header ({problem})")
    kind = header.get("model_kind")
    if kind not in MODEL_KINDS:
        raise SchemaError(f"{path}: unknown model kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise SchemaError(f"{path}: checkpoint holds {kind!r}, expected {expect_kind!r}")
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        name = entry["name"]
        if name in tensors:
            raise IntegrityError(f"{path}: duplicate tensor name {name!r}")
        start, length = entry["offset"], entry["length"]
        raw = payload[start : start + length]
        arr = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"]).astype(np.float32)
        tensors[name] = arr
    return Checkpoint(kind, header.get("config", {}), tensors)


# --- DQN network <-> tensor dict -------------------------------------------


def qnetwork_tensors(net: QNetwork) -> dict[str, np.ndarray]:
    out = {}
    for i, layer in enumerate(net.layers):
        out[f"layer{i}.weights"] = layer.weights
        out[f"layer{i}.bias"] = layer.bias
    return out


def qnetwork_from_tensors(tensors: dict[str, np.ndarray]) -> QNetwork:
    template = init_qnetwork(0)
    layers = []
    for i, ref in enumerate(template.layers):
        try:
            w = tensors[f"layer{i}.weights"]
            b = tensors[f"layer{i}.bias"]
        except KeyError as exc:
            raise SchemaError(f"missing q-network tensor {exc}") from exc
        if w.shape != ref.weights.shape or b.shape != ref.bias.shape:
            raise SchemaError(
                f"layer{i} shape {w.shape}/{b.shape} does not match the q-network layout"
            )
        layers.append(DenseLayer(w, b, ref.activation))  # QNetwork copies into its vector
    return QNetwork(layers)


# --- detector weights <-> tensor dict ------------------------------------------


def _conv_entries(prefix: str, conv: ConvParams) -> list[tuple[str, np.ndarray]]:
    return [(f"{prefix}.kernels", conv.kernels), (f"{prefix}.bias", conv.bias)]


def _bn_entries(prefix: str, bn: BatchNormParams) -> list[tuple[str, np.ndarray]]:
    return [
        (f"{prefix}.gamma", bn.gamma),
        (f"{prefix}.beta", bn.beta),
        (f"{prefix}.mean", bn.mean),
        (f"{prefix}.var", bn.var),
    ]


def _ln_entries(prefix: str, ln: LayerNormParams) -> list[tuple[str, np.ndarray]]:
    return [(f"{prefix}.gamma", ln.gamma), (f"{prefix}.beta", ln.beta)]


def _dense_entries(prefix: str, layer: DenseLayer) -> list[tuple[str, np.ndarray]]:
    return [(f"{prefix}.weights", layer.weights), (f"{prefix}.bias", layer.bias)]


def _head_entries(prefix: str, head: HeadWeights) -> list[tuple[str, np.ndarray]]:
    out = _ln_entries(f"{prefix}.ln_in", head.ln_in)
    out += _dense_entries(f"{prefix}.hidden", head.hidden)
    out += _ln_entries(f"{prefix}.ln_hidden", head.ln_hidden)
    out += _dense_entries(f"{prefix}.out", head.out)
    return out


def vital_tensors(weights: VitalWeights) -> dict[str, np.ndarray]:
    entries: list[tuple[str, np.ndarray]] = []
    for modality in MODALITIES:
        stem = weights.stems[modality]
        for b, block in enumerate(stem.blocks):
            p = f"stem.{modality}.block{b}"
            entries += _conv_entries(f"{p}.conv1", block.conv1)
            entries += _bn_entries(f"{p}.bn1", block.bn1)
            entries += _conv_entries(f"{p}.conv2", block.conv2)
            entries += _bn_entries(f"{p}.bn2", block.bn2)
            entries += _conv_entries(f"{p}.residual", block.residual)
        entries += _conv_entries(f"stem.{modality}.final", stem.final_conv)
    entries.append(("class_token", weights.class_token))
    entries.append(("positional", weights.positional))
    for i, layer in enumerate(weights.encoder):
        p = f"encoder{i}"
        entries += _ln_entries(f"{p}.ln_attn", layer.ln_attn)
        a = layer.attention
        entries += [
            (f"{p}.attn.wq", a.wq), (f"{p}.attn.wk", a.wk),
            (f"{p}.attn.wv", a.wv), (f"{p}.attn.wo", a.wo),
            (f"{p}.attn.bq", a.bq), (f"{p}.attn.bk", a.bk),
            (f"{p}.attn.bv", a.bv), (f"{p}.attn.bo", a.bo),
        ]
        entries += _ln_entries(f"{p}.ln_ffn", layer.ln_ffn)
        entries += _dense_entries(f"{p}.ffn_in", layer.ffn_in)
        entries += _dense_entries(f"{p}.ffn_out", layer.ffn_out)
    entries += _head_entries("head.objectness", weights.head_objectness)
    entries += _head_entries("head.box", weights.head_box)
    return dict(entries)


def vital_config_dict(config: VitalConfig) -> dict:
    return {
        "embed_dim": config.embed_dim,
        "patch_side": config.patch_side,
        "encoder_layers": config.encoder_layers,
        "ffn_hidden": config.ffn_hidden,
        "heads": config.heads,
        "dropout": config.dropout,
        "image_size": config.image_size,
        "stem_channels": list(config.stem_channels),
    }


def vital_config_from_dict(d: dict) -> VitalConfig:
    cfg = VitalConfig(
        embed_dim=int(d["embed_dim"]),
        patch_side=int(d["patch_side"]),
        encoder_layers=int(d["encoder_layers"]),
        ffn_hidden=int(d["ffn_hidden"]),
        heads=int(d["heads"]),
        dropout=float(d["dropout"]),
        image_size=int(d["image_size"]),
        stem_channels=tuple(int(c) for c in d["stem_channels"]),
    )
    cfg.validate()
    return cfg


def vital_from_tensors(config: VitalConfig, tensors: dict[str, np.ndarray]) -> VitalWeights:
    def get(name: str, shape: tuple) -> np.ndarray:
        try:
            arr = tensors[name]
        except KeyError:
            raise SchemaError(f"missing detector tensor {name!r}")
        if arr.shape != shape:
            raise SchemaError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
        return arr.copy()

    d = config.token_dim

    def conv(prefix: str, c_out: int, c_in: int, k: int) -> ConvParams:
        return ConvParams(
            get(f"{prefix}.kernels", (c_out, c_in, k, k)), get(f"{prefix}.bias", (c_out,))
        )

    def bn(prefix: str, c: int) -> BatchNormParams:
        return BatchNormParams(
            get(f"{prefix}.gamma", (c,)),
            get(f"{prefix}.beta", (c,)),
            get(f"{prefix}.mean", (c,)),
            get(f"{prefix}.var", (c,)),
        )

    def ln(prefix: str, dim: int) -> LayerNormParams:
        return LayerNormParams(get(f"{prefix}.gamma", (dim,)), get(f"{prefix}.beta", (dim,)))

    def dense(prefix: str, out_dim: int, in_dim: int, act) -> DenseLayer:
        return DenseLayer(
            get(f"{prefix}.weights", (out_dim, in_dim)), get(f"{prefix}.bias", (out_dim,)), act
        )

    from .nncore import Activation

    stems = {}
    for modality in MODALITIES:
        blocks = []
        c_in = 1
        for b, c_out in enumerate(config.stem_channels):
            p = f"stem.{modality}.block{b}"
            blocks.append(
                StemBlock(
                    conv1=conv(f"{p}.conv1", c_out, c_in, 3),
                    bn1=bn(f"{p}.bn1", c_out),
                    conv2=conv(f"{p}.conv2", c_out, c_out, 3),
                    bn2=bn(f"{p}.bn2", c_out),
                    residual=conv(f"{p}.residual", c_out, c_in, 1),
                )
            )
            c_in = c_out
        stems[modality] = StemWeights(blocks, conv(f"stem.{modality}.final", config.embed_dim, c_in, 3))

    encoder = []
    for i in range(config.encoder_layers):
        p = f"encoder{i}"
        encoder.append(
            EncoderLayerWeights(
                ln_attn=ln(f"{p}.ln_attn", d),
                attention=AttentionParams(
                    wq=get(f"{p}.attn.wq", (d, d)),
                    wk=get(f"{p}.attn.wk", (d, d)),
                    wv=get(f"{p}.attn.wv", (d, d)),
                    wo=get(f"{p}.attn.wo", (d, d)),
                    bq=get(f"{p}.attn.bq", (d,)),
                    bk=get(f"{p}.attn.bk", (d,)),
                    bv=get(f"{p}.attn.bv", (d,)),
                    bo=get(f"{p}.attn.bo", (d,)),
                ),
                ln_ffn=ln(f"{p}.ln_ffn", d),
                ffn_in=dense(f"{p}.ffn_in", config.ffn_hidden, d, Activation.IDENTITY),
                ffn_out=dense(f"{p}.ffn_out", d, config.ffn_hidden, Activation.IDENTITY),
            )
        )

    def head(prefix: str, out_dim: int) -> HeadWeights:
        return HeadWeights(
            ln_in=ln(f"{prefix}.ln_in", d),
            hidden=dense(f"{prefix}.hidden", d, d, Activation.IDENTITY),
            ln_hidden=ln(f"{prefix}.ln_hidden", d),
            out=dense(f"{prefix}.out", out_dim, d, Activation.IDENTITY),
        )

    return VitalWeights(
        config=config,
        stems=stems,
        class_token=get("class_token", (1, d)),
        positional=get("positional", (config.token_count, d)),
        encoder=encoder,
        head_objectness=head("head.objectness", 1),
        head_box=head("head.box", 4),
    )


def save_vital_checkpoint(path, weights: VitalWeights) -> None:
    save_checkpoint(path, "vital", vital_config_dict(weights.config), vital_tensors(weights))


def load_vital_checkpoint(path) -> VitalWeights:
    ckpt = load_checkpoint(path, expect_kind="vital")
    return vital_from_tensors(vital_config_from_dict(ckpt.config), ckpt.tensors)


def save_dqn_checkpoint(path, net: QNetwork, config: dict) -> None:
    save_checkpoint(path, "dqn", config, qnetwork_tensors(net))


def load_dqn_checkpoint(path) -> tuple[QNetwork, dict]:
    ckpt = load_checkpoint(path, expect_kind="dqn")
    return qnetwork_from_tensors(ckpt.tensors), ckpt.config


# --- PPM image I/O -----------------------------------------------------------


def write_ppm(
    path, img: MultimodalImage, channel_order: Sequence[str] = DEFAULT_CHANNEL_ORDER
) -> None:
    """P6 8-bit PPM; file channels R,G,B hold the named modalities in order.

    Quantization rounds half up: byte = floor(value * 255 + 0.5).
    """
    order = _check_channel_order(channel_order)
    planes = [img.planes[MODALITIES.index(m)] for m in order]
    raw = np.stack(planes, axis=-1)  # (H, W, 3) in file channel order
    bytes_img = np.floor(raw.astype(np.float64) * 255.0 + 0.5).clip(0, 255).astype(np.uint8)
    h, w = raw.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(bytes_img.tobytes())


def read_ppm(
    path, channel_order: Sequence[str] = DEFAULT_CHANNEL_ORDER
) -> MultimodalImage:
    """Read a P6 8-bit 160x160 PPM and scale to [0,1] by /255."""
    order = _check_channel_order(channel_order)
    data = Path(path).read_bytes()
    fields, offset = _ppm_header_fields(path, data)
    if fields[0] != b"P6":
        raise FormatError(f"{path}: expected binary P6 PPM, got {fields[0]!r}")
    w, h, maxval = (int(v) for v in fields[1:4])
    if maxval != 255:
        raise FormatError(f"{path}: expected 8-bit maxval 255, got {maxval}")
    from .vital import IMAGE_SIZE

    if (w, h) != (IMAGE_SIZE, IMAGE_SIZE):
        raise FormatError(f"{path}: expected {IMAGE_SIZE}x{IMAGE_SIZE}, got {w}x{h}")
    pixels = data[offset : offset + w * h * 3]
    if len(pixels) != w * h * 3:
        raise FormatError(f"{path}: truncated pixel data")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).astype(np.float32) / 255.0
    planes = np.zeros((3, h, w), dtype=np.float32)
    for file_idx, modality in enumerate(order):
        planes[MODALITIES.index(modality)] = arr[:, :, file_idx]
    return MultimodalImage(planes)


def _check_channel_order(order: Sequence[str]) -> tuple[str, ...]:
    order = tuple(order)
    if sorted(order) != sorted(MODALITIES):
        raise ContractViolation(
            f"channel order must be a permutation of {MODALITIES}, got {order}"
        )
    return order


def _ppm_header_fields(path, data: bytes) -> tuple[list[bytes], int]:
    """Magic, width, height, maxval tokens; comments skipped."""
    fields: list[bytes] = []
    i = 0
    while len(fields) < 4 and i < len(data):
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            break
        fields.append(data[start:i])
    if len(fields) < 4:
        raise FormatError(f"{path}: malformed PPM header")
    return fields, i + 1  # single whitespace after maxval


# --- dataset label records ---------------------------------------------------


@dataclass(frozen=True)
class SampleRecord:
    """One dataset line: image path plus (corners, binary objectness)."""

    image_path: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    objectness: int

    def __post_init__(self) -> None:
        if self.objectness not in (0, 1):
            raise ContractViolation("label objectness must be 0 or 1")
        if self.objectness == 1:
            BBox(self.x_min, self.y_min, self.x_max, self.y_max)  # validity check

    @property
    def truth(self) -> Optional[BBox]:
        if self.objectness == 0:
            return None
        return BBox(self.x_min, self.y_min, self.x_max, self.y_max)


LABELS_HEADER = "image,x_min,y_min,x_max,y_max,objectness"


def read_sample_records(path) -> list[SampleRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != LABELS_HEADER:
        raise FormatError(f"{path}: expected header '{LABELS_HEADER}'")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise FormatError(f"{path}:{lineno}: expected 6 comma-separated fields")
        records.append(
            SampleRecord(
                parts[0],
                float(parts[1]),
                float(parts[2]),
                float(parts[3]),
                float(parts[4]),
                int(parts[5]),
            )
        )
    return records


def write_sample_records(path, records: Sequence[SampleRecord]) -> None:
    lines = [LABELS_HEADER]
    for r in records:
        lines.append(
            f"{r.image_path},{r.x_min!r},{r.y_min!r},{r.x_max!r},{r.y_max!r},{r.objectness}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


# --- traces and reports ------------------------------------------------------

EPISODE_TRACE_HEADER = "step,dx,dy,dz,action,reward,terminal"
REWARD_TRACE_HEADER = "episode,return,moving_avg,epsilon"


def write_episode_trace(path, log: EpisodeLog) -> None:
    """Per-step CSV of one episode; floats use shortest round-trip repr."""
    lines = [EPISODE_TRACE_HEADER]
    for step in log.steps:
        s = step.state
        lines.append(
            f"{step.index},{float(s.dx)!r},{float(s.dy)!r},{float(s.dz)!r},"
            f"{step.action.name.lower()},{float(step.reward)!r},{step.terminal.value}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_reward_trace(path, trace: RewardTrace) -> None:
    lines = [REWARD_TRACE_HEADER]
    moving = trace.moving_average()
    for i, (ret, avg, eps) in enumerate(zip(trace.returns, moving, trace.epsilons), start=1):
        lines.append(f"{i},{float(ret)!r},{float(avg)!r},{float(eps)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_metrics_json(path, report: dict) -> None:
    Path(path).write_bytes(_canonical_json(report) + b"\n")
