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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import build_section, check_channel_order
from .dqn import EpisodeLog, QNetwork, RewardTrace, init_qnetwork
from .errors import ContractViolation
from .losses import BBox
from .nncore import DenseLayer
from .vital import (
    BatchNormParams,
    ConvParams,
    HeadWeights,
    IMAGE_SIZE,
    LayerNormParams,
    MODALITIES,
    MultimodalImage,
    VitalConfig,
    VitalWeights,
    empty_weights,
)

MAGIC = b"GRIDLANDER-CKPT\x00"
VERSION = 1
MODEL_KINDS = ("vital", "dqn")
DEFAULT_CHANNEL_ORDER = MODALITIES


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
    crc = zlib.crc32(payload) & 0xFFFFFFFF
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
    payload = memoryview(data)[pos:-4]
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
        # a read-only view into the file's bytes; consumers copy what they keep
        tensors[name] = np.frombuffer(payload[start : start + length], dtype="<f4").reshape(
            entry["shape"]
        )
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
    """Every detector tensor under its checkpoint name, in checkpoint order.
    The arrays are the tree's own, so writing into them fills the tree."""
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


def vital_from_tensors(config: VitalConfig, tensors: dict[str, np.ndarray]) -> VitalWeights:
    """Detector weights for ``config`` copied from checkpoint tensors."""
    weights = empty_weights(config)
    for name, arr in vital_tensors(weights).items():
        src = tensors.get(name)
        if src is None:
            raise SchemaError(f"missing detector tensor {name!r}")
        if src.shape != arr.shape:
            raise SchemaError(f"tensor {name!r} has shape {src.shape}, expected {arr.shape}")
        arr[...] = src
    return weights


def save_vital_checkpoint(path, weights: VitalWeights) -> None:
    save_checkpoint(path, "vital", asdict(weights.config), vital_tensors(weights))


def load_vital_checkpoint(path) -> VitalWeights:
    ckpt = load_checkpoint(path, expect_kind="vital")
    missing = [f.name for f in fields(VitalConfig) if f.name not in ckpt.config]
    if missing:
        raise SchemaError(f"{path}: detector config lacks {missing}")
    config = build_section(VitalConfig, ckpt.config, "checkpoint detector config")
    return vital_from_tensors(config, ckpt.tensors)


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
    order = check_channel_order(channel_order)
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
    order = check_channel_order(channel_order)
    data = Path(path).read_bytes()
    fields, offset = _ppm_header_fields(path, data)
    if fields[0] != b"P6":
        raise FormatError(f"{path}: expected binary P6 PPM, got {fields[0]!r}")
    w, h, maxval = (int(v) for v in fields[1:4])
    if maxval != 255:
        raise FormatError(f"{path}: expected 8-bit maxval 255, got {maxval}")
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
