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
import os
import struct
import sys
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import build_section, check_channel_order
from .dqn import EpisodeLog, QNetwork, RewardTrace
from .errors import ContractViolation
from .losses import BBox
from .vital import (
    IMAGE_SIZE,
    MODALITIES,
    MultimodalImage,
    VitalConfig,
    VitalWeights,
    empty_weights,
    named_tensors,
)

MAGIC = b"GRIDLANDER-CKPT\x00"
VERSION = 1
MODEL_KINDS = ("vital", "dqn")
_MODEL_NAMES = {"vital": "detector", "dqn": "q-network"}  # in schema errors
_CRC_CHUNK = 1 << 20  # bytes per read of the checksum pass


class FormatError(ValueError):
    """The file is not in the expected format."""


class IntegrityError(FormatError):
    """Checksum or container structure failure."""


class SchemaError(FormatError):
    """The content does not match the requested model kind."""


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
    the payload, so the header's structure is checked here: the tensors must
    lie back to back in header order and fill the payload exactly."""
    if not isinstance(header, dict):
        return "not a JSON object"
    if not isinstance(header.get("config", {}), dict):
        return "config is not an object"
    entries = header.get("tensors")
    if not isinstance(entries, list):
        return "tensors is not a list"
    names = set()
    end = 0
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            return f"tensor entry {i} has no name"
        name = entry["name"]
        if name in names:
            return f"duplicate tensor name {name!r}"
        names.add(name)
        shape, offset, length = entry.get("shape"), entry.get("offset"), entry.get("length")
        # 32 dimensions is numpy 1.x's limit for reshape
        if not (isinstance(shape, list) and len(shape) <= 32 and all(map(_is_count, shape))):
            return f"tensor {name!r} has a bad shape"
        if not (_is_count(offset) and _is_count(length) and offset + length <= payload_len):
            return f"tensor {name!r} lies outside the payload"
        if length != 4 * math.prod(shape):
            return f"tensor {name!r} length does not match its shape"
        if offset != end:
            return f"tensor {name!r} does not start where the previous one ends"
        end += length
    if end != payload_len:
        return "the tensors do not fill the payload"
    return None


def _payload_crc(fh, length: int) -> int:
    """CRC-32 of the next ``length`` bytes of ``fh``, read through one
    reused buffer of at most ``_CRC_CHUNK`` bytes."""
    buf = memoryview(bytearray(min(length, _CRC_CHUNK)))
    crc = 0
    while length:
        got = fh.readinto(buf[: min(length, len(buf))])
        if not got:
            raise IntegrityError(f"{fh.name}: truncated payload")
        crc = zlib.crc32(buf[:got], crc)
        length -= got
    return crc


def _read_checkpoint(path, kind: str, build):
    """The reader behind both checkpoint loaders. It checks the magic, the
    version, the header JSON and the payload CRC (streamed in chunks), then
    the header's structure and model kind. Only then does ``build(config)``
    run; it returns what the loader returns and the float32 arrays, by
    tensor name, that the file's tensors must match in name and shape. Each
    tensor is read straight into its array, so no buffer the size of the
    file ever exists."""
    if not os.path.isfile(path):
        raise ContractViolation(f"checkpoint not found or not a regular file: {path}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(len(MAGIC) + 8)
        if size < len(MAGIC) + 12 or lead[: len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: not a checkpoint file (bad magic)")
        version, header_len = struct.unpack_from("<II", lead, len(MAGIC))
        if version != VERSION:
            raise SchemaError(f"{path}: unsupported checkpoint version {version}")
        payload_len = size - len(lead) - header_len - 4
        if payload_len < 0:
            raise IntegrityError(f"{path}: truncated checkpoint")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IntegrityError(f"{path}: corrupt header ({exc})") from exc
        start = fh.tell()
        crc = _payload_crc(fh, payload_len)
        (stored_crc,) = struct.unpack("<I", fh.read(4))
        if crc != stored_crc:
            raise IntegrityError(f"{path}: payload checksum mismatch")
        problem = _header_problem(header, payload_len)
        if problem:
            raise IntegrityError(f"{path}: malformed header ({problem})")
        if header.get("model_kind") != kind:
            raise SchemaError(f"{path}: checkpoint holds {header.get('model_kind')!r}, expected {kind!r}")
        entries = header["tensors"]
        result, arrays = build(header.get("config", {}))
        shapes = {entry["name"]: tuple(entry["shape"]) for entry in entries}
        missing = [name for name in arrays if name not in shapes]
        if missing:
            raise SchemaError(f"missing {_MODEL_NAMES[kind]} tensor {missing[0]!r}")
        extra = [name for name in shapes if name not in arrays]
        if extra:
            raise SchemaError(f"unexpected {_MODEL_NAMES[kind]} tensor {extra[0]!r}")
        for name, arr in arrays.items():
            if shapes[name] != arr.shape:
                raise SchemaError(f"tensor {name!r} has shape {shapes[name]}, expected {arr.shape}")
        fh.seek(start)
        for entry in entries:
            arr = arrays[entry["name"]]
            if fh.readinto(arr) != entry["length"]:
                raise IntegrityError(f"{path}: truncated payload")
            if sys.byteorder == "big":  # the file holds little-endian floats
                arr.byteswap(inplace=True)
    return result


# --- weight trees <-> tensor dicts ---------------------------------------------


def qnetwork_tensors(net: QNetwork) -> dict[str, np.ndarray]:
    return named_tensors(net.layers, "layer")


def vital_tensors(weights: VitalWeights) -> dict[str, np.ndarray]:
    return named_tensors(weights)


def save_vital_checkpoint(path, weights: VitalWeights) -> None:
    save_checkpoint(path, "vital", asdict(weights.config), vital_tensors(weights))


def load_vital_checkpoint(path) -> VitalWeights:
    def empty(config):
        missing = [f.name for f in fields(VitalConfig) if f.name not in config]
        if missing:
            raise SchemaError(f"{path}: detector config lacks {missing}")
        weights = empty_weights(build_section(VitalConfig, config, "checkpoint detector config"))
        return weights, vital_tensors(weights)

    return _read_checkpoint(path, "vital", empty)


def save_dqn_checkpoint(path, net: QNetwork, config: dict) -> None:
    save_checkpoint(path, "dqn", config, qnetwork_tensors(net))


def load_dqn_checkpoint(path) -> tuple[QNetwork, dict]:
    def empty(config):
        net = QNetwork()
        return (net, config), qnetwork_tensors(net)

    return _read_checkpoint(path, "dqn", empty)


# --- PPM image I/O -----------------------------------------------------------


def write_ppm(
    path, img: MultimodalImage, channel_order: Sequence[str] = MODALITIES
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
    path, channel_order: Sequence[str] = MODALITIES
) -> MultimodalImage:
    """Read a P6 8-bit 160x160 PPM and scale to [0,1] by /255."""
    order = check_channel_order(channel_order)
    data = Path(path).read_bytes()
    fields, offset = _ppm_header_fields(path, data)
    if fields[0] != b"P6":
        raise FormatError(f"{path}: expected binary P6 PPM, got {fields[0]!r}")
    try:
        w, h, maxval = (int(v) for v in fields[1:4])
    except ValueError:
        raise FormatError(f"{path}: PPM header size fields {fields[1:4]} are not integers") from None
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
    """One dataset line: image path plus (corners in [0, 1], binary objectness)."""

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
            box = BBox(self.x_min, self.y_min, self.x_max, self.y_max)  # validity check
            if not all(0.0 <= v <= 1.0 for v in box.corners):
                raise ContractViolation(f"box corners {box.corners} are not normalized to [0, 1]")

    @property
    def truth(self) -> Optional[BBox]:
        if self.objectness == 0:
            return None
        return BBox(self.x_min, self.y_min, self.x_max, self.y_max)


LABELS_HEADER = "image,x_min,y_min,x_max,y_max,objectness"


def read_sample_records(path) -> list[SampleRecord]:
    path = Path(path)
    if not path.is_file():
        raise ContractViolation(f"{path} is not a regular file")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: {exc}") from None
    if not lines or lines[0].strip() != LABELS_HEADER:
        raise FormatError(f"{path}: expected header '{LABELS_HEADER}'")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise FormatError(f"{path}:{lineno}: expected 6 comma-separated fields")
        if not parts[0]:
            raise FormatError(f"{path}:{lineno}: empty image field")
        try:
            corners = [float(v) for v in parts[1:5]]
            objectness = int(parts[5])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric box or objectness field") from None
        try:
            records.append(SampleRecord(parts[0], *corners, objectness))
        except ContractViolation as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return records


def write_sample_records(path, records: Sequence[SampleRecord]) -> None:
    lines = [LABELS_HEADER]
    for r in records:
        lines.append(
            f"{r.image_path},{r.x_min!r},{r.y_min!r},{r.x_max!r},{r.y_max!r},{r.objectness}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
