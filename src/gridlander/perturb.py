"""Seeded perturbations: sensor-failure and weather conditions for testing
the detector, plus the training-time flip / noise augmentations.

Every transform preserves the (3, 160, 160) shape and the [0, 1] value
range, and is a pure function of (input, parameters, seed). The fog model
(smoothed per-pixel white blend) is a synthetic stand-in; real fog physics
is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ContractViolation
from .losses import BBox
from .rng import Rng
from .vital import MODALITIES, MultimodalImage

_MODALITY_INDEX = {name: i for i, name in enumerate(MODALITIES)}


def disable_modalities(img: MultimodalImage, which: Iterable[str]) -> MultimodalImage:
    """Zero the selected planes; the others are copied bit-identically."""
    selected = set(which)
    unknown = selected - set(MODALITIES)
    if unknown:
        raise ContractViolation(f"unknown modalities: {sorted(unknown)}")
    planes = img.planes.copy()
    for name in selected:
        planes[_MODALITY_INDEX[name]] = 0.0
    return MultimodalImage(planes)


def brightness(img: MultimodalImage, delta: float, all_channels: bool = False) -> MultimodalImage:
    """Scale intensity by (1 + delta), clamped to [0, 1].

    Lighting changes act on the visual plane by default; ``all_channels``
    extends the scaling to thermal and lidar.
    """
    if not -1.0 <= delta <= 1.0:
        raise ContractViolation("brightness delta must lie in [-1,1]")
    planes = img.planes.copy()
    targets = range(3) if all_channels else (_MODALITY_INDEX["visual"],)
    for i in targets:
        planes[i] = np.clip(planes[i] * np.float32(1.0 + delta), 0.0, 1.0)
    return MultimodalImage(planes)


def _box_blur5(f: np.ndarray) -> np.ndarray:
    """5x5 box blur with edge replication."""
    padded = np.pad(f, 2, mode="edge")
    out = np.zeros_like(f)
    for du in range(5):
        for dv in range(5):
            out += padded[du : du + f.shape[0], dv : dv + f.shape[1]]
    return out / 25.0


def fog(img: MultimodalImage, low: float, high: float, seed: int) -> MultimodalImage:
    """Blend every channel toward white with a smoothed random fog field.

    Per-pixel fog intensity is Uniform[low, high], box-blurred 5x5, and
    shared across the three channels: x' = (1 - f) * x + f.
    """
    if not 0.0 <= low <= high <= 1.0:
        raise ContractViolation("fog fractions must satisfy 0 <= low <= high <= 1")
    rng = Rng(seed)
    h, w = img.planes.shape[1:]
    f = _box_blur5(rng.uniform(low, high, size=(h, w)))
    blended = (1.0 - f)[None, :, :] * img.planes.astype(np.float64) + f[None, :, :]
    return MultimodalImage(np.clip(blended, 0.0, 1.0).astype(np.float32))


def salt_pepper(img: MultimodalImage, prob: float, seed: int) -> MultimodalImage:
    """Independently drive each pixel to 0 or 1 (equal odds) with ``prob``."""
    if not 0.0 <= prob <= 1.0:
        raise ContractViolation("salt-and-pepper probability must lie in [0,1]")
    rng = Rng(seed)
    planes = img.planes.copy()
    corrupt = rng.uniform(size=planes.shape) < prob
    salt = rng.uniform(size=planes.shape) < 0.5
    planes[corrupt & salt] = 1.0
    planes[corrupt & ~salt] = 0.0
    return MultimodalImage(planes)


def flip_h(
    img: MultimodalImage, bbox: Optional[BBox] = None
) -> tuple[MultimodalImage, Optional[BBox]]:
    """Mirror left-right; a normalized box has its x corners remapped.

    Pixel mirroring is always bit-exact. The box map 1 - x is bit-exactly
    involutive for coordinates on a dyadic grid (multiples of 2^-k, finer
    than the 160-pixel grid); other values round-trip to within 1 ulp.
    """
    out = MultimodalImage(img.planes[:, :, ::-1].copy())
    if bbox is None:
        return out, None
    return out, BBox(1.0 - bbox.x_max, bbox.y_min, 1.0 - bbox.x_min, bbox.y_max)


def flip_v(
    img: MultimodalImage, bbox: Optional[BBox] = None
) -> tuple[MultimodalImage, Optional[BBox]]:
    """Mirror top-bottom; a normalized box has its y corners remapped."""
    out = MultimodalImage(img.planes[:, ::-1, :].copy())
    if bbox is None:
        return out, None
    return out, BBox(bbox.x_min, 1.0 - bbox.y_max, bbox.x_max, 1.0 - bbox.y_min)


@dataclass(frozen=True)
class Perturbation:
    """One parsed perturbation directive, applicable to image + label."""

    kind: str
    modalities: tuple[str, ...] = ()
    delta: float = 0.0
    low: float = 0.0
    high: float = 0.0
    prob: float = 0.0
    seed: int = 0

    def params(self) -> dict:
        if self.kind == "disable":
            return {"kind": self.kind, "modalities": list(self.modalities)}
        if self.kind == "brightness":
            return {"kind": self.kind, "delta": self.delta}
        if self.kind == "fog":
            return {"kind": self.kind, "low": self.low, "high": self.high, "seed": self.seed}
        if self.kind == "salt_pepper":
            return {"kind": self.kind, "prob": self.prob, "seed": self.seed}
        return {"kind": self.kind}


_KINDS = ("disable", "brightness", "fog", "salt_pepper", "flip_h", "flip_v")


def _number(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ContractViolation(f"{name}= expects a number, got {text!r}") from None


def parse_perturbation(spec: str, seed: int = 0) -> Perturbation:
    """Parse a CLI directive like ``disable=lidar,thermal`` or ``fog=0.1,0.5``."""
    name, _, arg = spec.partition("=")
    name = name.strip()
    if name not in _KINDS:
        raise ContractViolation(f"unknown perturbation {name!r}; expected one of {_KINDS}")
    if name == "disable":
        mods = tuple(m.strip() for m in arg.split(",") if m.strip())
        if not mods:
            raise ContractViolation("disable= needs at least one modality")
        return Perturbation("disable", modalities=mods, seed=seed)
    if name == "brightness":
        return Perturbation("brightness", delta=_number(name, arg), seed=seed)
    if name == "fog":
        parts = [_number(name, v) for v in arg.split(",")]
        if len(parts) != 2:
            raise ContractViolation("fog= expects low,high")
        return Perturbation("fog", low=parts[0], high=parts[1], seed=seed)
    if name == "salt_pepper":
        return Perturbation("salt_pepper", prob=_number(name, arg), seed=seed)
    if arg:
        raise ContractViolation(f"{name} takes no argument")
    return Perturbation(name, seed=seed)


def apply_perturbation(
    pert: Perturbation, img: MultimodalImage, bbox: Optional[BBox] = None
) -> tuple[MultimodalImage, Optional[BBox]]:
    """Apply one directive; flips remap the label box, others leave it."""
    if pert.kind == "disable":
        return disable_modalities(img, pert.modalities), bbox
    if pert.kind == "brightness":
        return brightness(img, pert.delta), bbox
    if pert.kind == "fog":
        return fog(img, pert.low, pert.high, pert.seed), bbox
    if pert.kind == "salt_pepper":
        return salt_pepper(img, pert.prob, pert.seed), bbox
    if pert.kind == "flip_h":
        return flip_h(img, bbox)
    if pert.kind == "flip_v":
        return flip_v(img, bbox)
    raise ContractViolation(f"unknown perturbation kind {pert.kind!r}")


def apply_all(
    perts: Iterable[Perturbation], img: MultimodalImage, bbox: Optional[BBox] = None
) -> tuple[MultimodalImage, Optional[BBox]]:
    for p in perts:
        img, bbox = apply_perturbation(p, img, bbox)
    return img, bbox
