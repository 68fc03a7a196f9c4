"""Detector-to-agent bridge: turn a detected box plus an altimeter reading
into the grid state the landing policy consumes.

The marker's pixel offset is the geometric box center minus the image
center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .env import EnvConfig, LanderState
from .errors import ContractViolation
from .losses import BBox

@dataclass(frozen=True)
class CameraFrame:
    width: int = 160
    height: int = 160
    center: Optional[tuple[float, float]] = None
    meters_per_pixel_per_meter: float = 0.005  # pinhole small-angle scale

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ContractViolation("frame dimensions must be positive")
        if self.meters_per_pixel_per_meter <= 0:
            raise ContractViolation("pixel scale must be positive")

    @property
    def cx(self) -> float:
        return self.center[0] if self.center is not None else self.width / 2.0

    @property
    def cy(self) -> float:
        return self.center[1] if self.center is not None else self.height / 2.0


def bbox_to_offsets(bbox: BBox, frame: CameraFrame) -> tuple[float, float]:
    """Pixel offsets (du, dv) of the detected marker from the frame center."""
    du = 0.5 * (bbox.x_min + bbox.x_max) - frame.cx
    dv = 0.5 * (bbox.y_min + bbox.y_max) - frame.cy
    return du, dv


def offsets_to_state(du: float, dv: float, altitude: float, frame: CameraFrame) -> LanderState:
    """Metric state from pixel offsets under the linear pinhole scale."""
    if altitude < 0:
        raise ContractViolation("altitude must be non-negative")
    scale = frame.meters_per_pixel_per_meter * altitude
    return LanderState(du * scale, dv * scale, altitude)


def _round_half_away(v: float) -> float:
    return math.copysign(math.floor(abs(v) + 0.5), v)


def discretize(state: LanderState, config: EnvConfig) -> LanderState:
    """Snap to the nearest grid cell (half rounds away from zero), clamped
    into the configured ranges. Idempotent."""
    r = config.resolution

    def snap(v: float, lo: float, hi: float) -> float:
        cell = _round_half_away(v / r) * r
        return min(max(cell, lo), hi)

    return LanderState(
        snap(state.dx, *config.x_range),
        snap(state.dy, *config.y_range),
        snap(state.dz, *config.z_range),
    )
