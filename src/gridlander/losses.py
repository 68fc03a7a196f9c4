"""Bounding-box regression losses (IoU, GIoU, DIoU, CIoU) with analytic
gradients, and the focal loss for objectness classification.

All box math runs in float64 scalar arithmetic. Gradients are taken with
respect to the four predicted corners (x_min, y_min, x_max, y_max); the
aspect-ratio weight in the CIoU term is treated as a constant, matching the
reference definition of that loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


@dataclass(frozen=True)
class BBox:
    """Corner-format box; x_min <= x_max and y_min <= y_max."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.corners):
            raise ContractViolation("box corners must be finite")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ContractViolation(f"box corners out of order: {self.corners}")

    @property
    def corners(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def scaled(self, s: float) -> "BBox":
        return BBox(self.x_min * s, self.y_min * s, self.x_max * s, self.y_max * s)


def _intersection(a: BBox, b: BBox) -> tuple[float, float, float]:
    """(area, clamped width, clamped height) of the overlap region."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    iw_c, ih_c = max(iw, 0.0), max(ih, 0.0)
    return iw_c * ih_c, iw_c, ih_c


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union in [0, 1]; 0 when the union is empty."""
    inter, _, _ = _intersection(a, b)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _iou_with_grad(pred: BBox, truth: BBox):
    """IoU, its gradient, the union area and the union's gradient, all with
    respect to the predicted corners."""
    iw = min(pred.x_max, truth.x_max) - max(pred.x_min, truth.x_min)
    ih = min(pred.y_max, truth.y_max) - max(pred.y_min, truth.y_min)
    overlap = iw > 0.0 and ih > 0.0
    inter = iw * ih if overlap else 0.0
    union = pred.area + truth.area - inter
    val = inter / union

    # d(inter)/d(pred corners); zero whenever the overlap is empty
    d_inter = np.zeros(4)
    if overlap:
        if pred.x_min > truth.x_min:
            d_inter[0] = -ih
        if pred.y_min > truth.y_min:
            d_inter[1] = -iw
        if pred.x_max < truth.x_max:
            d_inter[2] = ih
        if pred.y_max < truth.y_max:
            d_inter[3] = iw
    d_area = np.array([-pred.height, -pred.width, pred.height, pred.width])
    d_union = d_area - d_inter
    grad = (d_inter * union - inter * d_union) / (union * union)
    return val, grad, union, d_union


def _enclosing_with_grad(pred: BBox, truth: BBox):
    """Smallest enclosing box extents and their corner gradients."""
    cw = max(pred.x_max, truth.x_max) - min(pred.x_min, truth.x_min)
    ch = max(pred.y_max, truth.y_max) - min(pred.y_min, truth.y_min)
    d_cw = np.zeros(4)
    d_ch = np.zeros(4)
    if pred.x_min < truth.x_min:
        d_cw[0] = -1.0
    if pred.x_max > truth.x_max:
        d_cw[2] = 1.0
    if pred.y_min < truth.y_min:
        d_ch[1] = -1.0
    if pred.y_max > truth.y_max:
        d_ch[3] = 1.0
    return cw, ch, d_cw, d_ch


def _check_truth(truth: BBox) -> None:
    if truth.area <= 0.0:
        raise ContractViolation("truth box must have positive area")


def giou_loss(pred: BBox, truth: BBox) -> tuple[float, np.ndarray]:
    """1 - GIoU and its gradient; GIoU = IoU - |C \\ union| / |C|."""
    _check_truth(truth)
    iou_val, d_iou, union, d_union = _iou_with_grad(pred, truth)
    cw, ch, d_cw, d_ch = _enclosing_with_grad(pred, truth)
    c_area = cw * ch
    d_c = d_cw * ch + d_ch * cw
    penalty = (c_area - union) / c_area
    d_penalty = (d_c - d_union) / c_area - (c_area - union) * d_c / (c_area * c_area)
    giou = iou_val - penalty
    return 1.0 - giou, -(d_iou - d_penalty)


def _center_distance_terms(pred: BBox, truth: BBox):
    """rho^2 / c^2 (normalized center distance) and its corner gradient."""
    px, py = pred.center
    tx, ty = truth.center
    rho2 = (px - tx) ** 2 + (py - ty) ** 2
    cw, ch, d_cw, d_ch = _enclosing_with_grad(pred, truth)
    c2 = cw * cw + ch * ch
    d_rho2 = np.array([px - tx, py - ty, px - tx, py - ty])  # d(center)/d(corner) = 1/2
    d_c2 = 2.0 * cw * d_cw + 2.0 * ch * d_ch
    term = rho2 / c2
    d_term = d_rho2 / c2 - rho2 * d_c2 / (c2 * c2)
    return term, d_term


def diou_loss(pred: BBox, truth: BBox) -> tuple[float, np.ndarray]:
    """1 - DIoU and its gradient; DIoU = IoU - rho^2 / c^2."""
    _check_truth(truth)
    iou_val, d_iou, _, _ = _iou_with_grad(pred, truth)
    dist, d_dist = _center_distance_terms(pred, truth)
    return 1.0 - (iou_val - dist), -(d_iou - d_dist)


def ciou_loss(pred: BBox, truth: BBox) -> tuple[float, np.ndarray]:
    """1 - CIoU and its gradient; CIoU adds the aspect-ratio term alpha*v.

    alpha = v / ((1 - IoU) + v) is held constant during differentiation.
    """
    _check_truth(truth)
    iou_val, d_iou, _, _ = _iou_with_grad(pred, truth)
    dist, d_dist = _center_distance_terms(pred, truth)
    wp, hp = pred.width, pred.height
    wt, ht = truth.width, truth.height
    angle = math.atan2(wt, ht) - math.atan2(wp, hp)
    v = (4.0 / math.pi**2) * angle * angle
    denom = (1.0 - iou_val) + v
    alpha = 0.0 if denom <= 0.0 else v / denom
    # dv/d(w_p), dv/d(h_p); atan2 keeps the degenerate w=h=0 case out of reach
    sq = wp * wp + hp * hp
    if sq > 0.0:
        dv_dw = -(8.0 / math.pi**2) * angle * hp / sq
        dv_dh = (8.0 / math.pi**2) * angle * wp / sq
    else:
        dv_dw = dv_dh = 0.0
    d_v = np.array([-dv_dw, -dv_dh, dv_dw, dv_dh])
    ciou = iou_val - dist - alpha * v
    grad = -(d_iou - d_dist - alpha * d_v)
    return 1.0 - ciou, grad


def focal_loss(p: float, y: int, alpha: float = 0.25, gamma: float = 2.0) -> tuple[float, float]:
    """Focal loss -alpha_t (1 - p_t)^gamma log(p_t) and d(loss)/dp.

    p is the predicted probability of the positive class, y the binary
    label. gamma = 0 recovers the alpha-weighted cross entropy.
    """
    if not 0.0 < p < 1.0:
        raise ContractViolation(f"probability must lie strictly inside (0,1), got {p}")
    if not 0.0 <= alpha <= 1.0:
        raise ContractViolation("alpha must lie in [0,1]")
    if gamma < 0.0:
        raise ContractViolation("gamma must be non-negative")
    if y not in (0, 1):
        raise ContractViolation("label must be 0 or 1")
    if y == 1:
        p_t, a_t, sign = p, alpha, 1.0
    else:
        p_t, a_t, sign = 1.0 - p, 1.0 - alpha, -1.0
    q = 1.0 - p_t
    loss = -a_t * q**gamma * math.log(p_t)
    # d(loss)/dp_t, then chain through dp_t/dp = sign
    if gamma == 0.0:
        d_pt = -a_t / p_t
    else:
        d_pt = a_t * (gamma * q ** (gamma - 1.0) * math.log(p_t) - q**gamma / p_t)
    return loss, sign * d_pt
