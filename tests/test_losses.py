import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlander.errors import ContractViolation
from gridlander.losses import BBox, ciou_loss, diou_loss, focal_loss, giou_loss, iou

from helpers import fd_grad, rel_err, translated


def test_bbox_validation():
    with pytest.raises(ContractViolation):
        BBox(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ContractViolation):
        BBox(0.0, 0.0, float("nan"), 1.0)


# --- IoU ----------------------------------------------------------------------


def test_iou_identical_unit_boxes():
    b = BBox(0.0, 0.0, 1.0, 1.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) == 0.0


def test_iou_partial_overlap():
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0, abs=1e-12)


def test_iou_zero_union():
    degenerate = BBox(0.5, 0.5, 0.5, 0.5)
    assert iou(degenerate, degenerate) == 0.0


# --- GIoU / DIoU / CIoU values -------------------------------------------------


def test_losses_zero_for_identical_boxes():
    b = BBox(0.2, 0.3, 1.7, 2.9)
    for fn in (giou_loss, diou_loss, ciou_loss):
        loss, _ = fn(b, b)
        assert loss == pytest.approx(0.0, abs=1e-12)


def test_disjoint_case_closed_forms():
    pred, truth = BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)
    g_loss, _ = giou_loss(pred, truth)
    d_loss, _ = diou_loss(pred, truth)
    c_loss, _ = ciou_loss(pred, truth)
    assert (1.0 - g_loss) == pytest.approx(-7.0 / 9.0, abs=1e-9)
    assert (1.0 - d_loss) == pytest.approx(-4.0 / 9.0, abs=1e-9)
    # equal aspect ratios make the consistency term vanish: CIoU == DIoU
    assert c_loss == pytest.approx(d_loss, abs=1e-12)


def test_zero_area_truth_rejected():
    pred = BBox(0, 0, 1, 1)
    flat = BBox(0, 0, 1, 0)
    for fn in (giou_loss, diou_loss, ciou_loss):
        with pytest.raises(ContractViolation):
            fn(pred, flat)


def _random_box(rng):
    x0, y0 = rng.uniform(-3, 3, size=2)
    w, h = rng.uniform(0.2, 3, size=2)
    return BBox(x0, y0, x0 + w, y0 + h)


def _degenerate_pair(pred, truth, margin=0.02):
    """Near a min/max tie or an intersection-boundary kink."""
    for a, b in (
        (pred.x_min, truth.x_min),
        (pred.y_min, truth.y_min),
        (pred.x_max, truth.x_max),
        (pred.y_max, truth.y_max),
    ):
        if abs(a - b) < margin:
            return True
    iw = min(pred.x_max, truth.x_max) - max(pred.x_min, truth.x_min)
    ih = min(pred.y_max, truth.y_max) - max(pred.y_min, truth.y_min)
    return abs(iw) < margin or abs(ih) < margin


def test_ordering_giou_diou_below_iou_1000_pairs():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b = _random_box(rng), _random_box(rng)
        i = iou(a, b)
        g = 1.0 - giou_loss(a, b)[0]
        d = 1.0 - diou_loss(a, b)[0]
        assert g <= i + 1e-12
        assert d <= i + 1e-12


def _ciou_pieces(corners, truth):
    """Independent textbook evaluation of the CIoU ingredients."""
    x0, y0, x1, y1 = corners
    iw = max(min(x1, truth.x_max) - max(x0, truth.x_min), 0.0)
    ih = max(min(y1, truth.y_max) - max(y0, truth.y_min), 0.0)
    inter = iw * ih
    union = (x1 - x0) * (y1 - y0) + truth.area - inter
    iou_val = inter / union
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    tx, ty = truth.center
    cw = max(x1, truth.x_max) - min(x0, truth.x_min)
    ch = max(y1, truth.y_max) - min(y0, truth.y_min)
    dist = ((cx - tx) ** 2 + (cy - ty) ** 2) / (cw * cw + ch * ch)
    v = (4.0 / math.pi**2) * (
        math.atan(truth.width / truth.height) - math.atan((x1 - x0) / (y1 - y0))
    ) ** 2
    return iou_val, dist, v


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        pred, truth = _random_box(rng), _random_box(rng)
        if _degenerate_pair(pred, truth):
            continue
        corners = np.array(pred.corners, dtype=np.float64)
        for fn in (giou_loss, diou_loss):
            def loss():
                return fn(BBox(*corners), truth)[0]

            analytic = fn(BBox(*corners), truth)[1]
            numeric = fd_grad(loss, corners)
            assert rel_err(analytic, numeric, floor=1e-4).max() < 1e-4, (fn.__name__, pred, truth)

        # CIoU defines its gradient with the aspect weight frozen at the
        # evaluation point, so the reference differentiates that function.
        iou0, dist0, v0 = _ciou_pieces(corners, truth)
        alpha0 = 0.0 if (1.0 - iou0) + v0 <= 0 else v0 / ((1.0 - iou0) + v0)

        def frozen_alpha_loss():
            iou_val, dist, v = _ciou_pieces(corners, truth)
            return 1.0 - (iou_val - dist - alpha0 * v)

        c_loss, c_grad = ciou_loss(BBox(*corners), truth)
        assert c_loss == pytest.approx(1.0 - (iou0 - dist0 - alpha0 * v0), abs=1e-12)
        numeric = fd_grad(frozen_alpha_loss, corners)
        assert rel_err(c_grad, numeric, floor=1e-4).max() < 1e-4, (pred, truth)
        checked += 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_translation_invariance(seed, tx, ty):
    rng = np.random.default_rng(seed)
    a, b = _random_box(rng), _random_box(rng)
    at, bt = translated(a, tx, ty), translated(b, tx, ty)
    assert abs(iou(a, b) - iou(at, bt)) < 1e-6
    for fn in (giou_loss, diou_loss, ciou_loss):
        assert abs(fn(a, b)[0] - fn(at, bt)[0]) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.05, max_value=20, allow_nan=False),
)
def test_scale_invariance(seed, s):
    rng = np.random.default_rng(seed)
    a, b = _random_box(rng), _random_box(rng)
    as_, bs = a.scaled(s), b.scaled(s)
    assert abs(iou(a, b) - iou(as_, bs)) < 1e-6
    for fn in (giou_loss, diou_loss, ciou_loss):
        assert abs(fn(a, b)[0] - fn(as_, bs)[0]) < 1e-6


# --- focal loss ----------------------------------------------------------------


def _bce(p, y):
    return -math.log(p) if y == 1 else -math.log(1.0 - p)


def test_focal_gamma_zero_is_weighted_bce():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(2))
        loss, _ = focal_loss(p, y, alpha=0.5, gamma=0.0)
        assert abs(loss - 0.5 * _bce(p, y)) < 1e-9


def test_focal_direct_value():
    loss, _ = focal_loss(0.5, 1, alpha=0.25, gamma=2.0)
    assert loss == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-9)
    assert loss == pytest.approx(0.043321698784996581, abs=1e-6)


def test_focal_gradient_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = float(rng.uniform(0.05, 0.95))
        y = int(rng.integers(2))
        gamma = float(rng.uniform(0.0, 4.0))
        alpha = float(rng.uniform(0.0, 1.0))
        _, grad = focal_loss(p, y, alpha, gamma)
        h = 1e-6
        hi, _ = focal_loss(p + h, y, alpha, gamma)
        lo, _ = focal_loss(p - h, y, alpha, gamma)
        numeric = (hi - lo) / (2 * h)
        assert abs(grad - numeric) < 1e-6 * max(1.0, abs(numeric)), (p, y, gamma, alpha)


def test_focal_nonnegative_decreasing_vanishing():
    ps = np.linspace(0.05, 0.999, 200)
    losses = [focal_loss(float(p), 1, 0.25, 2.0)[0] for p in ps]
    assert min(losses) >= 0.0
    assert all(a > b for a, b in zip(losses, losses[1:]))  # decreasing in p_t
    assert losses[-1] < 1e-5  # -> 0 as p_t -> 1


def test_focal_contract_violations():
    with pytest.raises(ContractViolation):
        focal_loss(0.0, 1)
    with pytest.raises(ContractViolation):
        focal_loss(1.0, 0)
    with pytest.raises(ContractViolation):
        focal_loss(0.5, 1, alpha=1.5)
    with pytest.raises(ContractViolation):
        focal_loss(0.5, 1, gamma=-1.0)
    with pytest.raises(ContractViolation):
        focal_loss(0.5, 2)
