import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridlander import metrics
from gridlander.losses import BBox, iou
from gridlander.metrics import (
    AP_RANGE_THRESHOLDS,
    Counts,
    EvalSample,
    acc,
    acc_box,
    acc_obj,
    ap_range,
    average_precision,
    classification_counts,
    f1_score,
    format_metrics_table,
    metrics_report,
    precision,
    recall,
)

UNIT = BBox(0.0, 0.0, 1.0, 1.0)


def sample(score, iou_with_truth=None):
    """One evaluation sample; the prediction is a sub-box of the unit truth
    whose IoU is exactly ``iou_with_truth`` (None = no ground truth)."""
    if iou_with_truth is None:
        return EvalSample(score, BBox(0.0, 0.0, 0.5, 0.5), None)
    return EvalSample(score, BBox(0.0, 0.0, 1.0, iou_with_truth), UNIT)


# --- classification counts -----------------------------------------------------


def test_counts_all_correct_positives():
    samples = [sample(0.9, 1.0), sample(0.8, 0.9)]
    c = classification_counts(samples)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 0, 0)


def test_counts_single_miss():
    c = classification_counts([sample(0.4, 0.8)])
    assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 0, 1)


def test_counts_threshold_is_inclusive():
    c = classification_counts([sample(0.5, 0.8)], threshold=0.5)
    assert c.tp == 1


def test_counts_mixed_20_samples_hand_counted():
    rng = np.random.default_rng(11)
    samples = []
    expected = [0, 0, 0, 0]  # tp, fp, tn, fn
    for _ in range(20):
        positive_truth = bool(rng.integers(2))
        score = float(rng.uniform(0, 1))
        predicted = score >= 0.5
        if positive_truth:
            samples.append(sample(score, 0.8))
            expected[0 if predicted else 3] += 1
        else:
            samples.append(sample(score, None))
            expected[1 if predicted else 2] += 1
    c = classification_counts(samples)
    assert [c.tp, c.fp, c.tn, c.fn] == expected


# --- accuracy family -----------------------------------------------------------


def test_acc_obj_perfect_classifier():
    for alpha in (0.0, 0.3, 0.85, 1.0):
        assert acc_obj(Counts(5, 0, 7, 0), alpha) == 1.0


def test_acc_obj_alpha_one_is_recall():
    c = Counts(6, 3, 2, 4)
    assert acc_obj(c, alpha=1.0) == pytest.approx(recall(c))


def test_acc_obj_direct_value():
    assert acc_obj(Counts(tp=8, fp=1, tn=1, fn=2), alpha=0.85) == pytest.approx(0.755, abs=1e-12)


def test_acc_obj_degenerate_denominators():
    # no positives at all: the recall term scores 1 only when negatives
    # are also absent
    assert acc_obj(Counts(0, 0, 0, 0), alpha=0.85) == 1.0
    assert acc_obj(Counts(0, 0, 5, 0), alpha=0.85) == pytest.approx(0.15)
    assert acc_obj(Counts(5, 0, 0, 0), alpha=0.85) == pytest.approx(0.85)


def test_acc_box_all_perfect():
    samples = [sample(0.9, 1.0), sample(0.2, 1.0)]
    assert acc_box(samples) == pytest.approx(1.0)


def test_acc_box_mean_value():
    samples = [sample(0.9, 1.0), sample(0.8, 1.0 / 7.0), sample(0.7, None)]
    # the no-truth sample does not contribute; mean of {1, 1/7}
    assert acc_box(samples) == pytest.approx((1.0 + 1.0 / 7.0) / 2.0)


def test_acc_box_three_known_ious():
    samples = [sample(0.9, 1.0), sample(0.8, 1.0 / 7.0), sample(0.7, 1e-12)]
    assert acc_box(samples) == pytest.approx(8.0 / 21.0, abs=1e-9)


def test_acc_box_empty_positive_set():
    assert acc_box([sample(0.9, None)]) == 0.0


def test_acc_weighted_sum():
    assert acc(0.6, 0.8, w_acc=0.0) == pytest.approx(0.8)
    assert acc(0.6, 0.8, w_acc=1.0) == pytest.approx(0.6)
    assert acc(0.6, 0.8, w_acc=0.5) == pytest.approx(0.7)


# --- average precision -----------------------------------------------------------


def test_ap_single_perfect_sample():
    s = [sample(0.9, 1.0)]
    for thr in (0.5, 0.75, 0.95):
        assert average_precision(s, thr) == pytest.approx(1.0)


def test_ap_no_true_positive():
    s = [sample(0.9, 0.3)]
    assert average_precision(s, 0.5) == 0.0


FIVE_SAMPLES = [
    sample(0.95, 0.8),
    sample(0.90, 0.3),
    sample(0.80, None),
    sample(0.60, 0.6),
    sample(0.30, 0.55),
]

# Hand enumeration of the ranked PR curve at IoU threshold 0.5:
#   rank   hit?   TP  FP   precision  recall (4 positives)
#   0.95   yes    1   0    1          0.25
#   0.90   no     1   1    1/2        0.25
#   0.80   no     1   2    1/3        0.25
#   0.60   yes    2   2    1/2        0.50
#   0.30   yes    3   2    3/5        0.75
# interpolated precision: 1.0 for r <= 0.25, 0.6 for 0.25 < r <= 0.75, 0 above;
# 101-point mean = (26 * 1.0 + 50 * 0.6 + 25 * 0.0) / 101 = 56 / 101
FIVE_SAMPLE_PR = [(1.0, 0.25), (0.5, 0.25), (1 / 3, 0.25), (0.5, 0.5), (0.6, 0.75)]
FIVE_SAMPLE_AP50 = 56.0 / 101.0


def test_ap50_five_sample_enumeration():
    assert average_precision(FIVE_SAMPLES, 0.5) == pytest.approx(FIVE_SAMPLE_AP50, abs=1e-9)


def test_ap50_against_independent_interpolation():
    total = 0.0
    for k in range(101):
        r = k / 100.0
        total += max((p for p, rec in FIVE_SAMPLE_PR if rec >= r - 1e-12), default=0.0)
    assert average_precision(FIVE_SAMPLES, 0.5) == pytest.approx(total / 101.0, abs=1e-12)


def test_ap_range_thresholds():
    assert AP_RANGE_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
    ap50, ap50_95 = ap_range(FIVE_SAMPLES)
    assert ap50 == pytest.approx(FIVE_SAMPLE_AP50, abs=1e-9)
    per_threshold = [average_precision(FIVE_SAMPLES, t) for t in AP_RANGE_THRESHOLDS]
    assert ap50_95 == pytest.approx(float(np.mean(per_threshold)), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=9.0, allow_nan=False),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_ap_invariant_to_monotone_score_transforms(scale, shift):
    def transform(s):
        return EvalSample(math.exp(scale * s.objectness) + shift, s.bbox, s.truth)

    transformed = [transform(s) for s in FIVE_SAMPLES]
    for thr in (0.5, 0.7):
        assert average_precision(transformed, thr) == pytest.approx(
            average_precision(FIVE_SAMPLES, thr), abs=1e-12
        )


def ref_average_precision(samples, iou_threshold):
    """The loop average_precision ran before it ranked once: a Python sort,
    the precision-recall curve rank by rank, then at each of the 101 recall
    levels a scan of the whole curve for the best precision at or above it."""
    n_pos = sum(1 for s in samples if s.truth_present)
    if n_pos == 0:
        return 0.0
    order = sorted(range(len(samples)), key=lambda i: -samples[i].objectness)
    tp_cum = fp_cum = 0
    precisions, recalls = [], []
    for i in order:
        s = samples[i]
        if s.truth_present and iou(s.bbox, s.truth) >= iou_threshold:
            tp_cum += 1
        else:
            fp_cum += 1
        precisions.append(tp_cum / (tp_cum + fp_cum))
        recalls.append(tp_cum / n_pos)
    total = 0.0
    for k in range(101):
        r = k / 100.0
        p_best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r - 1e-12 and p > p_best:
                p_best = p
        total += p_best
    return total / 101.0


def ref_ap_range(samples):
    aps = [ref_average_precision(samples, t) for t in AP_RANGE_THRESHOLDS]
    return aps[0], float(np.mean(aps))


@st.composite
def _boxes(draw):
    x0, x1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    return BBox(x0, y0, x1, y1)


@st.composite
def _eval_samples(draw):
    """Samples with tied objectness, some without truth, and some whose box
    is its truth (IoU exactly 1.0)."""
    out = []
    for _ in range(draw(st.integers(0, 14))):
        score = draw(st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.0, 1.0))
        box = draw(_boxes())
        kind = draw(st.sampled_from(["none", "same", "other"]))
        truth = None if kind == "none" else box if kind == "same" else draw(_boxes())
        out.append(EvalSample(score, box, truth))
    return out


_ALL_NEGATIVE = [sample(0.9), sample(0.4), sample(0.9)]


@settings(max_examples=300, deadline=None)
@given(_eval_samples())
@example([])
@example(_ALL_NEGATIVE)
@example(FIVE_SAMPLES)
def test_ap_matches_the_101_point_loop(samples):
    assert repr(ap_range(samples)) == repr(ref_ap_range(samples))
    for t in (0.0, 0.3, *AP_RANGE_THRESHOLDS, 1.0):
        assert repr(average_precision(samples, t)) == repr(ref_average_precision(samples, t))


def test_metrics_report_takes_one_iou_per_truth_box(monkeypatch):
    calls = []
    monkeypatch.setattr(metrics, "iou", lambda a, b: calls.append(a) or iou(a, b))
    metrics_report(FIVE_SAMPLES + _ALL_NEGATIVE)
    assert len(calls) == 4  # FIVE_SAMPLES' truth boxes, not one per threshold


# --- report ----------------------------------------------------------------------


def test_metrics_report_keys_and_tpr_equals_recall():
    rep = metrics_report(FIVE_SAMPLES)
    assert set(rep) == {"tpr", "recall", "f1", "ap50", "ap50_95"}
    assert rep["tpr"] == rep["recall"]
    json.dumps(rep)  # serializable


def test_f1_and_precision():
    c = Counts(tp=3, fp=1, tn=2, fn=1)
    p, r = precision(c), recall(c)
    assert f1_score(c) == pytest.approx(2 * p * r / (p + r))
    assert f1_score(Counts(0, 0, 5, 0)) == 0.0 or f1_score(Counts(0, 0, 5, 0)) >= 0.0


def test_format_metrics_table_layout():
    rep = metrics_report(FIVE_SAMPLES)
    table = format_metrics_table({"all": rep, "lidar off": rep})
    lines = table.strip().splitlines()
    assert lines[0].startswith("Condition")
    for header in ("TPR", "Recall", "F1-Score", "AP50", "AP50:95"):
        assert header in lines[0]
    assert len(lines) == 4
