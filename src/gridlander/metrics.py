"""Detection metrics: thresholded classification counts, weighted accuracy,
mean-IoU localization accuracy, and average precision.

The evaluation setting is one predicted box per image with at most one
ground-truth marker, so there is no assignment step: a prediction matches
its own image's truth or nothing. The report deliberately carries both a
"tpr" and a "recall" entry; they are the same quantity computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation
from .losses import BBox, iou

AP_RANGE_THRESHOLDS = tuple(k / 20.0 for k in range(10, 20))  # 0.50, 0.55, ..., 0.95


@dataclass(frozen=True)
class EvalSample:
    """One image's prediction paired with its optional ground truth."""

    objectness: float
    bbox: BBox
    truth: Optional[BBox] = None

    @property
    def truth_present(self) -> bool:
        return self.truth is not None


@dataclass(frozen=True)
class Counts:
    tp: int
    fp: int
    tn: int
    fn: int


def classification_counts(samples: Sequence[EvalSample], threshold: float = 0.5) -> Counts:
    """Objectness >= threshold counts as a positive prediction."""
    tp = fp = tn = fn = 0
    for s in samples:
        predicted = s.objectness >= threshold
        if s.truth_present:
            if predicted:
                tp += 1
            else:
                fn += 1
        else:
            if predicted:
                fp += 1
            else:
                tn += 1
    return Counts(tp, fp, tn, fn)


def _safe_rate(num: int, den: int, other_class_empty: bool) -> float:
    """Rate with the degenerate-denominator rule: an empty class scores 1
    only when the other class is empty too, else 0."""
    if den == 0:
        return 1.0 if other_class_empty else 0.0
    return num / den


def acc_obj(counts: Counts, alpha: float = 0.85) -> float:
    """Weighted binary accuracy alpha*TPR + (1-alpha)*TNR."""
    if not 0.0 <= alpha <= 1.0:
        raise ContractViolation("alpha must lie in [0,1]")
    pos = counts.tp + counts.fn
    neg = counts.tn + counts.fp
    tpr = _safe_rate(counts.tp, pos, neg == 0)
    tnr = _safe_rate(counts.tn, neg, pos == 0)
    return alpha * tpr + (1.0 - alpha) * tnr


def acc_box(samples: Sequence[EvalSample]) -> float:
    """Mean IoU over samples with ground truth; 0 when there are none."""
    ious = [iou(s.bbox, s.truth) for s in samples if s.truth_present]
    if not ious:
        return 0.0
    return float(np.mean(ious))


def acc(acc_box_value: float, acc_obj_value: float, w_acc: float = 0.5) -> float:
    """Weighted sum of the localization and classification accuracies."""
    if not 0.0 <= w_acc <= 1.0:
        raise ContractViolation("w_acc must lie in [0,1]")
    return w_acc * acc_box_value + (1.0 - w_acc) * acc_obj_value


def recall(counts: Counts) -> float:
    pos = counts.tp + counts.fn
    return _safe_rate(counts.tp, pos, counts.tn + counts.fp == 0)


def precision(counts: Counts) -> float:
    pred_pos = counts.tp + counts.fp
    return _safe_rate(counts.tp, pred_pos, counts.tn + counts.fn == 0)


def f1_score(counts: Counts) -> float:
    p, r = precision(counts), recall(counts)
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def average_precision(samples: Sequence[EvalSample], iou_threshold: float) -> float:
    """COCO-style 101-point interpolated AP at one IoU threshold.

    Predictions are ranked by descending objectness (stable, so ties keep
    input order); a prediction is a true positive when its image has a
    truth box with IoU >= threshold.
    """
    n_pos = sum(1 for s in samples if s.truth_present)
    if n_pos == 0:
        return 0.0
    order = sorted(range(len(samples)), key=lambda i: -samples[i].objectness)
    tp_cum = 0
    fp_cum = 0
    precisions = []
    recalls = []
    for i in order:
        s = samples[i]
        if s.truth_present and iou(s.bbox, s.truth) >= iou_threshold:
            tp_cum += 1
        else:
            fp_cum += 1
        precisions.append(tp_cum / (tp_cum + fp_cum))
        recalls.append(tp_cum / n_pos)
    # interpolated precision: max precision at recall >= r, for r = 0.00..1.00
    total = 0.0
    for k in range(101):
        r = k / 100.0
        p_best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r - 1e-12 and p > p_best:
                p_best = p
        total += p_best
    return total / 101.0


def ap_range(samples: Sequence[EvalSample]) -> tuple[float, float]:
    """(AP50, AP50:95) with the 0.50:0.05:0.95 threshold ladder."""
    aps = [average_precision(samples, t) for t in AP_RANGE_THRESHOLDS]
    return aps[0], float(np.mean(aps))


def metrics_report(samples: Sequence[EvalSample]) -> dict:
    """The five-column summary used by the text table and JSON output, with
    objectness >= 0.5 counted as a positive prediction."""
    counts = classification_counts(samples)
    r = recall(counts)
    ap50, ap50_95 = ap_range(samples)
    return {
        "tpr": r,
        "recall": r,
        "f1": f1_score(counts),
        "ap50": ap50,
        "ap50_95": ap50_95,
    }


_TABLE_COLUMNS = (
    ("TPR", "tpr"),
    ("Recall", "recall"),
    ("F1-Score", "f1"),
    ("AP50", "ap50"),
    ("AP50:95", "ap50_95"),
)


def format_metrics_table(reports: dict[str, dict]) -> str:
    """Aligned text table; one row per named condition."""
    label_w = max([len("Condition")] + [len(k) for k in reports])
    header = "Condition".ljust(label_w) + "  " + "  ".join(f"{h:>8}" for h, _ in _TABLE_COLUMNS)
    lines = [header, "-" * len(header)]
    for name, rep in reports.items():
        cells = "  ".join(f"{rep[key]:>8.3f}" for _, key in _TABLE_COLUMNS)
        lines.append(name.ljust(label_w) + "  " + cells)
    return "\n".join(lines) + "\n"
