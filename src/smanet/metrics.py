"""Evaluation: per-label precision/recall/F1, macro averages, multi-class
accuracy, and the confusion matrix.  Degenerate 0/0 ratios are defined
as 0, the conservative convention for rare labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class LabelCounts:
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray


def binarize(logits: np.ndarray) -> np.ndarray:
    """Occurrence decision: a logit strictly above 0 counts as positive."""
    return np.asarray(logits) > 0.0


def count_binary(preds: np.ndarray, truth: np.ndarray) -> LabelCounts:
    preds = np.asarray(preds, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if preds.shape != truth.shape:
        raise ShapeError(f"predictions {preds.shape} do not match truth {truth.shape}")
    tp = (preds & truth).sum(axis=0)
    fp = (preds & ~truth).sum(axis=0)
    fn = (~preds & truth).sum(axis=0)
    tn = (~preds & ~truth).sum(axis=0)
    return LabelCounts(tp, fp, fn, tn)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast(num, den).shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def f1_scores(counts: LabelCounts):
    """Per-label precision, recall, F1 plus their unweighted macro means."""
    precision = _safe_div(counts.tp, counts.tp + counts.fp)
    recall = _safe_div(counts.tp, counts.tp + counts.fn)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    macro = {
        "precision": float(precision.mean()),
        "recall": float(recall.mean()),
        "f1": float(f1.mean()),
    }
    return precision, recall, f1, macro


def confusion_matrix(preds: np.ndarray, truth: np.ndarray, num_classes: int) -> np.ndarray:
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    if preds.shape != truth.shape:
        raise ShapeError("predictions and truth differ in length")
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (truth, preds), 1)
    return mat


def accuracy(preds: np.ndarray, truth: np.ndarray) -> float:
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    return float((preds == truth).mean())


def metrics_report(counts: LabelCounts) -> str:
    """Frozen CSV: one (label, precision, recall, f1) row per label plus a
    macro row."""
    precision, recall, f1, macro = f1_scores(counts)
    lines = ["label,precision,recall,f1"]
    for i in range(len(f1)):
        lines.append(f"label_{i:02d},{precision[i]:.6f},{recall[i]:.6f},{f1[i]:.6f}")
    lines.append(f"macro,{macro['precision']:.6f},{macro['recall']:.6f},{macro['f1']:.6f}")
    return "\n".join(lines) + "\n"


def confusion_report(mat: np.ndarray) -> str:
    """Frozen grid: one row per true class, space-separated counts."""
    return "\n".join(" ".join(str(int(v)) for v in row) for row in mat) + "\n"
