"""Error and accuracy metrics used in the paper's evaluation.

* Mean absolute error (MAE) -- frame rate and frame jitter (Figures 3, 6b, 10).
* Mean relative absolute error (MRAE) -- bitrate (Figures 6a, 10b).
* Accuracy and confusion matrices -- resolution (Tables 2, 3, 4, A.1-A.3).
* Percentile summaries of signed errors -- box-plot whiskers (10th/90th).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "mean_absolute_error",
    "mean_relative_absolute_error",
    "accuracy_score",
    "confusion_matrix",
    "normalized_confusion_matrix",
    "ErrorSummary",
    "summarize_errors",
]


def _as_arrays(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true and y_pred have different shapes: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("cannot compute a metric on empty arrays")
    return y_true, y_pred


def mean_absolute_error(y_true, y_pred) -> float:
    """Mean of ``|y_pred - y_true|``."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    return float(np.mean(np.abs(y_pred - y_true)))


def mean_relative_absolute_error(y_true, y_pred, eps: float = 1e-9) -> float:
    """Mean of ``|y_pred - y_true| / y_true`` (the paper's MRAE for bitrate).

    Windows with a zero ground-truth value are guarded with ``eps`` in the
    denominator rather than dropped, matching a ratio-of-errors definition
    that stays finite for silent windows.
    """
    y_true, y_pred = _as_arrays(y_true, y_pred)
    return float(np.mean(np.abs(y_pred - y_true) / np.maximum(np.abs(y_true), eps)))


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of exactly matching labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred have different shapes")
    if y_true.size == 0:
        raise ValueError("cannot compute accuracy on empty arrays")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true, y_pred, labels=None) -> tuple[np.ndarray, np.ndarray]:
    """Confusion matrix with rows = actual labels, columns = predicted labels.

    Returns ``(matrix, labels)`` where ``matrix[i, j]`` counts samples whose
    true label is ``labels[i]`` and predicted label is ``labels[j]``.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    else:
        labels = np.asarray(labels)
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=int)
    for actual, predicted in zip(y_true, y_pred):
        matrix[index[actual], index[predicted]] += 1
    return matrix, labels


def normalized_confusion_matrix(y_true, y_pred, labels=None) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalised confusion matrix (percentages per actual class)."""
    matrix, labels = confusion_matrix(y_true, y_pred, labels)
    row_sums = matrix.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(row_sums > 0, matrix / row_sums, 0.0)
    return normalized, labels


@dataclass(frozen=True)
class ErrorSummary:
    """Distribution summary matching the paper's box plots.

    The paper's boxes report the median and inter-quartile range with whiskers
    at the 10th and 90th percentiles, annotated with the MAE (or MRAE).
    """

    mae: float
    mrae: float
    median: float
    p10: float
    p25: float
    p75: float
    p90: float
    mean: float
    n: int

    def as_dict(self) -> dict[str, float]:
        return {
            "mae": self.mae,
            "mrae": self.mrae,
            "median": self.median,
            "p10": self.p10,
            "p25": self.p25,
            "p75": self.p75,
            "p90": self.p90,
            "mean": self.mean,
            "n": self.n,
        }


def summarize_errors(y_true, y_pred, relative: bool = False) -> ErrorSummary:
    """Summarise signed errors (``y_pred - y_true``) as the paper's box plots do.

    With ``relative=True`` the signed errors are divided by the ground truth
    (bitrate relative errors in Figures 6a and 10b).
    """
    y_true, y_pred = _as_arrays(y_true, y_pred)
    signed = y_pred - y_true
    if relative:
        signed = signed / np.maximum(np.abs(y_true), 1e-9)
    p10, p25, median, p75, p90 = np.percentile(signed, [10, 25, 50, 75, 90])
    return ErrorSummary(
        mae=mean_absolute_error(y_true, y_pred),
        mrae=mean_relative_absolute_error(y_true, y_pred),
        median=float(median),
        p10=float(p10),
        p25=float(p25),
        p75=float(p75),
        p90=float(p90),
        mean=float(np.mean(signed)),
        n=int(y_true.size),
    )
