"""Evaluation metrics (rank-based AUC, F1, class recalls) and PCA projection."""

import csv
from dataclasses import dataclass

import numpy as np

from .arrayio import atomic_open
from .types import LengthMismatch


class SingleClassError(ValueError):
    """AUC is undefined when only one class is present."""


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts plus derived metrics; auc is None when undefined."""

    auc: float | None
    f1: float
    plus_recall: float
    minus_recall: float
    tp: int
    fp: int
    tn: int
    fn: int
    n: int

    def __post_init__(self):
        if self.tp + self.fp + self.tn + self.fn != self.n:
            raise ValueError("confusion counts must sum to n")
        for name in ("f1", "plus_recall", "minus_recall"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc out of [0, 1]: {self.auc}")

    def to_record(self) -> dict:
        """The flat record of metrics.json and ablation.json: rates in percent, counts raw."""
        return {
            "AUC": None if self.auc is None else self.auc * 100.0,
            "F1": self.f1 * 100.0,
            "+Recall": self.plus_recall * 100.0,
            "-Recall": self.minus_recall * 100.0,
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn, "n": self.n,
        }


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share their average rank, and NaNs rank last in input order."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True,
                                   equal_nan=False)
    ends = np.cumsum(counts)
    ranks = ((ends - counts + ends + 1) / 2.0)[inverse.reshape(-1)]
    nan = np.isnan(values)
    ranks[nan] = np.arange(len(values) - nan.sum(), len(values)) + 1.0
    return ranks


def _checked(probs, labels):
    """Probabilities as float64 and labels as int64, equal in length; every label is 0 or 1."""
    probs, labels = np.asarray(probs, dtype=np.float64), np.asarray(labels)
    if probs.shape[0] != labels.shape[0]:
        raise LengthMismatch(f"{probs.shape[0]} probabilities vs {labels.shape[0]} labels")
    bad = labels[~np.isin(labels, (0, 1))]
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, got {np.unique(bad).tolist()}")
    return probs, labels.astype(np.int64)


def auc_score(probs, labels) -> float:
    """Rank-statistic AUC: probability a random positive outranks a random negative.

    Ties count one half. Raises SingleClassError when a class is absent, and
    ValueError when a label is not 0 or 1.
    """
    probs, labels = _checked(probs, labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs both classes present")
    ranks = _tied_ranks(probs)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(probs, labels, threshold: float = 0.5) -> MetricsReport:
    """Confusion-matrix metrics at the given threshold (predict positive when p >= threshold).

    +Recall is recall on the positive (security) class, -Recall on the
    negative class, and F1 is computed on the positive class. AUC is None
    when only one class is present. Raises ValueError when a label is not 0
    or 1, or the threshold is NaN.
    """
    probs, labels = _checked(probs, labels)
    if probs.shape[0] == 0:
        raise ValueError("cannot compute metrics on zero samples")
    if np.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")

    preds = probs >= threshold
    pos = labels == 1
    tp = int(np.sum(preds & pos))
    fp = int(np.sum(preds & ~pos))
    fn = int(np.sum(~preds & pos))
    tn = int(np.sum(~preds & ~pos))

    plus_recall = tp / (tp + fn) if tp + fn else 0.0
    minus_recall = tn / (tn + fp) if tn + fp else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * precision * plus_recall / (precision + plus_recall) if precision + plus_recall else 0.0
    try:
        auc = auc_score(probs, labels)
    except SingleClassError:
        auc = None
    return MetricsReport(auc=auc, f1=f1, plus_recall=plus_recall, minus_recall=minus_recall,
                         tp=tp, fp=fp, tn=tn, fn=fn, n=int(probs.shape[0]))


# ---------------------------------------------------------------------------
# PCA

@dataclass(frozen=True)
class PCAResult:
    coordinates: np.ndarray         # (n, k) projected points
    explained_variance: np.ndarray  # (k,) fractions, non-increasing
    components: np.ndarray          # (k, dim) orthonormal directions
    degenerate: bool                # fewer components available than requested


def pca_project(embeddings, components: int = 2) -> PCAResult:
    """Project onto the top principal directions of the mean-centered data.

    When the data rank is below the requested component count, the available
    components are returned with degenerate=True. Each component's largest-
    magnitude entry is made positive so outputs are reproducible.
    """
    if components < 1:
        raise ValueError("components must be >= 1")
    x = np.stack([np.asarray(e, dtype=np.float64) for e in embeddings])
    n = x.shape[0]
    finite = np.isfinite(x).reshape(n, -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {int(np.argmin(finite))} holds a NaN or an infinity")
    if n < components:
        raise ValueError(f"need at least {components} points, got {n}")

    centered = x - x.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    if singular.size and singular[0] > 0.0:
        tol = singular[0] * max(centered.shape) * np.finfo(np.float64).eps
        rank = int(np.sum(singular > tol))
    else:
        rank = 0
    available = min(components, rank)
    directions = vt[:available].copy()
    for row in directions:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0:
            row *= -1.0
    coordinates = centered @ directions.T
    total = float(np.sum(singular ** 2))
    explained = (singular[:available] ** 2) / total if total > 0 else np.zeros(available)
    return PCAResult(coordinates=coordinates, explained_variance=explained,
                     components=directions, degenerate=available < components)


def export_pca_csv(path, sample_ids, coordinates, labels) -> None:
    """Write (sample_id, pc1, pc2, ..., label) rows as CSV for any plotting tool."""
    coordinates = np.asarray(coordinates)
    if not (len(sample_ids) == coordinates.shape[0] == len(labels)):
        raise LengthMismatch("sample_ids, coordinates and labels must align")
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id"] + [f"pc{i + 1}" for i in range(coordinates.shape[1])]
                        + ["label"])
        for sample_id, row, label in zip(sample_ids, coordinates, labels):
            writer.writerow([sample_id] + [repr(float(v)) for v in row] + [label])
