import csv

import numpy as np
import pytest

from oracles import (loop_confusion, loop_tied_ranks, pair_count_auc,
                     pca_eigh_reconstruction_error)
from secpatch import (LengthMismatch, MetricsReport, SingleClassError, auc_score,
                      compute_metrics, export_pca_csv, pca_project)
from secpatch.metrics import _tied_ranks


def test_perfect_predictor():
    report = compute_metrics([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 0.5)
    assert report.auc == 1.0
    assert report.f1 == 1.0
    assert report.plus_recall == 1.0
    assert report.minus_recall == 1.0
    assert (report.tp, report.fp, report.tn, report.fn) == (2, 0, 2, 0)


def test_all_ties_auc_half():
    report = compute_metrics([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0], 0.5)
    assert report.auc == 0.5


def test_tied_ranks_match_the_loop_oracle_exactly():
    rng = np.random.default_rng(5)
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        values = rng.integers(0, int(rng.integers(1, 8)), n) / 7.0  # few levels: many ties
        if trial % 3 == 0:
            values[rng.random(n) < 0.2] = np.nan
        np.testing.assert_array_equal(_tied_ranks(values), loop_tied_ranks(values))


def test_metrics_match_pair_count_and_confusion_oracles():
    rng = np.random.default_rng(0)
    probs = np.round(rng.random(200), 2)  # rounding forces plenty of ties
    labels = (rng.random(200) < 0.4).astype(int)
    threshold = 0.45
    report = compute_metrics(probs, labels, threshold)
    assert report.auc == pytest.approx(pair_count_auc(probs, labels), abs=1e-12)
    assert (report.tp, report.fp, report.tn, report.fn) == loop_confusion(probs, labels, threshold)
    tp, fp, tn, fn = loop_confusion(probs, labels, threshold)
    assert report.plus_recall == pytest.approx(tp / (tp + fn), abs=1e-12)
    assert report.minus_recall == pytest.approx(tn / (tn + fp), abs=1e-12)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    assert report.f1 == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    probs = rng.random(150)
    labels = (rng.random(150) < 0.5).astype(int)
    base = auc_score(probs, labels)
    assert auc_score(np.exp(3.0 * probs), labels) == pytest.approx(base, abs=1e-12)
    assert auc_score(probs ** 3, labels) == pytest.approx(base, abs=1e-12)


def test_metrics_invariant_under_joint_permutation():
    rng = np.random.default_rng(2)
    probs = rng.random(60)
    labels = (rng.random(60) < 0.5).astype(int)
    base = compute_metrics(probs, labels, 0.5)
    perm = rng.permutation(60)
    shuffled = compute_metrics(probs[perm], labels[perm], 0.5)
    assert shuffled == base


def test_recalls_at_extreme_thresholds():
    rng = np.random.default_rng(3)
    probs = rng.random(30)
    labels = (rng.random(30) < 0.5).astype(int)
    at_zero = compute_metrics(probs, labels, 0.0)
    assert at_zero.plus_recall == 1.0 and at_zero.minus_recall == 0.0
    above_one = compute_metrics(probs, labels, 1.1)
    assert above_one.plus_recall == 0.0 and above_one.minus_recall == 1.0


def test_single_class_auc_is_none_but_rest_returned():
    report = compute_metrics([0.9, 0.2], [1, 1], 0.5)
    assert report.auc is None
    assert report.plus_recall == 0.5
    with pytest.raises(SingleClassError):
        auc_score([0.9, 0.2], [1, 1])


def test_metrics_input_validation():
    with pytest.raises(LengthMismatch):
        compute_metrics([0.5], [1, 0], 0.5)
    with pytest.raises(ValueError, match="zero"):
        compute_metrics([], [], 0.5)


@pytest.mark.parametrize("labels, bad", [([1, 0, -1], "-1"), ([2, 0, 1], "2"),
                                         ([1, 0, 0.5], "0.5")])
def test_labels_other_than_zero_and_one_are_rejected(labels, bad):
    for metric in (auc_score, compute_metrics):
        with pytest.raises(ValueError, match=rf"labels must be 0 or 1, got \[{bad}\]"):
            metric([0.9, 0.2, 0.4], labels)


def test_nan_threshold_is_rejected():
    # NaN would label every sample negative; thresholds outside [0, 1] stay meaningful
    with pytest.raises(ValueError, match="threshold must be a number, got nan"):
        compute_metrics([0.9, 0.1], [1, 0], float("nan"))


def test_report_invariants_enforced():
    with pytest.raises(ValueError, match="sum"):
        MetricsReport(auc=0.5, f1=0.5, plus_recall=0.5, minus_recall=0.5,
                      tp=1, fp=1, tn=1, fn=1, n=5)
    with pytest.raises(ValueError, match="auc"):
        MetricsReport(auc=1.5, f1=0.5, plus_recall=0.5, minus_recall=0.5,
                      tp=1, fp=1, tn=1, fn=1, n=4)


def test_report_percent_record():
    report = compute_metrics([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 0.5)
    record = report.to_record()
    assert record["AUC"] == 100.0
    assert record["+Recall"] == 100.0
    assert record["-Recall"] == 100.0
    assert record["n"] == 4


# ---------------------------------------------------------------------------
# PCA

def test_pca_rank_one_data():
    rng = np.random.default_rng(4)
    direction = np.array([1.0, 2.0, -1.0])
    points = np.outer(rng.standard_normal(20), direction)
    result = pca_project(points, components=2)
    assert result.degenerate  # rank 1 < 2 requested
    assert result.explained_variance[0] >= 1.0 - 1e-10
    assert result.components.shape == (1, 3)


def test_pca_projection_centered_and_orthonormal():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((40, 6))
    result = pca_project(points, components=3)
    assert not result.degenerate
    assert np.all(np.abs(result.coordinates.mean(axis=0)) <= 1e-10)
    gram = result.components @ result.components.T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)
    assert np.all(np.diff(result.explained_variance) <= 1e-15)


def test_pca_reconstruction_matches_eigh_oracle():
    rng = np.random.default_rng(6)
    points = rng.standard_normal((50, 8))
    result = pca_project(points, components=2)
    centered = points - points.mean(axis=0)
    recon = result.coordinates @ result.components
    err = float(np.sum((centered - recon) ** 2))
    assert err == pytest.approx(pca_eigh_reconstruction_error(points, 2), abs=1e-8)


def test_pca_sign_convention():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((30, 5))
    result = pca_project(points, components=2)
    for row in result.components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_requires_enough_points():
    with pytest.raises(ValueError, match="points"):
        pca_project(np.ones((1, 3)), components=2)
    with pytest.raises(ValueError, match="components"):
        pca_project(np.ones((3, 3)), components=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_pca_rejects_non_finite_point(bad):
    points = np.random.default_rng(9).standard_normal((4, 3))
    points[2, 1] = bad
    with pytest.raises(ValueError, match="point 2 holds a NaN or an infinity"):
        pca_project(points, components=2)


def test_pca_csv_export(tmp_path):
    rng = np.random.default_rng(8)
    coords = rng.standard_normal((3, 2))
    path = tmp_path / "pca.csv"
    export_pca_csv(path, ["a", "b", "c"], coords, ["security", "non-security", "security"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", "pc1", "pc2", "label"]
    assert rows[1][0] == "a" and rows[1][3] == "security"
    assert float(rows[2][1]) == pytest.approx(coords[1, 0])
    with pytest.raises(LengthMismatch):
        export_pca_csv(path, ["a"], coords, ["security"] * 3)
