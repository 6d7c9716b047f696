"""Evaluation tooling: rank AUC, PCA export, and the ablation grid.

Run from the repository root:  python3 demos/06_metrics_pca_ablation.py
"""

import dataclasses
import os
import tempfile

import numpy as np

from secpatch import (ExplainerConfig, auc_score, compute_metrics, default_hyperparams,
                      export_pca_csv, hashed_backends, make_synthetic_samples, pca_project,
                      run_ablation, split_dataset)

rng = np.random.default_rng(5)

# Rank-based AUC counts ties as one half and ignores monotone rescaling.
probs = np.round(rng.random(40), 1)
labels = (rng.random(40) < 0.5).astype(int)
print("AUC:", round(auc_score(probs, labels), 4),
      "| after monotone transform:", round(auc_score(np.exp(probs), labels), 4))
print("report:", compute_metrics(probs, labels, 0.5).to_record())

# PCA of two shifted clouds: the first component carries the separation.
cloud = np.vstack([rng.normal(0, 1, (30, 6)), rng.normal(4, 1, (30, 6))])
result = pca_project(cloud, components=2)
print("\nexplained variance fractions:", np.round(result.explained_variance, 3))
with tempfile.TemporaryDirectory() as tmp:
    csv_path = os.path.join(tmp, "pca.csv")
    export_pca_csv(csv_path, [f"p{i}" for i in range(60)], result.coordinates,
                   ["security"] * 30 + ["non-security"] * 30)
    with open(csv_path, encoding="utf-8") as fh:
        print("PCA export header:", fh.readline().strip())

    # The ablation grid retrains with single features switched off, same seed.
    hp = dataclasses.replace(default_hyperparams(), dim=8, num_heads=2, epochs=3,
                             learning_rate=1e-2, dropout=0.0, seed=5)
    split = split_dataset(make_synthetic_samples(24, seed=3), (0.7, 0.15, 0.15), seed=hp.seed)
    backends = hashed_backends(hp, ExplainerConfig(cache_dir=os.path.join(tmp, "cache")))
    rows = run_ablation([("no_sbcl",), ("no_ptformer",)], split, hp, backends)
    print("\nablation (3 epochs, toy scale):")
    for row in rows:
        name = "+".join(row.flags) if row.flags else "full model"
        print(f"  {name:12s} F1={row.metrics.f1:.3f} AUC={row.metrics.auc}")
