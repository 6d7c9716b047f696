"""Train the full pipeline on the bundled synthetic corpus and evaluate it.

Run from the repository root:  python3 demos/05_training_end_to_end.py
"""

import dataclasses
import tempfile

from secpatch import (ExplainerConfig, Label, compute_metrics, default_hyperparams,
                      hashed_backends, make_synthetic_samples, predict, split_dataset, train)

hp = dataclasses.replace(default_hyperparams(), dim=16, num_heads=4, epochs=30,
                         learning_rate=1e-2, dropout=0.0, seed=7)
samples = make_synthetic_samples(64, seed=11)
split = split_dataset(samples, (0.8, 0.1, 0.1), seed=hp.seed)
print(f"dataset: {len(samples)} samples -> "
      f"{len(split.train)}/{len(split.validation)}/{len(split.test)} train/val/test")

with tempfile.TemporaryDirectory() as tmp:
    backends = hashed_backends(hp, ExplainerConfig(cache_dir=f"{tmp}/cache"))
    state, records = train(split, hp, backends, checkpoint_dir=f"{tmp}/checkpoints",
                           run_log_path=f"{tmp}/run_log.jsonl")
    for record in records[::10] + [records[-1]]:
        print(f"  epoch {record['epoch']:3d}: L={record['L']:.4f} "
              f"(bce {record['L_BCE']:.4f} + sbcl {record['L_SBCL']:.4f}), "
              f"val F1={record['val_F1']}")

    results = predict(split.test, state, backends)
    labels01 = [1 if s.label is Label.SECURITY else 0 for s in split.test]
    report = compute_metrics([p for p, _ in results], labels01, threshold=0.5)
    print("\ntest metrics:", report.to_record())
