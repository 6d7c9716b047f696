"""Batch contrastive learning: hardest-pair mining and the hinge triplet loss.

Run from the repository root:  python3 demos/04_contrastive_mining.py
"""

import numpy as np

from secpatch import Label, mine_triplets, sbcl_batch_loss_and_grad

# A toy batch of already-fused embeddings: 3 security, 3 non-security.
rng = np.random.default_rng(0)
security = rng.normal(loc=0.0, size=(3, 4))
non_security = rng.normal(loc=1.0, size=(3, 4))
batch = np.vstack([security, non_security])
labels = [Label.SECURITY] * 3 + [Label.NON_SECURITY] * 3

triplets = mine_triplets(batch, labels)
print("each security sample anchors one triplet:")
for t in triplets:
    d_ap = np.linalg.norm(batch[t.anchor] - batch[t.positive])
    d_an = np.linalg.norm(batch[t.anchor] - batch[t.negative])
    loss = max(0.0, d_ap - d_an + 0.5)  # hinge with margin 0.5
    print(f"  anchor {t.anchor}: hardest positive {t.positive} (d={d_ap:.2f}), "
          f"hardest negative {t.negative} (d={d_an:.2f}) -> loss {loss:.3f}")

loss, grads = sbcl_batch_loss_and_grad(batch, labels, margin=0.5)
print(f"\nbatch loss (mean over triplets): {loss:.4f}")

# One gradient step on the embeddings themselves shrinks the loss.
stepped = batch - 0.1 * grads
new_loss, _ = sbcl_batch_loss_and_grad(stepped, labels, margin=0.5)
print(f"after one descent step on the embeddings: {new_loss:.4f} (was {loss:.4f})")
