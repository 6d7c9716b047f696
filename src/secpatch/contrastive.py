"""Batch contrastive learning on fused embeddings: triplet mining and hinge loss."""

from dataclasses import dataclass

import numpy as np

from .types import Label, LengthMismatch

_DIST_EPS = 1e-12  # guards the distance gradient when two embeddings coincide


class InsufficientClassMembers(ValueError):
    """The batch lacks the class members required to form a triplet."""

    def __init__(self, missing: str, detail: str):
        self.missing = missing
        super().__init__(detail)


@dataclass(frozen=True)
class Triplet:
    anchor: int
    positive: int
    negative: int

    def __post_init__(self):
        if self.anchor == self.positive:
            raise ValueError("anchor and positive must be distinct batch indices")


def _mine(batch, labels, rng, anchor_mode):
    """(x, pairwise distances, anchors, positives, negatives) as in mine_triplets."""
    if anchor_mode not in ("all", "random_one"):
        raise ValueError(f"unknown anchor_mode: {anchor_mode!r}")
    if len(batch) != len(labels):
        raise LengthMismatch(f"{len(batch)} embeddings vs {len(labels)} labels")

    mask = np.array([label is Label.SECURITY for label in labels], dtype=bool)
    security = np.flatnonzero(mask)
    if len(security) < 2:
        raise InsufficientClassMembers(
            Label.SECURITY.value,
            f"need >= 2 security samples to mine triplets, got {len(security)}")
    if mask.all():
        raise InsufficientClassMembers(
            Label.NON_SECURITY.value, "need >= 1 non-security sample to mine triplets")

    x = np.stack([np.asarray(e, dtype=np.float64) for e in batch])
    distances = np.sqrt(np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1))

    if anchor_mode == "all":
        anchors = security
    else:
        if rng is None:
            raise ValueError("anchor_mode='random_one' requires an rng")
        anchors = security[[int(rng.integers(len(security)))]]

    # argmax/argmin return the first extreme, so ties go to the lowest index
    rows = distances[anchors]
    candidates = mask[None, :] & (anchors[:, None] != np.arange(len(mask))[None, :])
    positives = np.argmax(np.where(candidates, rows, -np.inf), axis=1)
    negatives = np.argmin(np.where(mask[None, :], np.inf, rows), axis=1)
    return x, distances, anchors, positives, negatives


def mine_triplets(batch, labels, rng=None, anchor_mode: str = "all") -> list[Triplet]:
    """Form one triplet per anchor: hardest positive, hardest negative.

    Every security sample anchors once in batch order (anchor_mode="all");
    anchor_mode="random_one" instead draws a single anchor with the supplied
    generator. The positive is the most distant other security sample, the
    negative the closest non-security sample; ties go to the lowest index.
    """
    _, _, anchors, positives, negatives = _mine(batch, labels, rng, anchor_mode)
    return [Triplet(int(a), int(p), int(n)) for a, p, n in zip(anchors, positives, negatives)]


def sbcl_batch_loss_and_grad(batch, labels, margin: float, rng=None,
                             anchor_mode: str = "all"):
    """Mean triplet loss over mined triplets plus gradients per batch embedding.

    The hinge subgradient at the kink is 0; mined indices are treated as
    constants of the batch (the standard mining convention).
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    x, distances, anchors, positives, negatives = _mine(batch, labels, rng, anchor_mode)
    d_ap = distances[anchors, positives]
    d_an = distances[anchors, negatives]
    hinge = d_ap - d_an + margin
    active = hinge > 0.0
    a, p, n = anchors[active], positives[active], negatives[active]
    u_ap = (x[a] - x[p]) / np.maximum(d_ap[active], _DIST_EPS)[:, None]
    u_an = (x[a] - x[n]) / np.maximum(d_an[active], _DIST_EPS)[:, None]
    # one unbuffered scatter in per-triplet (anchor, positive, negative) order: a row
    # shared by several triplets sums its terms as a loop over the triplets would
    grads = np.zeros_like(x)
    np.add.at(grads, np.stack([a, p, n], axis=1).ravel(),
              np.stack([u_ap - u_an, -u_ap, u_an], axis=1).reshape(-1, x.shape[1]))
    count = len(anchors)
    return float(np.sum(np.maximum(hinge, 0.0))) / count, grads / count
