from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (assert_grads_close, brute_force_triplets, central_difference,
                     loop_sbcl_loss_and_grad, scalar_euclidean)
from secpatch import (InsufficientClassMembers, Label, LengthMismatch, Triplet,
                      euclidean_distance, mine_triplets, sbcl_batch_loss_and_grad, triplet_loss)

S, N = Label.SECURITY, Label.NON_SECURITY


def _labels(mask):
    return [S if flag else N for flag in mask]


def test_euclidean_three_four_five():
    assert euclidean_distance([0, 0, 0, 0], [3, 4, 0, 0]) == 5.0


def test_euclidean_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(7)
    assert euclidean_distance(x, x) == 0.0


def test_euclidean_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(12), rng.standard_normal(12)
    assert abs(euclidean_distance(a, b) - scalar_euclidean(a, b)) <= 1e-12


def test_euclidean_length_mismatch():
    with pytest.raises(LengthMismatch):
        euclidean_distance([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# mining

def test_mine_triplets_worked_example():
    # distances: a<->b = 2.0 (security pair); a->c = 0.5, a->d = 3.0 (non-security)
    batch = np.array([[0.0], [2.0], [0.5], [-3.0]])
    labels = _labels([1, 1, 0, 0])
    triplets = mine_triplets(batch, labels)
    assert triplets[0] == Triplet(anchor=0, positive=1, negative=2)
    assert len(triplets) == 2  # every security sample anchors once, in batch order
    assert triplets[1].anchor == 1


def test_mine_triplets_insufficient_security():
    batch = np.zeros((3, 2))
    with pytest.raises(InsufficientClassMembers) as err:
        mine_triplets(batch, _labels([1, 0, 0]))
    assert err.value.missing == "security"


def test_mine_triplets_no_negatives():
    batch = np.zeros((3, 2))
    with pytest.raises(InsufficientClassMembers) as err:
        mine_triplets(batch, _labels([1, 1, 1]))
    assert err.value.missing == "non-security"


def test_mine_triplets_tie_breaks_to_lowest_index():
    # two negatives equidistant from the anchor
    batch = np.array([[0.0], [4.0], [1.0], [-1.0]])
    triplets = mine_triplets(batch, _labels([1, 1, 0, 0]))
    assert triplets[0].negative == 2


def test_mine_triplets_random_one_mode():
    batch = np.array([[0.0], [1.0], [2.0], [5.0]])
    labels = _labels([1, 1, 1, 0])
    rng = np.random.default_rng(3)
    triplets = mine_triplets(batch, labels, rng=rng, anchor_mode="random_one")
    assert len(triplets) == 1
    with pytest.raises(ValueError, match="rng"):
        mine_triplets(batch, labels, anchor_mode="random_one")


def test_mine_triplets_matches_brute_force_sample():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(3, 13))
        mask = np.zeros(n, dtype=bool)
        mask[:2] = True
        rng.shuffle(mask)
        while mask.sum() < 2 or mask.sum() > n - 1:
            mask = rng.random(n) < 0.5
        batch = rng.standard_normal((n, 5))
        mined = [(t.anchor, t.positive, t.negative)
                 for t in mine_triplets(batch, _labels(mask))]
        assert mined == brute_force_triplets(batch, mask)


def test_mine_triplets_invariant_under_position_permutation():
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((8, 4))
    mask = np.array([1, 1, 1, 0, 0, 1, 0, 0], dtype=bool)
    base = {(t.anchor, t.positive, t.negative) for t in mine_triplets(batch, _labels(mask))}
    perm = rng.permutation(8)
    mined = mine_triplets(batch[perm], _labels(mask[perm]))
    # position i of the permuted batch holds original item perm[i]
    mapped = {(int(perm[t.anchor]), int(perm[t.positive]), int(perm[t.negative]))
              for t in mined}
    assert mapped == base


def test_triplet_dataclass_validation():
    with pytest.raises(ValueError, match="distinct"):
        Triplet(anchor=1, positive=1, negative=2)


# ---------------------------------------------------------------------------
# losses

def test_triplet_loss_margin_satisfied():
    a, p, n = [0.0, 0.0], [0.2, 0.0], [1.0, 0.0]
    assert triplet_loss(a, p, n, margin=0.5) == 0.0


def test_triplet_loss_direct_arithmetic():
    a, p, n = [0.0], [0.9], [0.3]
    assert triplet_loss(a, p, n, margin=0.5) == pytest.approx(1.1, abs=1e-12)


def test_triplet_loss_degenerate_anchor_equals_positive():
    a = [1.0, 2.0]
    n = [4.0, 6.0]  # distance 5 >= margin
    assert triplet_loss(a, a, n, margin=0.5) == 0.0


def test_triplet_loss_rejects_negative_margin():
    with pytest.raises(ValueError, match="margin"):
        triplet_loss([0.0], [1.0], [2.0], margin=-0.1)


def test_batch_loss_perfectly_separated():
    batch = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 0.0], [100.0, 100.0]])
    assert sbcl_batch_loss_and_grad(batch, _labels([1, 1, 0, 0]), margin=0.5)[0] == 0.0


def test_batch_loss_is_mean_over_triplets():
    # anchor 0: d(a,p)=1, d(a,n)=0.6 -> loss 0.4; anchor 1: d=1 vs 1.6 -> loss 0
    batch = np.array([[0.0], [1.0], [-0.6]])
    loss = sbcl_batch_loss_and_grad(batch, _labels([1, 1, 0]), margin=0.0)[0]
    assert loss == pytest.approx(0.2, abs=1e-12)


def test_batch_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    batch = rng.standard_normal((6, 9))
    labels = _labels([1, 1, 1, 0, 0, 0])
    margin = 0.5

    # stay away from hinge kinks so central differences are valid
    for t in mine_triplets(batch, labels):
        gap = (euclidean_distance(batch[t.anchor], batch[t.positive])
               - euclidean_distance(batch[t.anchor], batch[t.negative]) + margin)
        assert abs(gap) > 1e-3

    _, analytic = sbcl_batch_loss_and_grad(batch, labels, margin)

    def objective():
        return sbcl_batch_loss_and_grad(batch, labels, margin)[0]

    numeric = central_difference(objective, {"batch": batch})
    assert_grads_close({"batch": analytic}, numeric, rtol=1e-4, atol=1e-8)


def test_batch_loss_and_grad_match_per_triplet_loop_oracle():
    # ragged batches where one far security row is the hardest positive of every
    # other anchor and one central non-security row the hardest negative of several
    rng = np.random.default_rng(8)
    for _ in range(200):
        n, dim = int(rng.integers(5, 15)), int(rng.integers(1, 9))
        mask = np.zeros(n, dtype=bool)
        mask[:int(rng.integers(3, n - 1))] = True
        batch = rng.standard_normal((n, dim))
        far, near = 0, int(mask.sum())
        batch[far] += 20.0
        batch[~mask] -= 30.0
        batch[near] = batch[mask].mean(axis=0)
        perm = rng.permutation(n)
        batch, mask = batch[perm], mask[perm]
        triplets = brute_force_triplets(batch, mask)
        assert max(Counter(t[1] for t in triplets).values()) >= 2
        assert max(Counter(t[2] for t in triplets).values()) >= 2
        margin = float(rng.uniform(0.0, 3.0))

        loss, grads = sbcl_batch_loss_and_grad(batch, _labels(mask), margin)
        expected_loss, expected_grads = loop_sbcl_loss_and_grad(batch, mask, margin)
        assert loss == pytest.approx(expected_loss, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(grads, expected_grads, rtol=1e-12, atol=1e-14)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_batch_loss_nonnegative_and_zero_iff_separated(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    mask = rng.random(n) < 0.5
    mask[:2] = True
    mask[2] = False
    batch = rng.standard_normal((n, 4))
    labels = _labels(mask)
    margin = float(rng.uniform(0.0, 1.0))
    loss = sbcl_batch_loss_and_grad(batch, labels, margin)[0]
    assert loss >= 0.0
    separated = all(
        euclidean_distance(batch[t.anchor], batch[t.negative])
        >= euclidean_distance(batch[t.anchor], batch[t.positive]) + margin
        for t in mine_triplets(batch, labels))
    assert (loss == 0.0) == separated


@given(st.integers(0, 10_000), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_batch_loss_monotone_in_margin(seed, m1, m2):
    lo, hi = sorted((m1, m2))
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((6, 3))
    labels = _labels([1, 1, 0, 0, 1, 0])
    assert (sbcl_batch_loss_and_grad(batch, labels, hi)[0]
            >= sbcl_batch_loss_and_grad(batch, labels, lo)[0])
