"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain scalar loops or one-line
linear algebra, separate from the package's vectorized code paths.
"""

import math

import numpy as np


def scalar_euclidean(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total)


def scalar_bce(probs, labels, eps=1e-12) -> float:
    total = 0.0
    for p, y in zip(probs, labels):
        p = min(max(p, eps), 1.0 - eps)
        total += y * math.log(p) + (1 - y) * math.log(1.0 - p)
    return -total / len(probs)


def pair_count_auc(probs, labels) -> float:
    wins = 0.0
    pairs = 0
    for p_i, y_i in zip(probs, labels):
        if y_i != 1:
            continue
        for p_j, y_j in zip(probs, labels):
            if y_j != 0:
                continue
            pairs += 1
            if p_i > p_j:
                wins += 1.0
            elif p_i == p_j:
                wins += 0.5
    return wins / pairs


def loop_tied_ranks(values):
    """1-based average ranks of ties, by walking the stably sorted values; NaN ties nothing."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def loop_confusion(probs, labels, threshold):
    tp = fp = tn = fn = 0
    for p, y in zip(probs, labels):
        pred = 1 if p >= threshold else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def brute_force_triplets(matrix, security_mask):
    """Exhaustive hardest-positive / hardest-negative search with index tie-break."""
    n = len(matrix)
    security = [i for i in range(n) if security_mask[i]]
    non_security = [i for i in range(n) if not security_mask[i]]
    triplets = []
    for a in security:
        best_p, best_p_dist = None, -1.0
        for i in security:
            if i == a:
                continue
            d = scalar_euclidean(matrix[a], matrix[i])
            if d > best_p_dist:
                best_p, best_p_dist = i, d
        best_n, best_n_dist = None, math.inf
        for j in non_security:
            d = scalar_euclidean(matrix[a], matrix[j])
            if d < best_n_dist:
                best_n, best_n_dist = j, d
        triplets.append((a, best_p, best_n))
    return triplets


def loop_sbcl_loss_and_grad(matrix, security_mask, margin: float):
    """Mean hinge loss over exhaustively mined triplets, and its gradient, one triplet at a time.

    Inactive hinges (value <= 0) contribute neither loss nor gradient; each
    distance's gradient uses max(d, 1e-12) as its denominator.
    """
    x = np.asarray(matrix, dtype=np.float64)
    triplets = brute_force_triplets(x, security_mask)
    grads = np.zeros_like(x)
    total = 0.0
    for a, p, n in triplets:
        d_ap = scalar_euclidean(x[a], x[p])
        d_an = scalar_euclidean(x[a], x[n])
        value = d_ap - d_an + margin
        if value <= 0.0:
            continue
        total += value
        u_ap = (x[a] - x[p]) / max(d_ap, 1e-12)
        u_an = (x[a] - x[n]) / max(d_an, 1e-12)
        grads[a] += u_ap - u_an
        grads[p] -= u_ap
        grads[n] += u_an
    return total / len(triplets), grads / len(triplets)


def loop_attention(x_q, x_kv, w_q, w_k, w_v):
    """Scaled dot-product attention one head and one query row at a time.

    Weights are (heads, dim, head_dim); scores are scaled by 1/sqrt(dim) with
    dim the input width, and head outputs are concatenated in head order.
    """
    x_q, x_kv = np.asarray(x_q, dtype=np.float64), np.asarray(x_kv, dtype=np.float64)
    scale = math.sqrt(x_q.shape[1])
    heads = []
    for h in range(len(w_q)):
        q, k, v = x_q @ w_q[h], x_kv @ w_k[h], x_kv @ w_v[h]
        out = np.zeros((len(x_q), v.shape[1]))
        for i in range(len(x_q)):
            scores = [float(np.dot(q[i], k[j])) / scale for j in range(len(x_kv))]
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            total = sum(exps)
            for j, e in enumerate(exps):
                out[i] += (e / total) * v[j]
        heads.append(out)
    return np.concatenate(heads, axis=1)


def rowwise_feed_forward(x, w1, b1, w2, b2, mask=None):
    """Feed-forward block on every row (dropout mask on the hidden units), then the row mean."""
    h = np.maximum(np.asarray(x, dtype=np.float64) @ w1 + b1, 0.0)
    if mask is not None:
        h = h * mask
    return (h @ w2 + b2).mean(axis=0)


def textbook_fuse_backward(d_vector, cache, state):
    """Every fusion parameter's gradient from one `fuse_forward` cache, each weight on its
    own: W_q, W_k, W_v and ff_pa_ex's w1 from the sample's k = ex_hat @ W_k and
    v = ex_hat @ W_v (8 explanation-row × dim² products), the instruction branch's
    backward pass on this sample's gradient alone, and each second layer's w2 as the outer
    product of the sample's pooled hidden row and pooled gradient."""
    from dataclasses import replace

    from secpatch.fusion import _attention_backward, _scores_backward

    def ff_backward(d_y, ff_cache, params):
        x, active, keep, rate, h_mean = ff_cache
        grads = {"w2": np.outer(h_mean, d_y), "b2": d_y.copy()}
        d_h = (params.w2 @ d_y) / x.shape[0]
        if keep is not None:
            d_h = d_h * (keep / (1.0 - rate))
        d_z = d_h * active
        grads["w1"] = x.T @ d_z
        grads["b1"] = d_z.sum(axis=0)
        return d_z @ params.w1.T, grads

    dim = state.dim
    d1, d2, d3 = d_vector[:dim], d_vector[dim:2 * dim], d_vector[2 * dim:]
    ca, ff = state.cross_attn, state.ff_pa_ex
    pa, ex_hat, v_w1 = cache["ca"]
    k, v = ex_hat @ ca.w_k, ex_hat @ ca.w_v
    d_attn, g_ff1 = ff_backward(d1, cache["ff1"], replace(ff, w1=v_w1))
    d_v_w1 = g_ff1["w1"]  # Aᵀ @ d_z
    g_ff1["w1"] = v.T @ d_v_w1
    d_v = d_v_w1 @ ff.w1.T
    m = _scores_backward(cache["ff1"][0], d_attn, dim).T @ pa
    d_k = m @ ca.w_q
    g_ca = {"w_q": m.T @ k, "w_k": ex_hat.T @ d_k, "w_v": ex_hat.T @ d_v}
    d_ex_hat = d_k @ ca.w_k.T + d_v @ ca.w_v.T
    d_desc_hat, g_ff2 = ff_backward(d2, cache["ff2"], state.ff_desc)
    d_inst_hat, g_ff3 = ff_backward(d3, cache["ff3"], state.ff_inst)
    g_sa = [_attention_backward(d, cache[c]) for d, c in
            ((d_ex_hat, "sa_ex"), (d_desc_hat, "sa_desc"), (d_inst_hat, "sa_inst"))]
    grads = {f"self_attn.{k}": g_sa[0][k] + g_sa[1][k] + g_sa[2][k] for k in g_sa[0]}
    grads |= {f"cross_attn.{k}": g for k, g in g_ca.items()}
    for branch, g in (("ff_pa_ex", g_ff1), ("ff_desc", g_ff2), ("ff_inst", g_ff3)):
        grads |= {f"{branch}.{k}": value for k, value in g.items()}
    return grads


def serial_batch_grads(mats, labels, state, textbook=False):
    """`train.batch_loss_and_grads` as one loop on one thread, for a PT-Former state.

    Each sample's forward pass draws its dropout masks as it goes (branch
    order, one uniform per hidden unit of every row); samples whose instruction
    matrices hold the same shape, dtype and bytes share one `instruction_forward`
    result. Then each sample's `fuse_backward` runs, and its partials are added
    left to right and finished once, as the trainer does. With `textbook`, each
    sample's `textbook_fuse_backward` gradients are added left to right instead.
    Returns (LossBreakdown, grads) and draws from the state's dropout and mining
    streams.
    """
    from secpatch.contrastive import InsufficientClassMembers, sbcl_batch_loss_and_grad
    from secpatch.fusion import finish_backward, fuse_backward, fuse_forward, instruction_forward
    from secpatch.train import LossBreakdown, bce_loss, head_probability
    from secpatch.types import Label

    options, hp, pt = state.options, state.hp, state.pt_former
    vectors, caches, branches = [], [], {}
    for pa, ex, desc, inst in mats:
        keep = (0.0, None, None, None)
        if hp.dropout > 0.0:
            keep = (hp.dropout, *(state.rngs["dropout"].random((len(x), block.w1.shape[1]))
                                  >= hp.dropout
                                  for x, block in ((pa, pt.ff_pa_ex), (desc, pt.ff_desc),
                                                   (inst, pt.ff_inst))))
        key = (inst.shape, inst.dtype.str, inst.tobytes())
        if key not in branches:
            branches[key] = instruction_forward(inst, pt)
        vector, cache = fuse_forward(pa, ex, desc, inst, pt, keep, branches[key])
        vectors.append(vector)
        caches.append(cache)
    fused = np.stack(vectors)
    y = np.array([1.0 if label is Label.SECURITY else 0.0 for label in labels])
    probs = head_probability(fused, state.classifier)
    bce = bce_loss(probs, y)
    sbcl, skipped, d_sbcl = 0.0, False, np.zeros_like(fused)
    if options.use_sbcl:
        try:
            sbcl, d_sbcl = sbcl_batch_loss_and_grad(fused, labels, hp.margin,
                                                    rng=state.rngs["mining"],
                                                    anchor_mode=options.anchor_mode)
        except InsufficientClassMembers:
            skipped = True
    c_bce, c_sbcl = (1.0, 1.0) if options.loss_blend == "sum" else (hp.alpha, 1.0 - hp.alpha)
    loss = LossBreakdown(c_bce * bce + c_sbcl * sbcl, bce, sbcl, skipped)
    d_logits = c_bce * (probs - y) / len(labels)
    grads = {"classifier.weight": fused.T @ d_logits,
             "classifier.bias": np.array([d_logits.sum()])}
    d_fused = np.outer(d_logits, state.classifier.weight) + c_sbcl * d_sbcl
    if textbook:
        total = textbook_fuse_backward(d_fused[0], caches[0], pt)
        for d_vector, cache in zip(d_fused[1:], caches[1:]):
            for name, grad in textbook_fuse_backward(d_vector, cache, pt).items():
                total[name] += grad
    else:
        partials = fuse_backward(d_fused[0], caches[0], pt)
        for d_vector, cache in zip(d_fused[1:], caches[1:]):
            partials.add(fuse_backward(d_vector, cache, pt))
        total = finish_backward(partials, pt)
    grads |= {f"pt.{name}": grad for name, grad in total.items()}
    return loss, grads


def serial_evaluation(samples, state, backends):
    """`train.fused_embeddings` and `predict`'s probabilities as one loop on one thread.

    Each sample is encoded, fused in evaluation mode and scored by the head
    before the next one is encoded. Returns (vectors, probabilities) for a
    PT-Former state.
    """
    from secpatch.fusion import fuse_forward
    from secpatch.train import encode_sample, head_probability

    vectors, probs = [], []
    for sample in samples:
        vector, _ = fuse_forward(*encode_sample(sample, backends, state.hp, state.options),
                                 state.pt_former)
        vectors.append(vector)
        probs.append(float(head_probability(vector, state.classifier)))
    return vectors, probs


def central_difference(fn, arrays: dict, eps: float = 1e-5) -> dict:
    """Central finite differences of scalar fn() w.r.t. every entry of every array.

    fn must read the live arrays; entries are perturbed in place and restored.
    """
    grads = {}
    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        grad_flat = grad.reshape(-1)
        for idx in range(flat.shape[0]):
            original = flat[idx]
            step = eps * max(1.0, abs(original))
            flat[idx] = original + step
            up = fn()
            flat[idx] = original - step
            down = fn()
            flat[idx] = original
            grad_flat[idx] = (up - down) / (2.0 * step)
        grads[name] = grad
    return grads


def pt_former_of(arrays: dict, prefix: str = ""):
    """A PTFormerState of copies of `arrays`, keyed like named_parameters under `prefix`:
    a PTFormerState makes the arrays it holds read-only, and central_difference perturbs
    `arrays` in place, so each evaluation builds a new state from copies."""
    from secpatch.fusion import PTFormerState, from_named_parameters

    return from_named_parameters(PTFormerState, {name: arr.copy() for name, arr in arrays.items()},
                                 prefix)


def assert_grads_close(analytic: dict, numeric: dict, rtol: float = 1e-4, atol: float = 1e-7):
    assert set(analytic) == set(numeric)
    for name in analytic:
        np.testing.assert_allclose(
            analytic[name], numeric[name], rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for {name}")


def pca_eigh_reconstruction_error(points, k: int) -> float:
    """Top-k reconstruction error via an eigendecomposition of the covariance."""
    x = np.asarray(points, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / centered.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = eigvecs[:, np.argsort(eigvals)[::-1][:k]]
    recon = centered @ top @ top.T
    return float(np.sum((centered - recon) ** 2))


def loop_class_cycle(items, rng):
    """A cursor over `items`; the returned take(count) draws the next `count` of them.

    A take that finds the cursor at the end first permutes the previous pass's
    order and restarts the cursor, one item at a time.
    """
    items = list(items)
    pos = len(items)

    def take(count: int) -> list:
        nonlocal items, pos
        out = []
        for _ in range(count):
            if pos >= len(items):
                order = rng.permutation(len(items))
                items = [items[i] for i in order]
                pos = 0
            out.append(items[pos])
            pos += 1
        return out

    return take
