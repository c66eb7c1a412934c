"""The slow references the tests check the program against, one per operation.

Each oracle recomputes its result from scratch, with full sorts and counting
loops, and shares no code with ``copydet`` beyond the data types.
"""

import numpy as np

from copydet import EmbeddingSet


def unit_rows(rng, count, dim):
    """``count`` standard-normal rows of ``dim`` floats, scaled to unit norm."""
    m = rng.standard_normal((count, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def unit_set(rng, count, dim, prefix="v"):
    """``unit_rows`` as a float32 set with ids ``prefix0``, ``prefix1``, ..."""
    return EmbeddingSet(
        tuple(f"{prefix}{i}" for i in range(count)),
        unit_rows(rng, count, dim).astype(np.float32),
    )


def topk_oracle(scores, k):
    """Full-sort top-k: each row of a score block sorted by score descending,
    then index, cut to ``min(k, n)``. A 1-d row is one block row and gives
    one index vector."""
    n = scores.shape[-1]
    order = [np.lexsort((np.arange(n), -row))[: min(k, n)] for row in np.atleast_2d(scores)]
    return order[0] if scores.ndim == 1 else np.stack(order)


def negsub_oracle(x, neg_matrix, n, k, beta):
    """Step-by-step negative-embedding subtraction: each iteration finds the
    k nearest negatives by a full sort and subtracts them one at a time."""
    y = np.asarray(x, dtype=np.float64).copy()
    neg = np.asarray(neg_matrix, dtype=np.float64)
    for _ in range(n):
        for i in topk_oracle(neg @ y, k):
            y = y - (beta / k) * neg[i]
        y = y / np.linalg.norm(y)
    return y


def ap_oracle(entries, gt_pairs, positives):
    """Counting micro-AP: precision recomputed from scratch at every true rank."""
    total = 0.0
    for r in range(1, len(entries) + 1):
        q, ref, _ = entries[r - 1]
        if (q, ref) in gt_pairs:
            tp = sum(1 for (q2, r2, _) in entries[:r] if (q2, r2) in gt_pairs)
            total += tp / r
    return total / positives


def recall_oracle(entries, gt_pairs, positives, p):
    """Counting recall at precision ``p``: scan every cutoff, keep the best
    recall whose precision reaches ``p``."""
    best = 0.0
    for r in range(1, len(entries) + 1):
        tp = sum(1 for (q2, r2, _) in entries[:r] if (q2, r2) in gt_pairs)
        if tp / r >= p:
            best = max(best, tp / positives)
    return best


def bank_contents(bank):
    """Entries of ``bank`` oldest to newest, as (embeddings, labels) copies.

    Reads the ring storage and cursor directly, so it shares no code with
    ``MemoryBank.with_batch()``, which reads the occupied slots in storage
    order.
    """
    rows, labels = bank._rows[bank._head :], bank._labs[bank._head :]
    size = len(bank)
    if size < bank.capacity:
        return rows[:size].copy(), labels[:size].copy()
    idx = (np.arange(bank.capacity) + bank._cursor) % bank.capacity
    return rows[idx], labels[idx]


def _pair_distances(a, b):
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.clip(sq, 0.0, None))


def loss_pairs_oracle(embeddings, labels, bank, neg_margin):
    """Every pair of a loss call against [batch; bank], from the full distance matrix.

    Returns flat indices into the b x (b + m) pair matrix of the
    off-diagonal same-label pairs and of the different-label pairs closer
    than ``neg_margin``, both ascending, and the matrix of distances.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    labs = np.asarray(labels)
    # The bank's columns are its live ring slots in slot order, the order of
    # MemoryBank.with_batch, not oldest to newest.
    live = slice(bank._head, bank._head + len(bank))
    dist = _pair_distances(E, np.concatenate((E, bank._rows[live])))
    same = labs[:, None] == np.concatenate((labs, bank._labs[live]))[None, :]
    off_diagonal = np.arange(dist.shape[1])[None, :] != np.arange(len(E))[:, None]
    positives = np.flatnonzero(same & off_diagonal)
    negatives = np.flatnonzero(~same & (dist < neg_margin))
    return positives, negatives, dist


def _hinge_weights(dist, same, cfg):
    live = dist > 1e-12
    w = np.zeros_like(dist)
    w[same & (dist > cfg.pos_margin) & live] = 1.0
    w[~same & (dist < cfg.neg_margin) & live] = -1.0
    return np.divide(w, dist, out=w, where=live)


def reference_contrastive_loss(embeddings, labels, bank, cfg):
    """The former two-pass loss, kept as the oracle for the fused one.

    In-batch and bank pairs go through separate distance, term and weight
    passes, with the bank read oldest to newest through ``bank_contents``.
    One change from the former library version: the diagonal of the in-batch
    weights is zeroed. A row is no pair of itself, but its round-off
    distance (~1e-8) passed the coincidence threshold and added
    cancellation noise of up to ~1e-9 to its gradient.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    labs = np.asarray(labels)
    b = E.shape[0]
    if len(bank) > 0:
        bank_e, bank_labs = bank_contents(bank)
    else:
        bank_e = np.zeros((0, E.shape[1]))
        bank_labs = np.zeros(0, dtype=np.int64)
    m = bank_e.shape[0]
    num_pairs = b * (b - 1) // 2 + b * m
    if num_pairs == 0:
        return 0.0, np.zeros_like(E)
    total = 0.0
    grad = np.zeros_like(E)
    if b > 1:
        dist = _pair_distances(E, E)
        same = labs[:, None] == labs[None, :]
        terms = np.where(
            same,
            np.maximum(0.0, dist - cfg.pos_margin),
            np.maximum(0.0, cfg.neg_margin - dist),
        )
        total += terms[np.triu_indices(b, k=1)].sum()
        w = _hinge_weights(dist, same, cfg) / num_pairs
        np.fill_diagonal(w, 0.0)
        grad += w.sum(axis=1)[:, None] * E - w @ E
    if m > 0:
        dist = _pair_distances(E, bank_e)
        same = labs[:, None] == bank_labs[None, :]
        terms = np.where(
            same,
            np.maximum(0.0, dist - cfg.pos_margin),
            np.maximum(0.0, cfg.neg_margin - dist),
        )
        total += terms.sum()
        w = _hinge_weights(dist, same, cfg) / num_pairs
        grad += w.sum(axis=1)[:, None] * E - w @ bank_e
    return total / num_pairs, grad


def central_differences(f, params, h):
    """Central differences of the scalar ``f()`` over every entry of each
    array in ``params``. Each entry is set to x + h, then x - h, then
    restored, in place, so ``f`` must read the arrays themselves."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        assert np.shares_memory(flat_p, p), "parameters must be contiguous"
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = f()
            flat_p[i] = orig - h
            down = f()
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads
