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
