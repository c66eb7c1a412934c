"""Exact top-k inner-product search over an embedding set.

For unit-norm vectors the inner product equals cosine similarity and is
monotone in negative Euclidean distance, so one metric serves matching,
post-processing, and evaluation. No approximate structures: results are
exact and deterministic, with ties broken by ascending database index.
Hits come back as two arrays: database row indices and their scores.

Queries are scored in row blocks, one gemm per block, so memory stays
bounded by the block size however many queries there are.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .embedding import EmbeddingSet
from .errors import DimMismatch

# Cap on one float64 score block, whatever the query count. At 8192 database
# rows a block still holds 16 queries, so per-block Python cost stays small.
_BLOCK_BYTES = 1 << 20


def row_blocks(rows: int, n: int) -> Iterator[slice]:
    """Slices over ``rows`` query rows whose (rows, n) float64 scores fit one block."""
    step = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def select_topk(scores: np.ndarray, m: int) -> np.ndarray:
    """Column indices of each row's ``m`` largest scores, shape (B, m).

    Each row is ordered by score descending, ties by ascending column, so
    the result equals a full sort of the row. Requires 1 <= m <= n.
    """
    b, n = scores.shape
    # Each row's first g * w columns form g >= m interleaved groups. The m-th
    # largest group maximum t is reached by m distinct columns, so every
    # top-m score, and every score tied with the m-th, is >= t. max(64, 4m)
    # or more groups keep t close to the m-th score; groups of at most 32
    # columns keep the max-reduce's passes long.
    g = min(n, max(64, 4 * m, n // 32))
    w = n // g
    group_max = scores[:, : g * w].reshape(b, w, g).max(axis=1)
    t = np.partition(group_max, g - m, axis=1)[:, g - m]
    # Candidates come by row, then ascending column, and lexsort is stable:
    # sorting them by (row, -score) breaks ties by ascending column.
    rows, cols = np.divmod(np.flatnonzero(scores >= t[:, None]), n)
    order = np.lexsort((-scores[rows, cols], rows))
    first = np.searchsorted(rows, np.arange(b))
    return cols[order[first[:, None] + np.arange(m)]]


def _topk_matrix(queries: np.ndarray, db: EmbeddingSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if queries.shape[1] != db.dim:
        raise DimMismatch(f"query dim {queries.shape[1]} != db dim {db.dim}")
    m = min(k, db.count)
    idx, top = np.empty((queries.shape[0], m), dtype=np.int64), np.empty((queries.shape[0], m))
    # select_topk needs m >= 1; with no queries row_blocks yields nothing.
    if m:
        db64 = db.matrix.astype(np.float64)
        for block in row_blocks(queries.shape[0], db.count):
            scores = queries[block] @ db64.T
            idx[block] = select_topk(scores, m)
            top[block] = np.take_along_axis(scores, idx[block], axis=1)
    return idx, top


def topk(query: np.ndarray, db: EmbeddingSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k rows of ``db`` by inner product with ``query``.

    Returns the int64 indices and float64 scores of the min(k, db.count)
    best rows, sorted by score descending, ties by ascending index.
    """
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1:
        raise DimMismatch(f"expected a 1-d query, got shape {q.shape}")
    idx, top = _topk_matrix(q[None, :], db, k)
    return idx[0], top[0]


def topk_batch(queries: EmbeddingSet, db: EmbeddingSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query :func:`topk` over a query set: (queries.count, min(k, db.count)) arrays."""
    return _topk_matrix(queries.matrix.astype(np.float64), db, k)
