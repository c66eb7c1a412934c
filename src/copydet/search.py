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

from .embedding import EmbeddingSet, single_row
from .errors import DimMismatch, check_at_least

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
    # A row shorter than numpy's ufunc buffer sends this broadcast compare
    # down the buffered path, about 4x slower; a buffer no longer than one
    # row (a multiple of 16, as numpy requires) keeps it unbuffered.
    bufsize = np.setbufsize(max(16, min(n, np.getbufsize()) // 16 * 16))
    try:
        above = scores >= t[:, None]
    finally:
        np.setbufsize(bufsize)
    # Candidates come by row, then ascending column, and lexsort is stable:
    # sorting them by (row, -score) breaks ties by ascending column.
    rows, cols = np.divmod(np.flatnonzero(above), n)
    order = np.lexsort((-scores[rows, cols], rows))
    first = np.searchsorted(rows, np.arange(b))
    return cols[order[first[:, None] + np.arange(m)]]


def topk_rows(rows: np.ndarray, db: EmbeddingSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row :func:`topk` of float64 ``rows``, for search and post-process alike."""
    check_at_least("k", k, 1)
    if rows.shape[1] != db.dim:
        raise DimMismatch(f"query dim {rows.shape[1]} != db dim {db.dim}")
    m = min(k, db.count)
    idx, top = np.empty((rows.shape[0], m), dtype=np.int64), np.empty((rows.shape[0], m))
    # select_topk needs m >= 1; with no rows row_blocks yields nothing.
    if m:
        # Contiguous operands take BLAS's fast no-transpose gemm path; db.rows().T would add a copy.
        db_t = np.ascontiguousarray(db.matrix.T, dtype=np.float64)
        for block in row_blocks(rows.shape[0], db.count):
            scores = rows[block] @ db_t
            idx[block] = select_topk(scores, m)
            top[block] = np.take_along_axis(scores, idx[block], axis=1)
            # Freed before the next gemm, so one score block is alive at a time.
            del scores
    return idx, top


def topk(query: np.ndarray, db: EmbeddingSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k rows of ``db`` by inner product with ``query``.

    Returns the int64 indices and float64 scores of the min(k, db.count)
    best rows, sorted by score descending, ties by ascending index.
    """
    idx, top = topk_rows(single_row(query, "query"), db, k)
    return idx[0], top[0]


def topk_batch(queries: EmbeddingSet, db: EmbeddingSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query :func:`topk` over a query set: (queries.count, min(k, db.count)) arrays."""
    return topk_rows(queries.rows(), db, k)
