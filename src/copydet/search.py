"""Exact top-k inner-product search over an embedding set.

For unit-norm vectors the inner product equals cosine similarity and is
monotone in negative Euclidean distance, so one metric serves matching,
post-processing, and evaluation. No approximate structures: results are
exact and deterministic, with ties broken by ascending database index.

Queries are scored in row blocks, one gemm per block, so memory stays
bounded by the block size however many queries there are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .embedding import EmbeddingSet
from .errors import DimMismatch

# Cap on one float64 score block, whatever the query count. At 8192 database
# rows a block still holds 16 queries, so per-block Python cost stays small.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Neighbor:
    """One search hit: row index into the database set, inner-product score."""

    index: int
    score: float


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


def _topk_matrix(queries: np.ndarray, db: EmbeddingSet, k: int) -> list[list[Neighbor]]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if queries.shape[1] != db.dim:
        raise DimMismatch(f"query dim {queries.shape[1]} != db dim {db.dim}")
    n = db.count
    if queries.shape[0] == 0 or n == 0:
        return [[] for _ in range(queries.shape[0])]

    db64 = db.matrix.astype(np.float64)
    m = min(k, n)
    out: list[list[Neighbor]] = []
    for block in row_blocks(queries.shape[0], n):
        scores = queries[block] @ db64.T
        idx = select_topk(scores, m)
        top = np.take_along_axis(scores, idx, axis=1)
        out.extend(
            [Neighbor(i, s) for i, s in zip(row_idx, row_top)]
            for row_idx, row_top in zip(idx.tolist(), top.tolist())
        )
    return out


def topk(query: np.ndarray, db: EmbeddingSet, k: int) -> list[Neighbor]:
    """Exact top-k rows of ``db`` by inner product with ``query``.

    Returns min(k, db.count) neighbors sorted by score descending, ties by
    ascending index.
    """
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1:
        raise DimMismatch(f"expected a 1-d query, got shape {q.shape}")
    return _topk_matrix(q[None, :], db, k)[0]


def topk_batch(queries: EmbeddingSet, db: EmbeddingSet, k: int) -> list[list[Neighbor]]:
    """Per-query :func:`topk` over a whole query set, in query order."""
    return _topk_matrix(queries.matrix.astype(np.float64), db, k)
