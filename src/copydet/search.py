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

# Cap on one float64 score block. A block and its argpartition indices
# then take about 2 MiB whatever the query count, and at 8192 database
# rows a block still holds 16 queries, so the per-block Python cost stays
# small next to the gemm and the selection.
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
    if m == n:
        cand = np.broadcast_to(np.arange(n), (b, n))
    else:
        # The m largest per row, in arbitrary order; index-sorted so the
        # stable sort below breaks score ties by ascending index.
        cand = np.sort(np.argpartition(scores, n - m, axis=1)[:, n - m:], axis=1)
    top = np.take_along_axis(scores, cand, axis=1)
    idx = np.take_along_axis(cand, np.argsort(-top, axis=1, kind="stable"), axis=1)
    if m < n:
        # Where more scores tie with the m-th than fit, argpartition chose
        # among them arbitrarily: widen those rows to every tied score.
        kth = top.min(axis=1)
        for r in np.flatnonzero(np.count_nonzero(scores >= kth[:, None], axis=1) > m):
            s = scores[r]
            wide = np.flatnonzero(s >= kth[r])
            idx[r] = wide[np.lexsort((wide, -s[wide]))[:m]]
    return idx


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
