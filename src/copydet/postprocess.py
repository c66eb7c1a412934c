"""Descriptor post-processing by iterative nearest-negative subtraction.

A target descriptor is isolated from the hard negatives surrounding it:
each iteration finds the current k nearest vectors in a fixed negative
pool, subtracts each scaled by beta/k, and renormalizes. Targets never
see each other; only the negative pool is consulted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingSet, normalize_rows, single_row
from .errors import DimMismatch, check_at_least
from .search import topk_rows


@dataclass(frozen=True)
class NegSubConfig:
    """Hyperparameters: iteration count n, neighbors per iteration k, factor beta."""

    n: int = 1
    k: int = 10
    beta: float = 0.35

    def __post_init__(self) -> None:
        for name, low in (("n", 0), ("k", 1), ("beta", 0)):
            check_at_least(name, getattr(self, name), low)


def _subtract_rows(
    y: np.ndarray, negatives: EmbeddingSet, cfg: NegSubConfig, ids=None
) -> np.ndarray:
    """Run the iterations in place on the float64 rows of ``y``.

    Per iteration: one ``topk_rows`` query of every row against the pool,
    then the k subtractions in rank order, each a gather of one scaled
    neighbour per row, so each row sees the same float sequence as a
    one-row run. ``ids`` name the rows in errors: the first row annihilated,
    in the first iteration that annihilates any.
    """
    if y.shape[1] != negatives.dim:
        raise DimMismatch(f"descriptor dim {y.shape[1]} != negatives dim {negatives.dim}")
    if y.shape[0] == 0:
        return y
    if negatives.count < 1:
        raise ValueError("negatives set is empty")
    # Widened once (exactly) and scaled once, in place. Pools smaller than
    # k under-subtract: the scale stays beta / requested k.
    scaled = negatives.rows()
    scaled *= cfg.beta / cfg.k
    for _ in range(cfg.n):
        idx = topk_rows(y, negatives, cfg.k)[0]
        for rank in idx.T:
            y -= scaled[rank]
        normalize_rows(y, ids)
    return y


def subtract_negatives(
    x: np.ndarray, negatives: EmbeddingSet, cfg: NegSubConfig
) -> np.ndarray:
    """Apply ``cfg.n`` subtract-and-renormalize iterations to one descriptor.

    Each iteration re-searches the k nearest negatives of the current
    vector, subtracts (beta/k) times each of them in rank order, then
    L2-normalizes. With n=0 the input is returned unchanged. Raises
    ZeroVector if a subtraction annihilates the vector, which signals a
    pathological beta/negatives combination.
    """
    return _subtract_rows(single_row(x, "descriptor").copy(), negatives, cfg)[0]


def subtract_negatives_batch(
    targets: EmbeddingSet, negatives: EmbeddingSet, cfg: NegSubConfig
) -> EmbeddingSet:
    """Post-process every target independently against one fixed pool.

    Targets are never used as negatives for each other, so the output for
    a target depends only on that target and the pool. Errors carry the
    offending target id.
    """
    return EmbeddingSet(targets.ids, _subtract_rows(targets.rows(), negatives, cfg, targets.ids), unit_norm=True)
