"""Retrieval metrics over one global ranking of candidate pairs.

Both metrics walk a single score-sorted list of (query, reference, score)
candidates. Micro-average precision is the area under the precision-recall
curve with the full ground-truth count as the recall denominator, so
positives that were never returned count against it. Recall at precision p
is the best recall achievable at any cutoff whose precision is at least p.
Only rank order matters; any strictly monotone rescoring leaves both
metrics unchanged.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddingSet, read_text, write_bytes_atomic
from .errors import EmptyGroundTruth, FormatError
from .search import topk_batch

Candidate = tuple[str, str, float]

_GT_HEADER = ["query_id", "reference_id"]

# The precision at which recall is reported unless a caller names another.
TARGET_PRECISION = 0.9


@dataclass(frozen=True)
class GroundTruth:
    """Positive (query_id, reference_id) pairs from any iterable, held sorted;
    a pair given twice is a ValueError naming it."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        pairs = sorted(self.pairs)
        repeated = next((a for a, b in zip(pairs, pairs[1:]) if a == b), None)
        if repeated is not None:
            raise ValueError(f"duplicate ground-truth pair {repeated}")
        object.__setattr__(self, "pairs", tuple(pairs))

    @property
    def positives(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "GroundTruth":
        """The constructor under its older name, which `cdbench/tests` still call."""
        return cls(pairs)

    def positions(self, query_ids: Sequence[str], reference_ids: Sequence[str]) -> np.ndarray:
        """Each pair's (query row, reference row) in two id tables of any order, as a
        ``(positives, 2)`` int64 array in pair order; -1 where a table lacks the id."""
        qpos = {q: i for i, q in enumerate(query_ids)}
        rpos = {r: i for i, r in enumerate(reference_ids)}
        return np.array([(qpos.get(q, -1), rpos.get(r, -1)) for q, r in self.pairs], dtype=np.int64).reshape(-1, 2)


def write_gt_csv(path: str | Path, pairs: Iterable[tuple[str, str]]) -> None:
    """Write (query_id, reference_id) pairs as a CSV with header, atomically."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows([_GT_HEADER, *pairs])
    write_bytes_atomic(path, text.getvalue().encode("utf-8"))


def read_gt_csv(path: str | Path) -> GroundTruth:
    """Ground truth from a CSV written by :func:`write_gt_csv`; a repeated pair, a
    row of the wrong width or a line csv cannot parse is a FormatError naming its line."""
    pairs: set[tuple[str, str]] = set()
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header != _GT_HEADER:
            raise FormatError(f"{path}: unexpected header {header}")
        for row in reader:
            if len(row) != 2:
                raise FormatError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
            pair = (row[0], row[1])
            if pair in pairs:
                raise FormatError(f"{path}:{reader.line_num}: duplicate pair {pair}")
            pairs.add(pair)
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return GroundTruth(pairs)


class RankedMatches:
    """Globally sorted candidate list, one entry per (query, reference) pair.

    Sorted by score descending; ties broken by (query_id, reference_id)
    lexicographic order so that evaluation is deterministic. Held as
    arrays: ``query_ids`` and ``reference_ids`` are the sorted distinct
    ids, and entry i pairs ``query_ids[query[i]]`` with
    ``reference_ids[reference[i]]`` at ``scores[i]``. As the id tables are
    sorted, the tie-break is an order on the indices.

    The constructor takes the entries in any order, with id tables of
    distinct ids in any order; a pair may occur once.
    """

    def __init__(
        self,
        query_ids: Sequence[str] = (),
        query: Sequence[int] = (),
        reference_ids: Sequence[str] = (),
        reference: Sequence[int] = (),
        scores: Sequence[float] = (),
    ):
        self.query_ids, q_rank = _sorted_ids(query_ids)
        self.reference_ids, r_rank = _sorted_ids(reference_ids)
        q = q_rank[np.asarray(query, dtype=np.int64)]
        r = r_rank[np.asarray(reference, dtype=np.int64)]
        s = np.asarray(scores, dtype=np.float64)
        keys = np.sort(q * len(self.reference_ids) + r)
        repeated = keys[1:][keys[1:] == keys[:-1]]
        if repeated.size:
            qi, ri = divmod(int(repeated[0]), len(self.reference_ids))
            raise ValueError(
                f"duplicate candidate pair ({self.query_ids[qi]!r}, {self.reference_ids[ri]!r})"
            )
        order = np.lexsort((r, q, -s))
        self.query, self.reference, self.scores = q[order], r[order], s[order]

    @classmethod
    def from_candidates(cls, candidates: Iterable[Candidate]) -> "RankedMatches":
        queries: dict[str, int] = {}
        references: dict[str, int] = {}
        columns = [
            (queries.setdefault(q, len(queries)), references.setdefault(r, len(references)), s)
            for q, r, s in candidates
        ]
        q, r, s = zip(*columns) if columns else ((), (), ())
        return cls(tuple(queries), q, tuple(references), r, s)

    @property
    def entries(self) -> tuple[Candidate, ...]:
        """The ranking as (query_id, reference_id, score) tuples."""
        return tuple(zip(
            [self.query_ids[i] for i in self.query.tolist()],
            [self.reference_ids[i] for i in self.reference.tolist()],
            self.scores.tolist(),
        ))

    def __len__(self) -> int:
        return self.scores.size


def _sorted_ids(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """``ids`` sorted, and the sorted position of each id by its index in ``ids``."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids))
    return tuple(ids[i] for i in order), rank


def _true_ranks(ranked: RankedMatches, gt: GroundTruth) -> np.ndarray:
    """The ranks (1-based, ascending) that hold a true pair."""
    n_ref = len(ranked.reference_ids)
    rows = gt.positions(ranked.query_ids, ranked.reference_ids)
    rows = rows[(rows >= 0).all(axis=1)]
    if not rows.size:
        return np.zeros(0, dtype=np.int64)
    # A binary search, not np.isin: its first sort-based call imports
    # numpy modules for about 20 ms.
    truth = np.sort(rows[:, 0] * n_ref + rows[:, 1])
    entry = ranked.query * n_ref + ranked.reference
    found = truth[np.searchsorted(truth, entry).clip(max=truth.size - 1)] == entry
    return np.flatnonzero(found) + 1


def micro_ap(ranked: RankedMatches, gt: GroundTruth) -> float:
    """Micro-average precision of the global ranking.

    Sum of precision@rank over ranks holding a true pair, divided by the
    total number of ground-truth positives.
    """
    if gt.positives < 1:
        raise EmptyGroundTruth("micro_ap needs at least one positive pair")
    ranks = _true_ranks(ranked, gt)
    # A running sum in rank order, which cumsum is: np.sum adds pairwise,
    # and sum() compensates from Python 3.12, which changes the last bits.
    precision = np.arange(1, ranks.size + 1) / ranks
    total = float(np.cumsum(precision)[-1]) if ranks.size else 0.0
    return total / gt.positives


def recall_at_precision(ranked: RankedMatches, gt: GroundTruth, p: float = TARGET_PRECISION) -> float:
    """Max recall over all cutoffs whose precision is at least ``p``.

    Zero when no cutoff qualifies (including an empty ranking). The
    maximizing cutoff always falls on a rank holding a true pair, so only
    those ranks are inspected.
    """
    if gt.positives < 1:
        raise EmptyGroundTruth("recall_at_precision needs at least one positive pair")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    ranks = _true_ranks(ranked, gt)
    tp = np.arange(1, ranks.size + 1)
    qualifying = tp[tp / ranks >= p]
    return int(qualifying[-1]) / gt.positives if qualifying.size else 0.0


def evaluate(ranked: RankedMatches, gt: GroundTruth, p: float = TARGET_PRECISION) -> dict[str, float]:
    """The score record of a ranking: micro-AP and recall at precision ``p``."""
    # p as a percentage, never rounded to a whole one: 0.905 gives
    # recall_at_p90.5. Twelve digits drop the float error of 0.9 * 100.
    return {
        "micro_ap": micro_ap(ranked, gt),
        f"recall_at_p{p * 100:.12g}": recall_at_precision(ranked, gt, p),
    }


def build_candidates(
    queries: EmbeddingSet, references: EmbeddingSet, per_query_k: int = 1
) -> RankedMatches:
    """Top ``per_query_k`` references per query, merged into one global ranking."""
    idx, scores = topk_batch(queries, references, per_query_k)
    rows = np.repeat(np.arange(queries.count), idx.shape[1])
    return RankedMatches(queries.ids, rows, references.ids, idx.ravel(), scores.ravel())


def write_matches_tsv(path_or_handle, ranked: RankedMatches) -> None:
    """Write the ranking as ``query_id<TAB>reference_id<TAB>score`` lines,
    in ranking order.

    Scores use shortest round-trip float formatting so a reload ranks
    identically. A path is replaced atomically. An id holding a tab would
    not read back, so it raises ValueError before anything is written.
    """
    bad = next((i for i in ranked.query_ids + ranked.reference_ids if "\t" in i), None)
    if bad is not None:
        raise ValueError(f"id {bad!r} contains a tab, which matches.tsv cannot hold")
    q_ids = np.asarray(ranked.query_ids, dtype=object)[ranked.query]
    r_ids = np.asarray(ranked.reference_ids, dtype=object)[ranked.reference]
    lines = "".join(f"{q}\t{r}\t{s!r}\n" for q, r, s in zip(q_ids, r_ids, ranked.scores.tolist()))
    if hasattr(path_or_handle, "write"):
        path_or_handle.write(lines)
    else:
        write_bytes_atomic(path_or_handle, lines.encode("utf-8"))


def read_matches_tsv(path: str | Path) -> RankedMatches:
    """Read a matches TSV and re-sort it into the global ranking order."""
    path = Path(path)
    cands: list[Candidate] = []
    for ln, line in enumerate(read_text(path).splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{ln}: expected 3 tab-separated fields")
        try:
            cands.append((parts[0], parts[1], float(parts[2])))
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: bad score {parts[2]!r}") from exc
        # A nan compares false both ways, so the ranking would follow line order.
        if not math.isfinite(cands[-1][2]):
            raise FormatError(f"{path}:{ln}: non-finite score {parts[2]!r}")
    try:
        return RankedMatches.from_candidates(cands)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
