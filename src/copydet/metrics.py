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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .embedding import EmbeddingSet, write_bytes_atomic
from .errors import EmptyGroundTruth, FormatError
from .search import topk_batch

Candidate = tuple[str, str, float]

_GT_HEADER = ["query_id", "reference_id"]


@dataclass(frozen=True)
class GroundTruth:
    """Set of positive (query_id, reference_id) pairs."""

    pairs: frozenset[tuple[str, str]]

    @property
    def positives(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "GroundTruth":
        pairs = list(pairs)
        unique = frozenset(pairs)
        if len(unique) != len(pairs):
            raise ValueError("ground truth contains duplicate pairs")
        return cls(unique)


def write_gt_csv(path: str | Path, pairs: Iterable[tuple[str, str]]) -> None:
    """Write (query_id, reference_id) pairs as a CSV with header, atomically."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows([_GT_HEADER, *pairs])
    write_bytes_atomic(path, text.getvalue().encode("utf-8"))


def read_gt_pairs(path: str | Path) -> list[tuple[str, str]]:
    """Pairs of a ``query_id,reference_id`` CSV, in file order, each row one new pair."""
    pairs: dict[tuple[str, str], None] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _GT_HEADER:
            raise FormatError(f"{path}: unexpected header {header}")
        for row in reader:
            if len(row) != 2:
                raise FormatError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
            pair = (row[0], row[1])
            if pair in pairs:
                raise FormatError(f"{path}:{reader.line_num}: duplicate pair {pair}")
            pairs[pair] = None
    return list(pairs)


def read_gt_csv(path: str | Path) -> GroundTruth:
    """Ground truth from a CSV written by :func:`write_gt_csv`."""
    return GroundTruth(frozenset(read_gt_pairs(path)))


@dataclass(frozen=True)
class RankedMatches:
    """Globally sorted candidate list, one entry per (query, reference) pair.

    Sorted by score descending; ties broken by (query_id, reference_id)
    lexicographic order so that evaluation is deterministic.
    """

    entries: tuple[Candidate, ...] = field(default=())

    @classmethod
    def from_candidates(cls, candidates: Iterable[Candidate]) -> "RankedMatches":
        cands = list(candidates)
        seen = set()
        for q, r, _ in cands:
            if (q, r) in seen:
                raise ValueError(f"duplicate candidate pair ({q!r}, {r!r})")
            seen.add((q, r))
        cands.sort(key=lambda c: (-c[2], c[0], c[1]))
        return cls(tuple(cands))

    def __len__(self) -> int:
        return len(self.entries)


def _true_ranks(ranked: RankedMatches, gt: GroundTruth) -> Iterator[tuple[int, int]]:
    """(true pairs so far, rank) at each rank that holds a true pair."""
    tp = 0
    for rank, (q, r, _) in enumerate(ranked.entries, start=1):
        if (q, r) in gt.pairs:
            tp += 1
            yield tp, rank


def micro_ap(ranked: RankedMatches, gt: GroundTruth) -> float:
    """Micro-average precision of the global ranking.

    Sum of precision@rank over ranks holding a true pair, divided by the
    total number of ground-truth positives.
    """
    if gt.positives < 1:
        raise EmptyGroundTruth("micro_ap needs at least one positive pair")
    # Not sum(): from Python 3.12 it compensates, which changes the last bits.
    total = 0.0
    for tp, rank in _true_ranks(ranked, gt):
        total += tp / rank
    return total / gt.positives


def recall_at_precision(ranked: RankedMatches, gt: GroundTruth, p: float = 0.90) -> float:
    """Max recall over all cutoffs whose precision is at least ``p``.

    Zero when no cutoff qualifies (including an empty ranking). The
    maximizing cutoff always falls on a rank holding a true pair, so only
    those ranks are inspected.
    """
    if gt.positives < 1:
        raise EmptyGroundTruth("recall_at_precision needs at least one positive pair")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    recalls = (tp / gt.positives for tp, rank in _true_ranks(ranked, gt) if tp / rank >= p)
    return max(recalls, default=0.0)


def match_candidates(
    queries: EmbeddingSet, references: EmbeddingSet, per_query_k: int
) -> list[Candidate]:
    """Top ``per_query_k`` references per query as (query_id, reference_id, score), in query order."""
    idx, scores = topk_batch(queries, references, per_query_k)
    return [
        (qid, references.ids[i], s)
        for qid, row_idx, row_scores in zip(queries.ids, idx.tolist(), scores.tolist())
        for i, s in zip(row_idx, row_scores)
    ]


def build_candidates(
    queries: EmbeddingSet, references: EmbeddingSet, per_query_k: int = 1
) -> RankedMatches:
    """Top ``per_query_k`` references per query, merged into one global ranking."""
    return RankedMatches.from_candidates(match_candidates(queries, references, per_query_k))


def write_matches_tsv(
    path_or_handle, candidates: Iterable[Candidate]
) -> None:
    """Write ``query_id<TAB>reference_id<TAB>score`` lines.

    Scores use shortest round-trip float formatting so a reload ranks
    identically. A path is replaced atomically. An id holding a tab would
    not read back, so it raises ValueError before anything is written.
    """
    cands = list(candidates)
    lines = "".join(f"{q}\t{r}\t{s!r}\n" for q, r, s in cands)
    if lines.count("\t") != 2 * len(cands):
        bad = next(i for c in cands for i in c[:2] if "\t" in i)
        raise ValueError(f"id {bad!r} contains a tab, which matches.tsv cannot hold")
    if hasattr(path_or_handle, "write"):
        path_or_handle.write(lines)
    else:
        write_bytes_atomic(path_or_handle, lines.encode("utf-8"))


def read_matches_tsv(path: str | Path) -> RankedMatches:
    """Read a matches TSV and re-sort it into the global ranking order."""
    path = Path(path)
    cands: list[Candidate] = []
    for ln, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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
