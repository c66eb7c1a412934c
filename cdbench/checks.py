"""Output checks that do not depend on the program's code.

None of them pins a hash or a value of one commit: runs of one seed must
agree with each other, unit-norm files must be unit-norm, and the reported
ranking quality must match a brute-force recomputation from the written
descriptors and ground truth.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from pathlib import Path

import numpy as np

NORM_TOL = 1e-6
QUALITY_TOL = 1e-9
# Every workload ranks the top 10 references per query and reports recall
# at precision 0.90.
TOP_K = 10
PRECISION = 0.90


def digest_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def read_emb(path: Path) -> tuple[int, list[str], np.ndarray]:
    """(version, ids, float32 rows) of an ``ISCE`` descriptor file."""
    blob = path.read_bytes()
    magic, version, dim, count = struct.unpack_from("<4sIIQ", blob)
    if magic != b"ISCE" or len(blob) != 20 + 4 * dim * count:
        raise ValueError(f"{path}: not a well-formed ISCE file")
    rows = np.frombuffer(blob, dtype="<f4", count=dim * count, offset=20).reshape(count, dim)
    ids = path.with_suffix(".ids").read_text(encoding="utf-8").splitlines()
    if len(ids) != count:
        raise ValueError(f"{path}: {len(ids)} ids for {count} rows")
    return version, ids, rows


def unit_norm_errors(root: Path) -> list[str]:
    """Every version-1 (unit-norm) descriptor file must hold unit rows."""
    errors = []
    for path in sorted(root.rglob("*.emb")):
        version, _, rows = read_emb(path)
        if version == 1 and len(rows):
            worst = float(np.max(np.abs(np.linalg.norm(rows.astype(np.float64), axis=1) - 1.0)))
            if worst > NORM_TOL:
                errors.append(f"{path.name}: a row norm is off by {worst:.3e}")
    return errors


def read_gt(path: Path) -> set[tuple[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {(q, r) for q, r in rows[1:]}


def oracle_quality(queries: Path, references: Path, gt_csv: Path) -> dict:
    """micro_ap and recall at precision 0.90 by brute force.

    Exact inner-product top-k per query (index tie-break), one global
    ranking by (score desc, query id, reference id), then both metrics
    straight from their definitions.
    """
    _, qids, q = read_emb(queries)
    _, rids, r = read_emb(references)
    gt = read_gt(gt_csv)
    q64, r64 = q.astype(np.float64), r.astype(np.float64)
    cand_q, cand_r, cand_s = [], [], []
    for start in range(0, len(qids), 256):
        scores = r64 @ q64[start : start + 256].T
        top = np.argsort(-scores, axis=0, kind="stable")[:TOP_K]
        for col in range(scores.shape[1]):
            for ri in top[:, col]:
                cand_q.append(qids[start + col])
                cand_r.append(rids[ri])
                cand_s.append(scores[ri, col])
    order = np.lexsort((np.array(cand_r), np.array(cand_q), -np.array(cand_s)))
    hit = np.array([(cand_q[i], cand_r[i]) in gt for i in order], dtype=bool)
    tp = np.cumsum(hit)
    rank = np.arange(1, len(hit) + 1)
    precision = tp / rank
    recall = tp / len(gt)
    qualifying = hit & (precision >= PRECISION)
    return {
        "micro_ap": float(np.sum(precision[hit]) / len(gt)),
        "recall_at_p90": float(recall[qualifying].max()) if qualifying.any() else 0.0,
    }
