"""The benchmark's workloads: the CLI commands one run executes, and their inputs.

Every path is relative to the run's work directory, so each run of a seed
passes the program byte-identical arguments (the manifest records
``--out-dir``). The last command of every workload prints the headline
JSON report.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

SIZES = ["--n-train", "1024", "--n-ref", "1024", "--n-query", "256"]

NEGSUB = ["--n", "1", "--k", "10", "--beta", "0.35"]

# Name -> why, as BENCHMARK.json records it.
WORKLOADS = {
    "trend": (
        "copydet reproduce-trend --n-train 1024 --n-ref 1024 --n-query 256: headline staged run "
        "at default batch shapes; the only workload where augmentation does real work"
    ),
    "match": (
        "README step-by-step flow on seeded 4096/8192/2048 rows: embed x3, postprocess refs and "
        "queries, search --k 10, eval; no training, file I/O, exact search dominates"
    ),
}

# Match inputs: drawn here rather than by gen_world, so a change to the
# program's draw order cannot change them.
MATCH_N_TRAIN, MATCH_N_REF, MATCH_N_QUERY, MATCH_D_IN, MATCH_DIM = 4096, 8192, 2048, 64, 32
MATCH_COPY_RATE = 0.25
# The program's "strong" tier magnitudes.
STRONG = {"noise_sigma": 0.6, "rotation_angle": 0.6, "mix_low": 0.1, "mix_high": 0.5, "dropout_prob": 0.2}


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argv lists of one run, in order."""
    if workload == "trend":
        return [["reproduce-trend", "--seed", str(seed), "--out-dir", "run/out", *SIZES]]
    if workload == "match":
        embed = [
            ["embed", "--encoder", "inputs/encoder.bin", "--in", f"inputs/{name}.emb", "--out", f"run/{name}.emb"]
            for name in ("training", "reference", "queries")
        ]
        return embed + [
            ["postprocess", "--negatives", "run/training.emb", *NEGSUB,
             "--in", "run/reference.emb", "--out", "run/reference_post.emb"],
            ["postprocess", "--negatives", "run/training.emb", *NEGSUB,
             "--in", "run/queries.emb", "--out", "run/queries_post.emb"],
            ["search", "--queries", "run/queries_post.emb", "--db", "run/reference_post.emb",
             "--k", "10", "--out", "run/matches.tsv"],
            ["eval", "--gt", "inputs/gt.csv", "--pred", "run/matches.tsv"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def headline(workload: str, report: dict) -> dict:
    """The ranking whose micro_ap and recall_at_p90 the workload reports."""
    if workload == "trend":
        return report["rows"][-1]
    return report


def write_inputs(workload: str, seed: int, out_dir: Path) -> None:
    """Write the workload's input files; identical seeds give identical bytes."""
    out_dir.mkdir(parents=True)
    if workload == "match":
        _write_match_inputs(seed, out_dir)


def _write_match_inputs(seed: int, out_dir: Path) -> None:
    rng = np.random.default_rng([seed, 0x6D61746368])
    d = MATCH_D_IN
    train = rng.standard_normal((MATCH_N_TRAIN, d))
    ref = rng.standard_normal((MATCH_N_REF, d))
    n_copy = int(round(MATCH_COPY_RATE * MATCH_N_QUERY))
    src = rng.choice(MATCH_N_REF, size=n_copy, replace=False)
    queries = rng.standard_normal((MATCH_N_QUERY, d))
    slots = rng.permutation(MATCH_N_QUERY)
    queries[slots[:n_copy]] = _strong_transform(ref[src], rng)
    weight = rng.standard_normal((d, MATCH_DIM)) / np.sqrt(d)

    train_ids = [f"T{i:06d}" for i in range(MATCH_N_TRAIN)]
    ref_ids = [f"R{i:06d}" for i in range(MATCH_N_REF)]
    query_ids = [f"Q{i:06d}" for i in range(MATCH_N_QUERY)]
    _write_raw_set(out_dir / "training.emb", train_ids, train)
    _write_raw_set(out_dir / "reference.emb", ref_ids, ref)
    _write_raw_set(out_dir / "queries.emb", query_ids, queries)
    gt = sorted((query_ids[int(slots[j])], ref_ids[int(src[j])]) for j in range(n_copy))
    with open(out_dir / "gt.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "reference_id"])
        writer.writerows(gt)
    # ISCW checkpoint: magic, version 1, one affine layer 64 -> 32, zero bias.
    (out_dir / "encoder.bin").write_bytes(
        b"ISCW" + struct.pack("<II", 1, 1) + struct.pack("<II", d, MATCH_DIM)
        + np.ascontiguousarray(weight, dtype="<f4").tobytes()
        + np.zeros(MATCH_DIM, dtype="<f4").tobytes()
    )


def _strong_transform(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Noise, planar rotations, distractor mixing and dropout, in a per-row order."""
    b, d = x.shape
    y = x.copy()
    order = np.argsort(rng.random((b, 4)), axis=1)
    noise = rng.normal(0.0, STRONG["noise_sigma"], (b, d))
    npairs = d // 4
    pairs = np.argsort(rng.random((b, d)), axis=1)[:, : 2 * npairs]
    first, second = pairs[:, :npairs], pairs[:, npairs:]
    theta = rng.uniform(-STRONG["rotation_angle"], STRONG["rotation_angle"], (b, npairs))
    alpha = rng.uniform(STRONG["mix_low"], STRONG["mix_high"], (b, 1))
    distractor = rng.standard_normal((b, d))
    keep = rng.random((b, d)) >= STRONG["dropout_prob"]
    for step in range(4):
        for op in range(4):
            rows = order[:, step] == op
            if op == 0:
                y[rows] += noise[rows]
            elif op == 1:
                yi = np.take_along_axis(y[rows], first[rows], axis=1)
                yj = np.take_along_axis(y[rows], second[rows], axis=1)
                c, s = np.cos(theta[rows]), np.sin(theta[rows])
                sub = y[rows]
                np.put_along_axis(sub, first[rows], c * yi - s * yj, axis=1)
                np.put_along_axis(sub, second[rows], s * yi + c * yj, axis=1)
                y[rows] = sub
            elif op == 2:
                y[rows] = (1.0 - alpha[rows]) * y[rows] + alpha[rows] * distractor[rows]
            else:
                y[rows] *= keep[rows]
    return y


def _write_raw_set(path: Path, ids: list[str], matrix: np.ndarray) -> None:
    # ISCE layout: magic, version 2 (raw vectors), dim u32, count u64, float32 rows.
    header = struct.pack("<4sIIQ", b"ISCE", 2, matrix.shape[1], matrix.shape[0])
    path.write_bytes(header + np.ascontiguousarray(matrix, dtype="<f4").tobytes())
    path.with_suffix(".ids").write_bytes("".join(s + "\n" for s in ids).encode("utf-8"))
